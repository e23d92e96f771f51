//! Stat groups: structs of statistics walked by a visitor to produce flat
//! dotted names.

use std::fmt;

/// Receives every leaf statistic of a walked [`StatGroup`], bracketed by
/// the scopes that contain it.
///
/// A walk reports names in pieces: [`enter`](Self::enter) opens a scope
/// (a component such as `fetch` or `l2`, a nested group, an indexed
/// `core1`), [`leave`](Self::leave) closes the innermost one, and
/// [`scalar`](Self::scalar) gives a leaf its own name only. How the pieces
/// join into `system.l2.overall_hits` is the visitor's business: the walk
/// itself formats nothing, so a visitor that keeps values only ignores
/// every name for free.
pub trait StatVisitor {
    /// Opens the scope `scope` inside the current one.
    fn enter(&mut self, _scope: fmt::Arguments<'_>) {}

    /// Closes the innermost open scope.
    fn leave(&mut self) {}

    /// Called once per leaf statistic, with its name inside the current
    /// scope.
    fn scalar(&mut self, name: fmt::Arguments<'_>, value: f64);
}

/// A component's bundle of statistics.
///
/// Implemented by the [`stat_group!`](crate::stat_group) macro; visit walks
/// every statistic in declaration order, which gives a stable schema.
pub trait StatGroup {
    /// Walks every statistic in the group, reporting each to `v` inside
    /// the visitor's current scope.
    fn visit(&self, v: &mut dyn StatVisitor);
}

/// A single named item inside a [`StatGroup`]: either a leaf value or a
/// nested group.
pub trait StatItem {
    /// Reports this item (and any sub-items) to `v` under `name`.
    fn visit_item(&self, name: &str, v: &mut dyn StatVisitor);
}

/// A nested group is walked inside a scope of its own name. An empty name
/// adds no scope segment, so its statistics join the parent's.
impl<G: StatGroup + ?Sized> StatItem for G {
    fn visit_item(&self, name: &str, v: &mut dyn StatVisitor) {
        v.enter(format_args!("{name}"));
        self.visit(v);
        v.leave();
    }
}

/// Defines a statistics struct and wires up [`StatGroup`].
///
/// Each field maps to a gem5-style statistic name. Nested groups compose:
/// naming a field whose type itself implements [`StatGroup`] (as generated
/// structs do) produces `prefix.field.*` names, and the empty name `""`
/// flattens the nested group into this one. A field starts at its type's
/// `Default`, or, written `pub x: T = (args) => "name"`, at `T::new(args)`
/// (how a [`Distribution`](crate::Distribution) field declares its bucket
/// layout).
///
/// # Example
///
/// ```
/// use uarch_stats::{stat_group, Counter, Distribution, Snapshot};
///
/// stat_group! {
///     /// Inner group.
///     pub struct LsqStats {
///         /// Loads squashed by mispredicted branches.
///         pub squashed_loads: Counter => "squashedLoads",
///     }
/// }
/// stat_group! {
///     /// Outer group.
///     pub struct IewStats {
///         /// Cycles spent squashing.
///         pub squash_cycles: Counter => "SquashCycles",
///         /// Load/store queue statistics.
///         pub lsq: LsqStats => "lsq",
///         /// Cycles per squash, in 4 buckets over `[0, 40)`.
///         pub squash_len: Distribution = (0.0, 40.0, 4) => "squashLen",
///     }
/// }
///
/// let mut s = IewStats::default();
/// s.lsq.squashed_loads.inc();
/// s.squash_len.record(12.0);
/// let snap = Snapshot::of(&s, "iew");
/// assert_eq!(snap.get("iew.lsq.squashedLoads"), Some(1.0));
/// assert_eq!(snap.get("iew.squashLen::10-19"), Some(1.0));
/// ```
#[macro_export]
macro_rules! stat_group {
    (@init $ty:ty) => {
        <$ty as ::core::default::Default>::default()
    };
    (@init $ty:ty, $args:tt) => {
        <$ty>::new $args
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                pub $field:ident : $ty:ty $(= $args:tt)? => $sname:literal
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl ::core::default::Default for $name {
            fn default() -> Self {
                Self {
                    $( $field: $crate::stat_group!(@init $ty $(, $args)?), )*
                }
            }
        }

        impl $crate::StatGroup for $name {
            fn visit(&self, v: &mut dyn $crate::StatVisitor) {
                $( $crate::StatItem::visit_item(&self.$field, $sname, v); )*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::{Counter, Snapshot};

    stat_group! {
        /// Test group with two counters.
        pub struct TwoCounters {
            /// First.
            pub a: Counter => "A",
            /// Second.
            pub b: Counter => "B",
        }
    }

    stat_group! {
        /// Nests `TwoCounters`.
        pub struct Nest {
            /// Inner group.
            pub inner: TwoCounters => "inner",
            /// A top-level counter.
            pub top: Counter => "Top",
            /// The same group again, flattened into this one.
            pub flat: TwoCounters => "",
        }
    }

    #[test]
    fn visit_emits_declaration_order() {
        let g = TwoCounters::default();
        let snap = Snapshot::of(&g, "t");
        assert_eq!(snap.names(), &["t.A".to_string(), "t.B".to_string()]);
    }

    #[test]
    fn nested_groups_get_dotted_prefixes() {
        let mut g = Nest::default();
        g.inner.b.add(7);
        g.top.add(2);
        let snap = Snapshot::of(&g, "x");
        assert_eq!(snap.get("x.inner.B"), Some(7.0));
        assert_eq!(snap.get("x.Top"), Some(2.0));
    }

    #[test]
    fn an_empty_group_name_flattens_it() {
        let mut g = Nest::default();
        g.flat.a.add(3);
        let snap = Snapshot::of(&g, "x");
        assert_eq!(snap.get("x.A"), Some(3.0));
    }

    #[test]
    fn empty_prefix_omits_leading_dot() {
        let g = TwoCounters::default();
        let snap = Snapshot::of(&g, "");
        assert_eq!(snap.names()[0], "A");
    }
}

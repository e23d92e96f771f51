//! Vector statistics keyed by an enumerated label set, gem5's
//! `Stats::Vector` with enumerated subnames (`trans_dist::ReadSharedReq`,
//! `op_class_0::IntAlu`, ...).

use std::marker::PhantomData;

use crate::group::{StatItem, StatVisitor};

/// The label set of a [`VectorStat`].
///
/// Implemented by enums such as a memory command or an op class. Indices must
/// be dense in `0..COUNT`.
pub trait StatKey: Copy {
    /// Number of labels.
    const COUNT: usize;

    /// Dense index of this label, in `0..Self::COUNT`.
    fn index(self) -> usize;

    /// Human-readable label for index `i` (used as the `::suffix`).
    fn label(i: usize) -> &'static str;
}

/// A per-label counter vector emitting `name::Label` statistics.
///
/// # Example
///
/// ```
/// use uarch_stats::{StatKey, VectorStat};
///
/// #[derive(Clone, Copy)]
/// enum Kind { A, B }
/// impl StatKey for Kind {
///     const COUNT: usize = 2;
///     fn index(self) -> usize { self as usize }
///     fn label(i: usize) -> &'static str { ["A", "B"][i] }
/// }
///
/// let mut v = VectorStat::<Kind>::new();
/// v.inc(Kind::B);
/// assert_eq!(v.get(Kind::B), 1);
/// ```
#[derive(Debug, Clone)]
pub struct VectorStat<K: StatKey> {
    counts: Vec<u64>,
    _key: PhantomData<K>,
}

impl<K: StatKey> VectorStat<K> {
    /// Creates a zeroed vector stat.
    pub fn new() -> Self {
        Self {
            counts: vec![0; K::COUNT],
            _key: PhantomData,
        }
    }

    /// Increments the counter for `key`.
    #[inline]
    pub fn inc(&mut self, key: K) {
        self.counts[key.index()] += 1;
    }

    /// Adds `n` to the counter for `key`.
    #[inline]
    pub fn add(&mut self, key: K, n: u64) {
        self.counts[key.index()] += n;
    }

    /// Returns the count for `key`.
    pub fn get(&self, key: K) -> u64 {
        self.counts[key.index()]
    }

    /// Returns the sum over all labels.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl<K: StatKey> Default for VectorStat<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: StatKey> StatItem for VectorStat<K> {
    fn visit_item(&self, name: &str, v: &mut dyn StatVisitor) {
        for (i, c) in self.counts.iter().enumerate() {
            v.scalar(format_args!("{name}::{}", K::label(i)), *c as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Snapshot, StatGroup};

    #[derive(Clone, Copy)]
    enum Cmd {
        Read,
        Write,
        Flush,
    }
    impl StatKey for Cmd {
        const COUNT: usize = 3;
        fn index(self) -> usize {
            self as usize
        }
        fn label(i: usize) -> &'static str {
            ["ReadReq", "WriteReq", "FlushReq"][i]
        }
    }

    struct Holder(VectorStat<Cmd>);
    impl StatGroup for Holder {
        fn visit(&self, v: &mut dyn StatVisitor) {
            self.0.visit_item("trans_dist", v);
        }
    }

    #[test]
    fn labels_become_subnames() {
        let mut v = VectorStat::<Cmd>::new();
        v.inc(Cmd::Flush);
        v.add(Cmd::Read, 3);
        let snap = Snapshot::of(&Holder(v), "bus");
        assert_eq!(snap.get("bus.trans_dist::ReadReq"), Some(3.0));
        assert_eq!(snap.get("bus.trans_dist::FlushReq"), Some(1.0));
        assert_eq!(snap.get("bus.trans_dist::WriteReq"), Some(0.0));
    }

    #[test]
    fn total_sums_all_labels() {
        let mut v = VectorStat::<Cmd>::new();
        v.add(Cmd::Read, 2);
        v.add(Cmd::Write, 5);
        assert_eq!(v.total(), 7);
    }
}

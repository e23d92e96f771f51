//! The dotted names a walk resolves to. A walk reports scopes and leaf
//! names in pieces; the name collector behind `Schema::of` and
//! `Snapshot::of` is the one place they are joined, and it checks that
//! every scope the walk opens is closed again.

use uarch_stats::{
    stat_group, Counter, Distribution, Sampler, Schema, Snapshot, StatGroup, StatItem, StatKey,
    StatVisitor, VectorStat,
};

#[derive(Debug, Clone, Copy)]
enum Port {
    Read,
    Write,
}

impl StatKey for Port {
    const COUNT: usize = 2;
    fn index(self) -> usize {
        self as usize
    }
    fn label(i: usize) -> &'static str {
        ["Read", "Write"][i]
    }
}

stat_group! {
    /// The innermost group: a distribution and a vector stat.
    pub struct QueueStats {
        /// Queue depth, two buckets over `[0, 4)`.
        pub depth: Distribution = (0.0, 4.0, 2) => "depth",
        /// Requests per port.
        pub ports: VectorStat<Port> => "ports",
    }
}

stat_group! {
    /// Counters flattened into their parent.
    pub struct FlatStats {
        /// Lines evicted.
        pub evictions: Counter => "evictions",
    }
}

stat_group! {
    /// One unit: a counter, a nested group and a flattened one.
    pub struct UnitStats {
        /// Cycles busy.
        pub busy: Counter => "busyCycles",
        /// The unit's queue.
        pub queue: QueueStats => "queue",
        /// Published without a scope of their own.
        pub flat: FlatStats => "",
    }
}

/// Two units under the indexed scopes `unit0` and `unit1`, then a counter
/// of the chip's own.
#[derive(Default)]
struct Chip {
    units: [UnitStats; 2],
    shared: Counter,
}

impl StatGroup for Chip {
    fn visit(&self, v: &mut dyn StatVisitor) {
        for (i, unit) in self.units.iter().enumerate() {
            v.enter(format_args!("unit{i}"));
            unit.visit(v);
            v.leave();
        }
        self.shared.visit_item("shared", v);
    }
}

const UNIT_NAMES: [&str; 10] = [
    "busyCycles",
    "queue.depth::underflow",
    "queue.depth::0-1",
    "queue.depth::2-3",
    "queue.depth::overflow",
    "queue.depth::total",
    "queue.depth::mean",
    "queue.ports::Read",
    "queue.ports::Write",
    "evictions",
];

/// Every name of `Chip` under the root scope `root`.
fn chip_names(root: &str) -> Vec<String> {
    let dot = if root.is_empty() { "" } else { "." };
    let mut names: Vec<String> = (0..2)
        .flat_map(|i| UNIT_NAMES.map(|n| format!("{root}{dot}unit{i}.{n}")))
        .collect();
    names.push(format!("{root}{dot}shared"));
    names
}

#[test]
fn an_empty_entry_prefix_adds_no_root_scope() {
    let schema = Schema::of(&Chip::default(), "");
    assert_eq!(schema.names(), chip_names("").as_slice());
}

#[test]
fn a_non_empty_entry_prefix_is_the_root_scope() {
    let schema = Schema::of(&Chip::default(), "system");
    assert_eq!(schema.names(), chip_names("system").as_slice());
    assert_eq!(schema.name(0), "system.unit0.busyCycles");
}

#[test]
fn values_line_up_with_their_names() {
    let mut chip = Chip::default();
    chip.units[1].queue.depth.record(3.0);
    chip.units[1].queue.ports.add(Port::Write, 4);
    chip.units[0].queue.ports.inc(Port::Read);
    chip.units[0].flat.evictions.add(2);
    chip.shared.add(9);
    let snap = Snapshot::of(&chip, "c");
    assert_eq!(snap.get("c.unit1.queue.depth::2-3"), Some(1.0));
    assert_eq!(snap.get("c.unit1.queue.depth::mean"), Some(3.0));
    assert_eq!(snap.get("c.unit1.queue.ports::Write"), Some(4.0));
    assert_eq!(snap.get("c.unit0.queue.ports::Read"), Some(1.0));
    assert_eq!(snap.get("c.unit0.evictions"), Some(2.0));
    assert_eq!(snap.get("c.shared"), Some(9.0));
    assert_eq!(
        snap.values().iter().sum::<f64>(),
        1.0 + 3.0 + 1.0 + 4.0 + 1.0 + 2.0 + 9.0
    );
}

#[test]
fn a_sampler_walks_the_same_columns_whatever_its_prefix() {
    let mut chip = Chip::default();
    let mut sampler = Sampler::new(&chip, "c");
    assert_eq!(sampler.schema().names(), chip_names("c").as_slice());
    chip.units[0].busy.add(5);
    let row = sampler.sample(&chip);
    assert_eq!(row[0], 5.0);
    assert_eq!(row.len(), chip_names("").len());
}

/// A walk that opens a scope and never closes it.
struct Unclosed;

impl StatGroup for Unclosed {
    fn visit(&self, v: &mut dyn StatVisitor) {
        v.enter(format_args!("open"));
        v.scalar(format_args!("x"), 1.0);
    }
}

/// A walk that closes a scope it never opened.
struct Overclosed;

impl StatGroup for Overclosed {
    fn visit(&self, v: &mut dyn StatVisitor) {
        v.scalar(format_args!("x"), 1.0);
        v.leave();
        v.leave();
    }
}

#[test]
#[should_panic(expected = "left 1 scope(s) open")]
fn a_walk_must_close_every_scope_it_opens() {
    let _ = Schema::of(&Unclosed, "");
}

#[test]
#[should_panic(expected = "never entered")]
fn a_walk_must_not_close_a_scope_it_never_opened() {
    let _ = Snapshot::of(&Overclosed, "root");
}

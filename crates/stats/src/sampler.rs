//! Sampling machinery: turning repeated stat walks into the
//! multi-dimensional time series the detector trains on.
//!
//! The data path is *schema-resolved*: the dotted stat names are built
//! exactly once per run (building a [`Schema`]), and every subsequent
//! sample only collects values against it. Per-interval rows flow through
//! the [`SampleSink`] trait, so callers can stream (score online, forward
//! over a channel) or materialize (append to a columnar [`SampleTrace`])
//! without the sampler ever accumulating state itself.
//!
//! Names are built in one place, the name collector here: a walk reports
//! scopes and leaf names in pieces (see [`StatVisitor`]), and only this
//! module joins them with dots. A value walk ignores the pieces, so it
//! formats and allocates nothing.

use std::collections::HashMap;
use std::fmt::{self, Write};
use std::sync::Arc;

use crate::group::{StatGroup, StatItem, StatVisitor};

/// The (ordered) set of statistic names produced by a stat group walk.
///
/// Resolved once per run; later samples only collect values and assert the
/// count matches, avoiding per-sample string allocation. Clones share the
/// underlying storage, so a schema can be handed to worker threads and
/// sinks for free.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    names: Arc<Vec<String>>,
    index: Arc<HashMap<String, usize>>,
}

impl Schema {
    /// Walks `group` under `prefix` and resolves its schema (names only).
    pub fn of<G: StatGroup + ?Sized>(group: &G, prefix: &str) -> Self {
        Self::from_names(NameCollector::walk(group, prefix).names)
    }

    /// Builds a schema from an explicit name list.
    pub fn from_names(names: Vec<String>) -> Self {
        let index = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        Self {
            names: Arc::new(names),
            index: Arc::new(index),
        }
    }

    /// Number of statistics in the schema.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the schema is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All names, in visit order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The column index of `name`, if present (O(1) hash lookup).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// The name of column `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// Whether two schemas share the same underlying name storage (and are
    /// therefore trivially identical).
    pub fn same_as(&self, other: &Schema) -> bool {
        Arc::ptr_eq(&self.names, &other.names)
    }
}

/// One full walk of a stat group: a shared [`Schema`] plus current values.
///
/// Values are stored columnar against the schema; probing by name via
/// [`Snapshot::get`] is an O(1) index lookup.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    schema: Schema,
    values: Vec<f64>,
}

impl Snapshot {
    /// Walks `group` under `prefix` and captures every statistic,
    /// resolving a fresh schema (names + values in a single walk).
    pub fn of<G: StatGroup + ?Sized>(group: &G, prefix: &str) -> Self {
        let c = NameCollector::walk(group, prefix);
        Self {
            schema: Schema::from_names(c.names),
            values: c.values,
        }
    }

    /// Walks `group` collecting values only, against an already-resolved
    /// schema — no name is built.
    ///
    /// # Panics
    ///
    /// Panics if the walk produces a different number of statistics than
    /// the schema.
    pub fn with_schema<G: StatGroup + ?Sized>(schema: &Schema, group: &G) -> Self {
        let mut values = Vec::with_capacity(schema.len());
        group.visit(&mut ValueCollector {
            values: &mut values,
        });
        assert_eq!(
            values.len(),
            schema.len(),
            "stat group shape does not match schema"
        );
        Self {
            schema: schema.clone(),
            values,
        }
    }

    /// The schema the values are aligned with.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Returns the value of statistic `name`, if present (O(1)).
    pub fn get(&self, name: &str) -> Option<f64> {
        self.schema.index_of(name).map(|i| self.values[i])
    }

    /// All statistic names, in visit order.
    pub fn names(&self) -> &[String] {
        self.schema.names()
    }

    /// All values, aligned with [`Snapshot::names`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of statistics captured.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no statistic was captured.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Receives one per-interval delta row at a time from a [`Sampler`].
///
/// This is the streaming seam of the pipeline: the producer (a simulated
/// core driving a sampler) never accumulates samples itself — it pushes
/// each row into a sink, which may store it ([`SampleTrace`]), featurize
/// and classify it online, or fan it out further.
pub trait SampleSink {
    /// Called once per sampling interval with the committed-instruction
    /// count at the sampling point and the per-column deltas since the
    /// previous sample. The row borrow is only valid for the duration of
    /// the call.
    fn on_sample(&mut self, insts: u64, row: &[f64]);
}

/// A borrowed sink is a sink, so adapters that own their inner sink (a
/// fault injector, say) can also wrap one the caller keeps.
impl<S: SampleSink + ?Sized> SampleSink for &mut S {
    fn on_sample(&mut self, insts: u64, row: &[f64]) {
        (**self).on_sample(insts, row);
    }
}

/// Builds the dotted name of every statistic a walk reports — the only
/// code that joins scopes and leaf names — and keeps the values beside
/// them.
#[derive(Default)]
struct NameCollector {
    /// The open scopes, dot-joined; each leaf's name is built on its end.
    path: String,
    /// `path`'s length before each open scope.
    marks: Vec<usize>,
    names: Vec<String>,
    values: Vec<f64>,
}

impl NameCollector {
    /// Walks `group` inside the root scope `prefix` (none when empty).
    ///
    /// # Panics
    ///
    /// Panics if the walk leaves a scope it never entered or leaves one
    /// open.
    fn walk<G: StatGroup + ?Sized>(group: &G, prefix: &str) -> Self {
        let mut c = Self::default();
        group.visit_item(prefix, &mut c);
        assert!(
            c.marks.is_empty(),
            "stat walk left {} scope(s) open",
            c.marks.len()
        );
        c
    }

    /// Appends `segment` to `path`, after a dot unless either is empty.
    fn push(&mut self, segment: fmt::Arguments<'_>) {
        let mark = self.path.len();
        if mark > 0 {
            self.path.push('.');
        }
        let start = self.path.len();
        self.path
            .write_fmt(segment)
            .expect("writing to a String cannot fail");
        if self.path.len() == start {
            // An empty segment adds no dot either.
            self.path.truncate(mark);
        }
    }
}

impl StatVisitor for NameCollector {
    fn enter(&mut self, scope: fmt::Arguments<'_>) {
        self.marks.push(self.path.len());
        self.push(scope);
    }

    fn leave(&mut self) {
        let mark = self
            .marks
            .pop()
            .expect("stat walk left a scope it never entered");
        self.path.truncate(mark);
    }

    fn scalar(&mut self, name: fmt::Arguments<'_>, value: f64) {
        let mark = self.path.len();
        self.push(name);
        self.names.push(self.path.clone());
        self.path.truncate(mark);
        self.values.push(value);
    }
}

/// Value-only collector reusing a caller-owned buffer: it ignores every
/// scope and name, so its walk builds no string.
struct ValueCollector<'a> {
    values: &'a mut Vec<f64>,
}

impl StatVisitor for ValueCollector<'_> {
    #[inline]
    fn scalar(&mut self, _name: fmt::Arguments<'_>, value: f64) {
        self.values.push(value);
    }
}

/// Samples a stat group at intervals, producing per-interval deltas.
///
/// Statistics are cumulative; the paper's traces are per-window activity,
/// so each sample is `current - previous` for every column. The sampler
/// owns three reusable buffers (previous, current, delta) and its walks
/// collect values only, building no name, so steady-state sampling via
/// [`Sampler::sample_into`] allocates nothing.
///
/// # Example
///
/// ```
/// use uarch_stats::{stat_group, Counter, Sampler};
///
/// stat_group! {
///     /// Toy.
///     pub struct T { /// c.
///         pub c: Counter => "c" }
/// }
/// let mut t = T::default();
/// let mut s = Sampler::new(&t, "t");
/// t.c.add(5);
/// assert_eq!(s.sample(&t), vec![5.0]);
/// t.c.add(2);
/// assert_eq!(s.sample(&t), vec![2.0]);
/// ```
#[derive(Debug)]
pub struct Sampler {
    schema: Schema,
    prev: Vec<f64>,
    cur: Vec<f64>,
    delta: Vec<f64>,
}

impl Sampler {
    /// Creates a sampler whose baseline is the group's current values. The
    /// schema is resolved here, once.
    pub fn new<G: StatGroup + ?Sized>(group: &G, prefix: &str) -> Self {
        Self::with_schema(Schema::of(group, prefix), group)
    }

    /// Creates a sampler against an already-resolved `schema` (a group
    /// that resolves its schema once and reuses it across runs): the
    /// baseline walk collects values only, building no names.
    ///
    /// # Panics
    ///
    /// Panics if the group's walk produces a different number of
    /// statistics than `schema`.
    pub fn with_schema<G: StatGroup + ?Sized>(schema: Schema, group: &G) -> Self {
        let width = schema.len();
        let mut prev = Vec::with_capacity(width);
        group.visit(&mut ValueCollector { values: &mut prev });
        assert_eq!(prev.len(), width, "stat group shape does not match schema");
        Self {
            schema,
            prev,
            cur: Vec::with_capacity(width),
            delta: Vec::with_capacity(width),
        }
    }

    /// The schema shared by every sample row.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Walks the group into the current-value buffer and computes the
    /// delta row in place; the result lives in `self.delta`.
    fn advance<G: StatGroup + ?Sized>(&mut self, group: &G) {
        self.cur.clear();
        group.visit(&mut ValueCollector {
            values: &mut self.cur,
        });
        assert_eq!(
            self.cur.len(),
            self.schema.len(),
            "stat group shape changed between samples"
        );
        self.delta.clear();
        self.delta.extend(
            self.cur
                .iter()
                .zip(&self.prev)
                .map(|(cur, prev)| cur - prev),
        );
        std::mem::swap(&mut self.prev, &mut self.cur);
    }

    /// Takes a sample: returns per-column deltas since the previous sample
    /// (or since construction) and advances the baseline.
    ///
    /// # Panics
    ///
    /// Panics if the group's walk produces a different number of statistics
    /// than the schema (the group's shape must not change between samples).
    pub fn sample<G: StatGroup + ?Sized>(&mut self, group: &G) -> Vec<f64> {
        self.advance(group);
        self.delta.clone()
    }

    /// Takes a sample and emits it to `sink` without allocating: the delta
    /// row is computed in the sampler's reusable buffers and passed by
    /// reference. `insts` is the committed-instruction count at this
    /// sampling point, forwarded verbatim to the sink.
    ///
    /// # Panics
    ///
    /// Panics under the same shape-change condition as [`Sampler::sample`].
    pub fn sample_into<G: StatGroup + ?Sized>(
        &mut self,
        group: &G,
        insts: u64,
        sink: &mut dyn SampleSink,
    ) {
        self.advance(group);
        sink.on_sample(insts, &self.delta);
    }
}

/// A recorded multi-dimensional time series: one delta row per sampling
/// point, plus the committed-instruction count at each point.
///
/// Storage is columnar-flat: all rows live in one contiguous `Vec<f64>`
/// against the shared [`Schema`], one cache-friendly slab instead of a
/// `Vec` of row allocations.
#[derive(Debug, Clone)]
pub struct SampleTrace {
    schema: Schema,
    values: Vec<f64>,
    insts: Vec<u64>,
}

impl SampleTrace {
    /// Creates an empty trace over `schema`.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            values: Vec::new(),
            insts: Vec::new(),
        }
    }

    /// Appends one sample row taken at `insts` committed instructions.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the schema.
    pub fn push(&mut self, insts: u64, row: &[f64]) {
        assert_eq!(row.len(), self.schema.len(), "row width mismatch");
        self.values.extend_from_slice(row);
        self.insts.push(insts);
    }

    /// The schema of every row.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The `i`-th sample row.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[f64] {
        let w = self.schema.len();
        &self.values[i * w..(i + 1) * w]
    }

    /// Iterates over the sample rows, oldest first.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        (0..self.len()).map(move |i| self.row(i))
    }

    /// The flat columnar value storage (row-major, `len() × schema.len()`).
    pub fn flat_values(&self) -> &[f64] {
        &self.values
    }

    /// Committed-instruction counts aligned with [`SampleTrace::rows`].
    pub fn instruction_counts(&self) -> &[u64] {
        &self.insts
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The column of values for statistic `name` across all samples, if the
    /// statistic exists.
    pub fn column(&self, name: &str) -> Option<Vec<f64>> {
        let i = self.schema.index_of(name)?;
        Some(self.rows().map(|r| r[i]).collect())
    }
}

impl SampleSink for SampleTrace {
    fn on_sample(&mut self, insts: u64, row: &[f64]) {
        self.push(insts, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{stat_group, Counter};

    stat_group! {
        /// Two-counter test group.
        pub struct G {
            /// a.
            pub a: Counter => "a",
            /// b.
            pub b: Counter => "b",
        }
    }

    #[test]
    fn sampler_returns_deltas_not_cumulative() {
        let mut g = G::default();
        g.a.add(10);
        let mut s = Sampler::new(&g, "g");
        g.a.add(5);
        g.b.add(1);
        assert_eq!(s.sample(&g), vec![5.0, 1.0]);
        assert_eq!(s.sample(&g), vec![0.0, 0.0]);
    }

    #[test]
    fn schema_index_lookup() {
        let g = G::default();
        let s = Sampler::new(&g, "g");
        assert_eq!(s.schema().index_of("g.b"), Some(1));
        assert_eq!(s.schema().index_of("g.missing"), None);
        assert_eq!(s.schema().name(0), "g.a");
    }

    #[test]
    fn snapshot_get_is_schema_indexed() {
        let mut g = G::default();
        g.b.add(3);
        let snap = Snapshot::of(&g, "g");
        assert_eq!(snap.get("g.b"), Some(3.0));
        assert_eq!(snap.get("g.a"), Some(0.0));
        assert_eq!(snap.get("nope"), None);
    }

    #[test]
    fn snapshot_with_schema_reuses_resolved_names() {
        let mut g = G::default();
        let schema = Schema::of(&g, "g");
        g.a.add(7);
        let snap = Snapshot::with_schema(&schema, &g);
        assert!(snap.schema().same_as(&schema), "schema storage is shared");
        assert_eq!(snap.get("g.a"), Some(7.0));
    }

    #[test]
    fn sampler_with_schema_shares_it_and_takes_the_current_baseline() {
        let mut g = G::default();
        let schema = Schema::of(&g, "g");
        g.a.add(4);
        let mut s = Sampler::with_schema(schema.clone(), &g);
        assert!(s.schema().same_as(&schema), "schema storage is shared");
        g.b.add(2);
        assert_eq!(s.sample(&g), vec![0.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "does not match schema")]
    fn sampler_with_schema_rejects_a_mismatched_group() {
        let g = G::default();
        let _ = Sampler::with_schema(Schema::from_names(vec!["g.a".into()]), &g);
    }

    #[test]
    fn sampler_emits_into_sink_without_accumulating() {
        let mut g = G::default();
        let mut s = Sampler::new(&g, "g");
        let mut t = SampleTrace::new(s.schema().clone());
        g.a.add(4);
        s.sample_into(&g, 10_000, &mut t);
        g.b.add(9);
        s.sample_into(&g, 20_000, &mut t);
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(0), &[4.0, 0.0]);
        assert_eq!(t.row(1), &[0.0, 9.0]);
        assert_eq!(t.instruction_counts(), &[10_000, 20_000]);
    }

    #[test]
    fn trace_columns() {
        let g = G::default();
        let s = Sampler::new(&g, "g");
        let mut t = SampleTrace::new(s.schema().clone());
        t.push(10_000, &[1.0, 2.0]);
        t.push(20_000, &[3.0, 4.0]);
        assert_eq!(t.column("g.b"), Some(vec![2.0, 4.0]));
        assert_eq!(t.instruction_counts(), &[10_000, 20_000]);
        assert_eq!(t.flat_values(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn trace_rejects_wrong_width() {
        let g = G::default();
        let s = Sampler::new(&g, "g");
        let mut t = SampleTrace::new(s.schema().clone());
        t.push(0, &[1.0]);
    }
}

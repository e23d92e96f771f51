//! Deterministic sensor-fault injection for the streaming pipeline.
//!
//! The paper's resilience argument is that *replicated* detectors over
//! invariant features keep working when individual signals are perturbed.
//! This module makes that claim testable: a seeded [`FaultPlan`] describes
//! sensor-level faults — per-component stat dropout, whole-sample-row
//! drops, value corruption (NaN/∞/saturation) and interval jitter — and a
//! [`FaultySink`] adapter applies them at the [`SampleSink`] boundary,
//! between the simulator's sampler and whatever consumes the rows (a
//! columnar trace, a [`StreamingDetector`](crate::StreamingDetector)).
//!
//! Faults are injected *outside* the simulated machine: the golden-stat
//! bit-identity of the core is untouched, and with a quiet spec
//! ([`FaultSpec::none`]) the adapter is a literal pass-through, so the
//! clean pipeline stays byte-for-byte identical.
//!
//! Determinism: every fault draw comes from an xorshift64* stream seeded
//! by `mix(plan seed, fnv(workload name))`. The stream depends only on
//! the plan seed and the workload's name — never on which thread runs the
//! workload or in what order — so the same seed and spec produce
//! byte-identical faulted corpora across any collection thread count.

use std::sync::Arc;

use uarch_stats::{SampleSink, Schema};

use crate::features::component_of;

/// What sensor faults to inject, and how often.
///
/// All rates are probabilities in `[0, 1]` drawn independently per event
/// (per interval, per component, or per value). A spec with every rate at
/// zero and no jitter is *quiet*: [`FaultySink`] forwards rows untouched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Seed of the fault plan; per-workload streams derive from it.
    pub seed: u64,
    /// Probability, per component per interval, that the component's
    /// counters all read zero for that interval (a dead sensor bank).
    pub component_dropout: f64,
    /// Probability, per interval, that the whole sample row is lost (the
    /// sink never sees it — a dropped telemetry packet).
    pub row_drop: f64,
    /// Probability, per value per interval, that the value is corrupted
    /// to NaN, ±∞ or a saturated counter.
    pub corruption: f64,
    /// Maximum absolute perturbation of the reported committed-instruction
    /// count, in instructions (sampling-clock jitter). Zero disables.
    pub interval_jitter: u64,
}

impl FaultSpec {
    /// The quiet spec: no faults at all. [`FaultySink`] built from this is
    /// a pure pass-through.
    pub fn none() -> Self {
        Self {
            seed: 0,
            component_dropout: 0.0,
            row_drop: 0.0,
            corruption: 0.0,
            interval_jitter: 0,
        }
    }

    /// Whether this spec injects nothing.
    pub fn is_quiet(&self) -> bool {
        self.component_dropout <= 0.0
            && self.row_drop <= 0.0
            && self.corruption <= 0.0
            && self.interval_jitter == 0
    }
}

/// xorshift64* — small, fast, and deterministic. A zero state is remapped
/// (xorshift sticks at zero).
///
/// Public because every deterministic-perturbation layer in the repo
/// draws from the same generator family: the fault plans here, and the
/// service tier's chaos plans and jittered submit backoff
/// (`perspectron-serviced`), which must stay byte-reproducible the same
/// way faulted corpora are.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds a stream (zero is remapped to a fixed odd constant).
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    /// The next 64-bit draw.
    #[allow(clippy::should_implement_trait)] // not an iterator: draws never end
    pub fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform draw in `[0, 1)` (53-bit mantissa).
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw. Always consumes exactly one stream value so the
    /// draw sequence is independent of which faults actually fire.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// The FNV-1a 64 offset basis: the hash of no bytes, where every fold
/// starts.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a 64 state `h`. Start from
/// [`FNV1A_OFFSET`]; folding a byte sequence piece by piece gives the same
/// hash as folding it whole.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer: decorrelates `seed ^ fnv(name)` into a stream
/// seed.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded description of which faults to inject across a corpus.
///
/// The plan itself is tiny (the spec plus a cached component partition of
/// the schema); per-workload [`FaultySink`]s are derived from it via
/// [`FaultPlan::sink_for`], each with its own name-keyed xorshift stream.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultSpec,
    /// Schema columns grouped by owning pipeline component, resolved once.
    components: Arc<Vec<ComponentColumns>>,
}

/// The default plan is quiet: it injects nothing, so it needs no schema.
impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            spec: FaultSpec::none(),
            components: Arc::default(),
        }
    }
}

/// One component's slice of the schema.
#[derive(Debug, Clone)]
struct ComponentColumns {
    label: String,
    columns: Vec<usize>,
}

impl FaultPlan {
    /// Builds a plan over `schema`, partitioning its columns by pipeline
    /// component (the dropout granularity).
    pub fn new(spec: FaultSpec, schema: &Schema) -> Self {
        let mut components: Vec<ComponentColumns> = Vec::new();
        for (i, name) in schema.names().iter().enumerate() {
            let label = component_of(name);
            match components.iter_mut().find(|c| c.label == label) {
                Some(c) => c.columns.push(i),
                None => components.push(ComponentColumns {
                    label: label.to_string(),
                    columns: vec![i],
                }),
            }
        }
        Self {
            spec,
            components: Arc::new(components),
        }
    }

    /// Wraps `inner` in a fault-injecting adapter for the named workload.
    /// The fault stream is keyed by `(plan seed, workload name)` only, so
    /// it is identical regardless of thread count or collection order.
    pub fn sink_for<S: SampleSink>(&self, workload: &str, inner: S) -> FaultySink<S> {
        FaultySink {
            spec: self.spec,
            components: Arc::clone(&self.components),
            rng: XorShift64::new(mix(
                self.spec.seed ^ fnv1a(FNV1A_OFFSET, workload.as_bytes())
            )),
            inner,
            buf: Vec::new(),
            interval: 0,
            log: FaultLog::default(),
        }
    }

    /// Replays an already-collected corpus through this plan's
    /// [`FaultySink`]s, producing the faulted corpus *without* re-running
    /// the simulator: every trace's rows pass through `sink_for(name, …)`
    /// exactly as they would have during collection.
    ///
    /// Because fault streams are keyed by `(plan seed, trace name)` only,
    /// the result is byte-identical to collecting through a
    /// [`Collector`](crate::trace::Collector) with this plan, on the same
    /// clean rows — this is the cheap path for replaying
    /// faulted corpora at fleet scale (the `perspectrond --fault-plan`
    /// story), where the clean corpus already sits on disk.
    pub fn fault_corpus(
        &self,
        corpus: &crate::trace::CollectedCorpus,
    ) -> crate::trace::CollectedCorpus {
        let traces = corpus
            .traces
            .iter()
            .map(|t| {
                let schema = t.trace.schema().clone();
                let width = schema.len();
                let mut sink = self.sink_for(&t.name, uarch_stats::SampleTrace::new(schema));
                let flat = t.trace.flat_values();
                for (j, &at) in t.trace.instruction_counts().iter().enumerate() {
                    sink.on_sample(at, &flat[j * width..(j + 1) * width]);
                }
                crate::trace::LabeledTrace {
                    name: t.name.clone(),
                    class: t.class,
                    family: t.family,
                    trace: sink.into_inner(),
                    marks: t.marks.clone(),
                }
            })
            .collect();
        crate::trace::CollectedCorpus {
            traces,
            sample_interval: corpus.sample_interval,
        }
    }
}

/// What one [`FaultySink`] actually injected, for reporting and for
/// checking degradation surfaces against ground truth.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Sample rows the inner sink never saw.
    pub rows_dropped: usize,
    /// Total component-interval dropout events.
    pub components_dropped: usize,
    /// Total values corrupted to NaN/∞/saturation.
    pub values_corrupted: usize,
    /// Intervals whose reported instruction count was jittered.
    pub intervals_jittered: usize,
    /// Intervals forwarded to the inner sink (dropped rows excluded).
    pub intervals_forwarded: usize,
}

impl FaultLog {
    /// Whether any fault was injected.
    pub fn any(&self) -> bool {
        self.rows_dropped > 0
            || self.components_dropped > 0
            || self.values_corrupted > 0
            || self.intervals_jittered > 0
    }
}

/// A [`SampleSink`] adapter injecting the faults of a [`FaultPlan`] into
/// the row stream before it reaches the wrapped sink.
///
/// Composes with any producer/consumer pair:
/// `Machine::run_with_sink(..., &mut plan.sink_for(name, detector))` scores a
/// degraded sensor stream online; wrapping a
/// [`SampleTrace`](uarch_stats::SampleTrace) collects a faulted corpus.
/// With a quiet spec the adapter forwards the borrowed row untouched — no
/// copy, no RNG draw — so disabled faults cannot perturb the golden path.
#[derive(Debug, Clone)]
pub struct FaultySink<S> {
    spec: FaultSpec,
    components: Arc<Vec<ComponentColumns>>,
    rng: XorShift64,
    inner: S,
    buf: Vec<f64>,
    interval: u64,
    log: FaultLog,
}

impl<S> FaultySink<S> {
    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Consumes the adapter, yielding the wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// What has been injected so far.
    pub fn log(&self) -> &FaultLog {
        &self.log
    }

    /// Picks a corruption payload: the failure modes a real counter bus
    /// exhibits — NaN, ±∞, or a saturated (all-ones) counter.
    fn corrupt_value(rng: &mut XorShift64) -> f64 {
        match rng.next() % 4 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => u64::MAX as f64, // saturated hardware counter
        }
    }
}

impl<S: SampleSink> SampleSink for FaultySink<S> {
    fn on_sample(&mut self, insts: u64, row: &[f64]) {
        self.interval += 1;
        if self.spec.is_quiet() {
            self.log.intervals_forwarded += 1;
            self.inner.on_sample(insts, row);
            return;
        }
        if self.rng.chance(self.spec.row_drop) {
            self.log.rows_dropped += 1;
            return;
        }
        self.buf.clear();
        self.buf.extend_from_slice(row);
        for c in self.components.iter() {
            if self.rng.chance(self.spec.component_dropout) {
                self.log.components_dropped += 1;
                for &i in &c.columns {
                    self.buf[i] = 0.0;
                }
            }
        }
        if self.spec.corruption > 0.0 {
            for i in 0..self.buf.len() {
                if self.rng.chance(self.spec.corruption) {
                    self.buf[i] = Self::corrupt_value(&mut self.rng);
                    self.log.values_corrupted += 1;
                }
            }
        }
        let mut at = insts;
        if self.spec.interval_jitter > 0 {
            let span = 2 * self.spec.interval_jitter + 1;
            let offset = (self.rng.next() % span) as i64 - self.spec.interval_jitter as i64;
            if offset != 0 {
                self.log.intervals_jittered += 1;
            }
            at = insts.saturating_add_signed(offset);
        }
        self.log.intervals_forwarded += 1;
        self.inner.on_sample(at, &self.buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_stats::SampleTrace;

    fn toy_schema() -> Schema {
        Schema::from_names(vec![
            "fetch.Insts".into(),
            "fetch.Cycles".into(),
            "commit.NonSpecStalls".into(),
            "dcache.ReadReq_misses".into(),
        ])
    }

    fn run_rows(plan: &FaultPlan, name: &str, rows: usize) -> SampleTrace {
        let schema = toy_schema();
        let mut sink = plan.sink_for(name, SampleTrace::new(schema.clone()));
        for j in 0..rows {
            let row: Vec<f64> = (0..schema.len()).map(|i| (j * 10 + i) as f64).collect();
            sink.on_sample((j as u64 + 1) * 10_000, &row);
        }
        sink.into_inner()
    }

    #[test]
    fn quiet_spec_is_a_pure_pass_through() {
        let schema = toy_schema();
        let plan = FaultPlan::new(FaultSpec::none(), &schema);
        let faulted = run_rows(&plan, "w", 8);
        let mut clean = SampleTrace::new(schema.clone());
        for j in 0..8usize {
            let row: Vec<f64> = (0..schema.len()).map(|i| (j * 10 + i) as f64).collect();
            clean.push((j as u64 + 1) * 10_000, &row);
        }
        assert_eq!(faulted.flat_values(), clean.flat_values());
        assert_eq!(faulted.instruction_counts(), clean.instruction_counts());
    }

    #[test]
    fn same_seed_same_workload_is_byte_identical() {
        let schema = toy_schema();
        let spec = FaultSpec {
            seed: 7,
            component_dropout: 0.3,
            row_drop: 0.2,
            corruption: 0.1,
            interval_jitter: 500,
        };
        let plan = FaultPlan::new(spec, &schema);
        let a = run_rows(&plan, "w", 50);
        let b = run_rows(&plan, "w", 50);
        assert_eq!(
            a.flat_values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            b.flat_values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
        assert_eq!(a.instruction_counts(), b.instruction_counts());
    }

    #[test]
    fn different_workloads_get_different_fault_streams() {
        let schema = toy_schema();
        let spec = FaultSpec {
            seed: 7,
            row_drop: 0.5,
            ..FaultSpec::none()
        };
        let plan = FaultPlan::new(spec, &schema);
        let a = run_rows(&plan, "alpha", 64);
        let b = run_rows(&plan, "beta", 64);
        assert_ne!(
            a.instruction_counts(),
            b.instruction_counts(),
            "independent streams should drop different rows"
        );
    }

    #[test]
    fn component_dropout_zeroes_whole_components() {
        let schema = toy_schema();
        let spec = FaultSpec {
            seed: 3,
            component_dropout: 1.0, // every component, every interval
            ..FaultSpec::none()
        };
        let plan = FaultPlan::new(spec, &schema);
        let t = run_rows(&plan, "w", 4);
        assert_eq!(t.len(), 4, "dropout never drops rows");
        assert!(t.flat_values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn corruption_injects_non_finite_or_saturated_values() {
        let schema = toy_schema();
        let spec = FaultSpec {
            seed: 11,
            corruption: 1.0,
            ..FaultSpec::none()
        };
        let plan = FaultPlan::new(spec, &schema);
        let t = run_rows(&plan, "w", 16);
        let vals: Vec<f64> = t.flat_values().to_vec();
        assert!(vals.iter().any(|v| !v.is_finite()), "NaN/∞ injected");
        assert!(
            vals.contains(&(u64::MAX as f64)),
            "saturated counters injected"
        );
    }

    #[test]
    fn row_drop_shortens_the_trace_and_is_logged() {
        let schema = toy_schema();
        let spec = FaultSpec {
            seed: 5,
            row_drop: 0.5,
            ..FaultSpec::none()
        };
        let plan = FaultPlan::new(spec, &schema);
        let mut sink = plan.sink_for("w", SampleTrace::new(schema.clone()));
        for j in 0..100u64 {
            sink.on_sample((j + 1) * 10_000, &[1.0, 2.0, 3.0, 4.0]);
        }
        let dropped = sink.log().rows_dropped;
        assert!((20..80).contains(&dropped), "≈half dropped, got {dropped}");
        assert_eq!(sink.log().intervals_forwarded, 100 - dropped);
        assert_eq!(sink.inner().len(), 100 - dropped);
    }

    #[test]
    fn jitter_perturbs_instruction_counts_within_bounds() {
        let schema = toy_schema();
        let spec = FaultSpec {
            seed: 13,
            interval_jitter: 400,
            ..FaultSpec::none()
        };
        let plan = FaultPlan::new(spec, &schema);
        let t = run_rows(&plan, "w", 32);
        let mut moved = 0;
        for (j, &at) in t.instruction_counts().iter().enumerate() {
            let nominal = (j as u64 + 1) * 10_000;
            assert!(at.abs_diff(nominal) <= 400, "jitter bound violated: {at}");
            if at != nominal {
                moved += 1;
            }
        }
        assert!(moved > 0, "some intervals should jitter");
    }

    #[test]
    fn fault_corpus_matches_collect_time_injection_byte_for_byte() {
        use crate::trace::CorpusSpec;
        let mut all = workloads::full_suite();
        all.retain(|w| w.name == "flush-reload" || w.name == "hmmer");
        let spec = CorpusSpec {
            insts_per_workload: 30_000,
            sample_interval: 10_000,
            workloads: all,
        };
        let clean = spec.collect();
        let plan = FaultPlan::new(
            FaultSpec {
                seed: 99,
                component_dropout: 0.2,
                row_drop: 0.1,
                corruption: 0.05,
                interval_jitter: 300,
            },
            clean.schema(),
        );
        let mut collector = crate::trace::Collector {
            faults: plan.clone(),
            ..crate::trace::Collector::default()
        };
        collector.policy.threads = Some(1);
        let at_collect = collector
            .collect(&spec)
            .into_result()
            .expect("collect-time faulted corpus");
        let replayed = plan.fault_corpus(&clean);
        assert_eq!(replayed.traces.len(), at_collect.traces.len());
        for (a, b) in replayed.traces.iter().zip(&at_collect.traces) {
            assert_eq!(a.name, b.name);
            assert_eq!(
                a.trace
                    .flat_values()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                b.trace
                    .flat_values()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "{}: corpus-replay faulting drifted from collect-time faulting",
                a.name
            );
            assert_eq!(a.trace.instruction_counts(), b.trace.instruction_counts());
        }
    }

    #[test]
    fn plan_partitions_schema_by_component() {
        let plan = FaultPlan::new(FaultSpec::none(), &toy_schema());
        let labels: Vec<&str> = plan.components.iter().map(|c| c.label.as_str()).collect();
        assert!(labels.contains(&"fetch"));
        assert!(labels.contains(&"commit"));
        assert!(labels.contains(&"dcache"));
        assert_eq!(labels.len(), 3, "fetch columns share one component");
    }
}

//! The fault-injection suite: the robustness acceptance bar for the
//! streaming pipeline.
//!
//! Three properties are enforced here, end to end:
//!
//! 1. **Determinism** — a [`FaultPlan`] keys every workload's fault stream
//!    on `(plan seed, workload name)` only, so a faulted corpus is
//!    byte-identical no matter how many collection threads ran.
//! 2. **Containment** — a workload that deadlocks (or panics) is
//!    quarantined with a typed error by the resilient collector; the rest
//!    of the corpus survives, nothing aborts, nothing hangs.
//! 3. **Graceful degradation** — the online detector never panics and
//!    never emits a non-finite confidence, whatever the fault plan throws
//!    at it; degraded windows are flagged, not silently misscored.

use proptest::prelude::*;

use perspectron::{
    CollectedCorpus, Collector, CorpusSpec, FaultPlan, FaultSpec, PerSpectron, ResiliencePolicy,
    Run,
};
use sim_cpu::SimError;
use uarch_isa::{Assembler, Reg};
use workloads::{Class, Family, Workload};

/// A two-workload spec small enough to collect several times per test.
fn tiny_spec() -> CorpusSpec {
    let mut all = workloads::full_suite();
    all.retain(|w| w.name == "flush-reload" || w.name == "hmmer");
    CorpusSpec {
        insts_per_workload: 30_000,
        sample_interval: 10_000,
        workloads: all,
    }
}

/// A runaway program: an endless flush+reload self-loop that pays a full
/// memory miss every iteration (~22 cycles/instruction — an order of
/// magnitude over any healthy workload in the suite) and never halts.
/// Within a per-workload cycle budget sized for healthy workloads, only
/// the watchdog can stop it.
fn wedged_workload() -> Workload {
    let mut a = Assembler::new("wedged-forever");
    a.data(0x1000, vec![0u8; 64]);
    a.li(Reg::R2, 0x1000);
    let top = a.label();
    a.bind(top);
    a.flush(Reg::R2, 0);
    a.load(Reg::R1, Reg::R2, 0);
    a.jmp(top);
    let program = a.finish().expect("wedge program assembles");
    Workload {
        name: "wedged-forever".into(),
        class: Class::Benign,
        family: Family::Benign,
        program,
    }
}

/// Collects `spec` through `plan` on `threads` workers, clean otherwise.
fn collect_faulted(spec: &CorpusSpec, plan: &FaultPlan, threads: usize) -> CollectedCorpus {
    let mut collector = Collector {
        faults: plan.clone(),
        ..Collector::default()
    };
    collector.policy.threads = Some(threads);
    collector
        .collect(spec)
        .into_result()
        .expect("faulted collection")
}

/// Bitwise value comparison: corrupted traces legitimately contain NaN,
/// which `==` would call unequal even when the bytes match.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_corpora_byte_equal(a: &CollectedCorpus, b: &CollectedCorpus, what: &str) {
    assert_eq!(a.traces.len(), b.traces.len(), "{what}: trace count");
    for (ta, tb) in a.traces.iter().zip(&b.traces) {
        assert_eq!(ta.name, tb.name, "{what}: order");
        assert_eq!(
            bits(ta.trace.flat_values()),
            bits(tb.trace.flat_values()),
            "{what}: values of {}",
            ta.name
        );
        assert_eq!(
            ta.trace.instruction_counts(),
            tb.trace.instruction_counts(),
            "{what}: instruction counts of {}",
            ta.name
        );
        assert_eq!(ta.marks, tb.marks, "{what}: marks of {}", ta.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Same plan, any thread count: byte-identical faulted corpora.
    #[test]
    fn faulted_collection_is_thread_count_independent(
        seed in 0u64..u64::MAX,
        dropout in 0.0f64..0.3,
        row_drop in 0.0f64..0.2,
        corruption in 0.0f64..0.1,
        jitter in 0u64..500,
    ) {
        let spec = tiny_spec();
        let clean = spec.collect();
        let plan = FaultPlan::new(
            FaultSpec {
                seed,
                component_dropout: dropout,
                row_drop,
                corruption,
                interval_jitter: jitter,
            },
            clean.schema(),
        );
        let one = collect_faulted(&spec, &plan, 1);
        let two = collect_faulted(&spec, &plan, 2);
        let four = collect_faulted(&spec, &plan, 4);
        assert_corpora_byte_equal(&one, &two, "1 vs 2 threads");
        assert_corpora_byte_equal(&one, &four, "1 vs 4 threads");
    }

    /// No fault plan can make the online detector panic or emit a
    /// non-finite confidence; degraded windows are flagged as such.
    #[test]
    fn detector_confidences_stay_finite_under_any_fault_plan(
        seed in 0u64..u64::MAX,
        dropout in 0.0f64..0.9,
        corruption in 0.0f64..0.9,
    ) {
        let spec = tiny_spec();
        let corpus = spec.collect();
        let detector = PerSpectron::train(&corpus, 42);
        let plan = FaultPlan::new(
            FaultSpec {
                seed,
                component_dropout: dropout,
                row_drop: 0.1,
                corruption,
                interval_jitter: 1_000,
            },
            corpus.schema(),
        );
        for w in &spec.workloads {
            let mut sink = plan.sink_for(&w.name, detector.streaming_packed());
            Collector::default()
        .stream(Run::workload(w, spec.insts_per_workload, spec.sample_interval), &mut sink)
        .expect("simulation streams");
            let monitor = sink.into_inner();
            for v in monitor.verdicts() {
                prop_assert!(
                    v.confidence.is_finite(),
                    "{}: non-finite confidence at {} insts",
                    w.name,
                    v.at_inst
                );
                prop_assert!((-1.0..=1.0).contains(&v.confidence));
            }
        }
    }
}

/// A workload that never halts is cut off by the cycle budget and lands in
/// quarantine with a typed error; the healthy workloads still collect.
/// The whole test completing is itself the no-hang assertion.
#[test]
fn infinite_loop_workload_is_quarantined_not_hung() {
    let mut spec = tiny_spec();
    spec.workloads.insert(1, wedged_workload());
    let collector = Collector {
        policy: ResiliencePolicy {
            threads: Some(2),
            cycle_budget: Some(400_000),
            max_attempts: 2,
        },
        ..Collector::default()
    };
    let result = collector.collect(&spec);
    assert!(!result.is_complete());
    assert_eq!(result.corpus.traces.len(), 2, "healthy workloads survive");
    assert!(result
        .corpus
        .traces
        .iter()
        .all(|t| t.name != "wedged-forever"));
    assert_eq!(result.failures.len(), 1);
    let failure = &result.failures[0];
    assert_eq!(failure.name, "wedged-forever");
    assert_eq!(failure.attempts, 2, "the watchdog fires on the retry too");
    assert!(
        matches!(
            failure.error,
            SimError::CycleBudgetExceeded {
                budget: 400_000,
                ..
            }
        ),
        "got: {}",
        failure.error
    );
    // The partial corpus is still trainable.
    let detector = PerSpectron::train(&result.corpus, 42);
    let report = detector.evaluate(&result.corpus);
    assert!(report.confusion.accuracy() > 0.5);
}

/// A budget does not fire on healthy workloads: the full corpus collects,
/// quarantine stays empty, and the supervised corpus is byte-equal to the
/// clean one.
#[test]
fn cycle_budget_leaves_healthy_workloads_alone() {
    let spec = tiny_spec();
    let collector = Collector {
        policy: ResiliencePolicy {
            threads: Some(2),
            cycle_budget: Some(100_000_000),
            ..ResiliencePolicy::default()
        },
        ..Collector::default()
    };
    let result = collector.collect(&spec);
    assert!(result.is_complete(), "{}", result.quarantine_summary());
    assert_eq!(result.corpus.traces.len(), 2);
    assert_corpora_byte_equal(&spec.collect(), &result.corpus, "budgeted vs clean");
}

/// With the quiet spec, the entire faulted path — sink adapter included —
/// is bit-identical to the plain collector, and a detector streamed
/// through a quiet [`perspectron::FaultySink`] produces verdicts
/// bit-identical to the bare streaming detector.
#[test]
fn quiet_fault_plan_is_bit_identical_end_to_end() {
    let spec = tiny_spec();
    let clean = spec.collect();
    let plan = FaultPlan::new(FaultSpec::none(), clean.schema());
    let faulted = collect_faulted(&spec, &plan, 2);
    assert_corpora_byte_equal(&clean, &faulted, "quiet plan vs clean");

    let detector = PerSpectron::train(&clean, 42);
    let w = &spec.workloads[0];
    let mut bare = detector.streaming_packed();
    Collector::default()
        .stream(
            Run::workload(w, spec.insts_per_workload, spec.sample_interval),
            &mut bare,
        )
        .expect("simulation streams");
    let mut wrapped = plan.sink_for(&w.name, detector.streaming_packed());
    Collector::default()
        .stream(
            Run::workload(w, spec.insts_per_workload, spec.sample_interval),
            &mut wrapped,
        )
        .expect("simulation streams");
    assert!(!wrapped.log().any(), "quiet plan must log no faults");
    let wrapped = wrapped.into_inner();
    assert_eq!(bare.verdicts(), wrapped.verdicts());
    assert!(bare.verdicts().iter().all(|v| v.degraded.is_none()));
}

/// Heavy dropout is visible: the detector reports degraded intervals with
/// the dead components named, instead of silently scoring garbage.
#[test]
fn heavy_dropout_surfaces_degraded_intervals() {
    let spec = tiny_spec();
    let corpus = spec.collect();
    let detector = PerSpectron::train(&corpus, 42);
    let plan = FaultPlan::new(
        FaultSpec {
            seed: 7,
            component_dropout: 0.9,
            row_drop: 0.0,
            corruption: 0.3,
            interval_jitter: 0,
        },
        corpus.schema(),
    );
    let w = &spec.workloads[0];
    let mut sink = plan.sink_for(&w.name, detector.streaming_packed());
    Collector::default()
        .stream(
            Run::workload(w, spec.insts_per_workload, spec.sample_interval),
            &mut sink,
        )
        .expect("simulation streams");
    assert!(sink.log().any(), "a 90% dropout plan must actually fire");
    let monitor = sink.into_inner();
    assert!(
        monitor.degraded_intervals() > 0,
        "dropout this heavy must be flagged"
    );
    let flagged = monitor
        .verdicts()
        .iter()
        .filter_map(|v| v.degraded.as_ref())
        .any(|d| !d.missing_components.is_empty() || d.sanitized_values > 0);
    assert!(flagged, "degraded status must carry detail");
}

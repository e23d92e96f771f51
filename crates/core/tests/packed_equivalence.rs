//! Packed/scalar inference equivalence: the bit-packed fast path must be
//! a pure refactoring of the dense `f64` reference path — every verdict,
//! every confidence bit, and every `Degraded` flag identical — over real
//! corpora, heavily faulted corpora, and proptest-random inputs.
//!
//! The equivalence claimed here is *bitwise*, not approximate: because
//! binarized inputs are exactly 0.0/1.0, the packed engine's sparse
//! gather reproduces the dense IEEE-754 dot product bit for bit, so
//! `to_bits()` comparison is the assertion throughout.

use std::sync::OnceLock;

use proptest::prelude::*;

use mlkit::{BitRow, Classifier, PackedPerceptron, Perceptron};
use perspectron::{
    CollectedCorpus, Collector, CorpusSpec, Dataset, Encoding, FaultPlan, FaultSpec, InferencePath,
    PerSpectron, Run, StreamingDetector,
};
use uarch_stats::SampleSink;

/// A two-workload spec (one attack, one benign) small enough to collect
/// once and share across every test in the suite.
fn tiny_spec() -> CorpusSpec {
    let mut all = workloads::full_suite();
    all.retain(|w| w.name == "flush-reload" || w.name == "hmmer");
    CorpusSpec {
        insts_per_workload: 60_000,
        sample_interval: 10_000,
        workloads: all,
    }
}

fn corpus() -> &'static CollectedCorpus {
    static C: OnceLock<CollectedCorpus> = OnceLock::new();
    C.get_or_init(|| tiny_spec().collect())
}

fn detector() -> &'static PerSpectron {
    static D: OnceLock<PerSpectron> = OnceLock::new();
    D.get_or_init(|| PerSpectron::train(corpus(), 42))
}

/// Bitwise equality of two verdict streams: confidence bits, suspicious
/// flags, instruction counts, and full `Degraded` payloads.
fn assert_verdicts_bit_equal(scalar: &StreamingDetector, packed: &StreamingDetector, what: &str) {
    let (a, b) = (scalar.verdicts(), packed.verdicts());
    assert_eq!(a.len(), b.len(), "{what}: verdict counts differ");
    for (i, (va, vb)) in a.iter().zip(b).enumerate() {
        assert_eq!(va.at_inst, vb.at_inst, "{what}: interval {i} timestamps");
        assert_eq!(
            va.confidence.to_bits(),
            vb.confidence.to_bits(),
            "{what}: interval {i} confidence {} vs {}",
            va.confidence,
            vb.confidence
        );
        assert_eq!(
            va.suspicious, vb.suspicious,
            "{what}: interval {i} verdict flipped"
        );
        assert_eq!(
            va.degraded, vb.degraded,
            "{what}: interval {i} degradation accounting diverged"
        );
    }
}

#[test]
fn confidence_series_is_bit_identical_on_a_real_corpus() {
    let det = detector();
    for t in &corpus().traces {
        let scalar = det.confidence_series_via(t, InferencePath::Scalar);
        let packed = det.confidence_series_via(t, InferencePath::Packed);
        assert_eq!(scalar.len(), packed.len());
        for (j, (a, b)) in scalar.iter().zip(&packed).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} sample {j}: packed confidence {b} != scalar {a}",
                t.name
            );
        }
    }
}

#[test]
fn evaluate_via_produces_identical_reports() {
    let det = detector();
    let scalar = det.evaluate_via(corpus(), InferencePath::Scalar);
    let packed = det.evaluate_via(corpus(), InferencePath::Packed);
    assert_eq!(scalar.confusion.tp, packed.confusion.tp);
    assert_eq!(scalar.confusion.fp, packed.confusion.fp);
    assert_eq!(scalar.confusion.tn, packed.confusion.tn);
    assert_eq!(scalar.confusion.fn_, packed.confusion.fn_);
    assert_eq!(
        scalar.false_positive_workloads,
        packed.false_positive_workloads
    );
    assert_eq!(
        scalar.false_negative_workloads,
        packed.false_negative_workloads
    );
}

#[test]
fn streaming_packed_matches_streaming_scalar_on_clean_runs() {
    let det = detector();
    let spec = tiny_spec();
    for w in &spec.workloads {
        let mut scalar = det.streaming();
        let mut packed = det.streaming_packed();
        assert_eq!(scalar.inference_path(), InferencePath::Scalar);
        assert_eq!(packed.inference_path(), InferencePath::Packed);
        Collector::default()
            .stream(
                Run::workload(w, spec.insts_per_workload, spec.sample_interval),
                &mut scalar,
            )
            .expect("simulation streams");
        Collector::default()
            .stream(
                Run::workload(w, spec.insts_per_workload, spec.sample_interval),
                &mut packed,
            )
            .expect("simulation streams");
        packed.flush();
        assert_eq!(packed.pending_intervals(), 0, "flush drains the batch");
        assert_verdicts_bit_equal(&scalar, &packed, &w.name);
    }
}

#[test]
fn packed_path_batches_and_flush_is_idempotent() {
    let det = detector();
    let mut packed = det.streaming_packed();
    let width = det.schema().len();
    let row = vec![1.0; width];
    // 70 windows: one auto-flushed batch of 64 plus 6 pending.
    for i in 0..70u64 {
        packed.on_sample((i + 1) * 10_000, &row);
    }
    assert_eq!(packed.verdicts().len(), 64, "first batch auto-flushes");
    assert_eq!(packed.pending_intervals(), 6);
    packed.flush();
    assert_eq!(packed.verdicts().len(), 70);
    packed.flush();
    assert_eq!(packed.verdicts().len(), 70, "flush on empty is a no-op");
    // Same stream through the scalar sink: the batching must not have
    // changed a single verdict bit (the encoding varies per sampling
    // point, so this covers 70 distinct max-matrix columns).
    let mut scalar = det.streaming();
    for i in 0..70u64 {
        scalar.on_sample((i + 1) * 10_000, &row);
    }
    assert_verdicts_bit_equal(&scalar, &packed, "fixed-row stream");
}

#[test]
fn reset_clears_the_pending_batch() {
    let det = detector();
    let mut packed = det.streaming_packed();
    let row = vec![1.0; det.schema().len()];
    packed.on_sample(10_000, &row);
    assert_eq!(packed.pending_intervals(), 1);
    packed.reset();
    assert_eq!(packed.pending_intervals(), 0);
    packed.flush();
    assert!(packed.verdicts().is_empty(), "reset discards unscored rows");
}

#[test]
fn heavy_faults_degrade_both_paths_identically() {
    let det = detector();
    let spec = tiny_spec();
    // The PR 5 resilience bar: heavy dropout plus corruption, deterministic
    // per workload. Both sinks see the same faulted stream and must agree
    // on every verdict and every Degraded payload.
    let plan = FaultPlan::new(
        FaultSpec {
            seed: 7,
            component_dropout: 0.9,
            row_drop: 0.1,
            corruption: 0.3,
            interval_jitter: 500,
        },
        corpus().schema(),
    );
    for w in &spec.workloads {
        let mut scalar = plan.sink_for(&w.name, det.streaming());
        let mut packed = plan.sink_for(&w.name, det.streaming_packed());
        Collector::default()
            .stream(
                Run::workload(w, spec.insts_per_workload, spec.sample_interval),
                &mut scalar,
            )
            .expect("simulation streams");
        Collector::default()
            .stream(
                Run::workload(w, spec.insts_per_workload, spec.sample_interval),
                &mut packed,
            )
            .expect("simulation streams");
        let scalar = scalar.into_inner();
        let mut packed = packed.into_inner();
        packed.flush();
        assert!(
            scalar.degraded_intervals() > 0,
            "{}: a 90% dropout plan must degrade something",
            w.name
        );
        assert_verdicts_bit_equal(&scalar, &packed, &w.name);
    }
}

#[test]
fn all_degraded_rows_agree_between_paths() {
    let det = detector();
    let width = det.schema().len();
    // Every value non-finite: the scalar path sanitizes all of them to
    // zero; the packed path masks every projected lane invalid. Both must
    // report the same confidence and the same sanitized_values count.
    let poison: Vec<f64> = (0..width)
        .map(|i| if i % 2 == 0 { f64::NAN } else { f64::INFINITY })
        .collect();
    let dead = vec![0.0; width];
    let mut scalar = det.streaming();
    let mut packed = det.streaming_packed();
    for sink in [&mut scalar, &mut packed] {
        sink.on_sample(10_000, &poison);
        sink.on_sample(20_000, &dead);
    }
    packed.flush();
    assert_verdicts_bit_equal(&scalar, &packed, "all-degraded rows");
    let d = scalar.verdicts()[0]
        .degraded
        .as_ref()
        .expect("poison row degrades");
    assert_eq!(d.sanitized_values, width);
    assert!(scalar.verdicts()[1]
        .degraded
        .as_ref()
        .expect("dead row degrades")
        .missing_components
        .contains(&"cpu".to_string()));
}

#[test]
fn dataset_packed_rows_reproduce_scalar_scores_in_batch() {
    let det = detector();
    let ds = Dataset::from_corpus(corpus(), Encoding::KSparse);
    let selected = &det.selection().selected;
    let batch = ds.packed_rows(selected);
    assert_eq!(batch.len(), ds.len());
    let engine = det.packed_perceptron();
    let mut scores = Vec::new();
    engine.score_rows(&batch, &mut scores);
    for (i, (s, raw)) in ds.samples.iter().zip(&scores).enumerate() {
        let projected: Vec<f64> = selected.iter().map(|&c| s.x[c]).collect();
        assert_eq!(
            raw.to_bits(),
            det.perceptron().score(&projected).to_bits(),
            "sample {i}: batched packed score diverged"
        );
    }
}

#[test]
fn quantized_popcount_agrees_with_the_sequential_adder_on_real_samples() {
    let det = detector();
    let engine = det.packed_perceptron();
    let packed_encoder = det.packed_encoder();
    let full_encoder = det.input_encoder();
    for t in &corpus().traces {
        for (p, raw) in t.trace.rows().enumerate() {
            let row = packed_encoder.encode_bits(raw, p);
            let full = full_encoder.encode(raw, p);
            assert_eq!(
                engine.predict_quantized(&row),
                det.is_suspicious_quantized(&full),
                "{} point {p}: quantized engines disagree",
                t.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any width (tails included), any weights, any 0/1/non-finite input:
    /// the packed engine scores bit-identically to the dense perceptron
    /// scoring the sanitized row.
    #[test]
    fn packed_scores_match_scalar_for_random_rows(
        width in 1usize..200,
        seed in 0u64..u64::MAX,
    ) {
        let mut s = seed.max(1);
        let mut next = move || {
            // xorshift64* — the repo's stock deterministic generator.
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            s.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let weights: Vec<f64> = (0..width)
            .map(|_| (next() % 2000) as f64 / 100.0 - 10.0)
            .collect();
        let bias = (next() % 500) as f64 / 100.0 - 2.5;
        let mut p = Perceptron::new(width);
        p.set_weights(weights, bias).unwrap();
        let packed = PackedPerceptron::from_perceptron(&p);
        for _ in 0..16 {
            let dense: Vec<f64> = (0..width)
                .map(|_| match next() % 5 {
                    0 | 1 => 1.0,
                    2 => 0.0,
                    3 => f64::NAN,
                    _ => f64::INFINITY,
                })
                .collect();
            let row = BitRow::from_f64(&dense);
            let sanitized: Vec<f64> = dense
                .iter()
                .map(|&v| if v.is_finite() { v } else { 0.0 })
                .collect();
            prop_assert_eq!(
                packed.score_bits(&row).to_bits(),
                p.score(&sanitized).to_bits(),
                "width {}: packed score diverged",
                width
            );
            prop_assert_eq!(packed.predict_bits(&row), p.predict(&sanitized));
        }
    }

    /// Any fault plan — heavy dropout and corruption included — leaves
    /// the two streaming paths in bit-identical agreement, verdicts and
    /// Degraded payloads alike.
    #[test]
    fn faulted_streams_agree_between_paths(
        seed in 0u64..u64::MAX,
        dropout in 0.0f64..0.9,
        corruption in 0.0f64..0.9,
    ) {
        let det = detector();
        let spec = tiny_spec();
        let plan = FaultPlan::new(
            FaultSpec {
                seed,
                component_dropout: dropout,
                row_drop: 0.1,
                corruption,
                interval_jitter: 1_000,
            },
            corpus().schema(),
        );
        let w = &spec.workloads[0];
        let mut scalar = plan.sink_for(&w.name, det.streaming());
        let mut packed = plan.sink_for(&w.name, det.streaming_packed());
        Collector::default()
        .stream(Run::workload(w, spec.insts_per_workload, spec.sample_interval), &mut scalar)
        .expect("simulation streams");
        Collector::default()
        .stream(Run::workload(w, spec.insts_per_workload, spec.sample_interval), &mut packed)
        .expect("simulation streams");
        let scalar = scalar.into_inner();
        let mut packed = packed.into_inner();
        packed.flush();
        let (a, b) = (scalar.verdicts(), packed.verdicts());
        prop_assert_eq!(a.len(), b.len());
        for (va, vb) in a.iter().zip(b) {
            prop_assert_eq!(va.confidence.to_bits(), vb.confidence.to_bits());
            prop_assert_eq!(va.suspicious, vb.suspicious);
            prop_assert_eq!(&va.degraded, &vb.degraded);
        }
    }
}

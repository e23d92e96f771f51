//! Packed inference against a dense `f64` oracle: the bit-packed engine,
//! the one scorer the detector ships, must reproduce the dense reference
//! scorer it replaced — every verdict, every confidence bit, and every
//! `Degraded` flag identical — over real corpora, heavily faulted
//! corpora, and proptest-random inputs.
//!
//! The oracle lives in this file and shares no scoring code with the
//! crate: it sanitizes each raw row, runs the dropout check itself,
//! encodes at full schema width into dense `f64`s, projects onto the
//! selected features, takes the dense dot product with the trained
//! perceptron, and normalizes by |w|₁ + |b|.
//!
//! The equivalence claimed here is *bitwise*, not approximate: because
//! binarized inputs are exactly 0.0/1.0, the packed engine's sparse
//! gather reproduces the dense IEEE-754 dot product bit for bit, so
//! `to_bits()` comparison is the assertion throughout.

use std::sync::OnceLock;

use proptest::prelude::*;

use mlkit::{confusion, BitRow, Classifier, PackedPerceptron, Perceptron};
use perspectron::{
    component_of, CollectedCorpus, Collector, CorpusSpec, Dataset, Degraded, Encoding, FaultPlan,
    FaultSpec, IntervalVerdict, LabeledTrace, PerSpectron, RowEncoder, Run,
};
use uarch_stats::SampleSink;
use workloads::Class;

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

/// The dropout watchlist derived the way training derives it: components
/// that never read all-zero in the training corpus, with their columns.
fn watchlist() -> &'static Vec<(String, Vec<usize>)> {
    static W: OnceLock<Vec<(String, Vec<usize>)>> = OnceLock::new();
    W.get_or_init(|| {
        let names = corpus().schema().names();
        Dataset::from_corpus(corpus(), Encoding::KSparse)
            .always_active_components
            .into_iter()
            .map(|label| {
                let cols = (0..names.len())
                    .filter(|&i| component_of(&names[i]) == label)
                    .collect();
                (label, cols)
            })
            .collect()
    })
}

/// The dense reference scorer as a streaming sink.
struct DenseOracle {
    det: &'static PerSpectron,
    encoder: RowEncoder,
    norm: f64,
    point: usize,
    encoded: Vec<f64>,
    verdicts: Vec<IntervalVerdict>,
}

impl DenseOracle {
    fn new(det: &'static PerSpectron) -> Self {
        let p = det.perceptron();
        let norm = p.weights().iter().map(|w| w.abs()).sum::<f64>() + p.bias().abs();
        Self {
            det,
            encoder: det.input_encoder(),
            norm: norm.max(1e-12),
            point: 0,
            encoded: Vec::new(),
            verdicts: Vec::new(),
        }
    }

    fn confidences(&self) -> Vec<f64> {
        self.verdicts.iter().map(|v| v.confidence).collect()
    }
}

impl SampleSink for DenseOracle {
    fn on_sample(&mut self, insts: u64, row: &[f64]) {
        let sanitized_values = row.iter().filter(|v| !v.is_finite()).count();
        let raw: Vec<f64> = row
            .iter()
            .map(|&v| if v.is_finite() { v } else { 0.0 })
            .collect();
        let missing_components: Vec<String> = watchlist()
            .iter()
            .filter(|(_, cols)| cols.iter().all(|&i| raw[i] == 0.0))
            .map(|(label, _)| label.clone())
            .collect();
        let degraded =
            (!missing_components.is_empty() || sanitized_values > 0).then_some(Degraded {
                missing_components,
                sanitized_values,
            });
        self.encoder
            .encode_into(&raw, self.point, &mut self.encoded);
        self.point += 1;
        let projected: Vec<f64> = self
            .det
            .selection()
            .selected
            .iter()
            .map(|&i| self.encoded[i])
            .collect();
        let score = self.det.perceptron().score(&projected) / self.norm;
        let confidence = if score.is_finite() { score } else { 0.0 };
        self.verdicts.push(IntervalVerdict {
            at_inst: insts,
            confidence,
            suspicious: confidence >= self.det.threshold,
            degraded,
        });
    }
}

/// The oracle's confidence series over a collected trace.
fn dense_series(trace: &LabeledTrace) -> Vec<f64> {
    let mut oracle = DenseOracle::new(detector());
    for (row, &at) in trace.trace.rows().zip(trace.trace.instruction_counts()) {
        oracle.on_sample(at, row);
    }
    oracle.confidences()
}

/// Runs one workload of the tiny spec through a sink.
fn stream_into(w: &workloads::Workload, sink: &mut dyn SampleSink) {
    let spec = tiny_spec();
    Collector::default()
        .stream(
            Run::workload(w, spec.insts_per_workload, spec.sample_interval),
            sink,
        )
        .expect("simulation streams");
}

/// Bitwise equality of two verdict streams: confidence bits, suspicious
/// flags, instruction counts, and full `Degraded` payloads.
fn assert_verdicts_bit_equal(oracle: &[IntervalVerdict], packed: &[IntervalVerdict], what: &str) {
    assert_eq!(oracle.len(), packed.len(), "{what}: verdict counts differ");
    for (i, (va, vb)) in oracle.iter().zip(packed).enumerate() {
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
fn confidence_series_is_bit_identical_to_the_dense_oracle() {
    let det = detector();
    for t in &corpus().traces {
        let dense = dense_series(t);
        let packed = det.confidence_series(t);
        assert_eq!(dense.len(), packed.len());
        for (j, (a, b)) in dense.iter().zip(&packed).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} sample {j}: packed confidence {b} != dense {a}",
                t.name
            );
        }
    }
}

#[test]
fn evaluate_reports_what_the_dense_oracle_reports() {
    let det = detector();
    let report = det.evaluate(corpus());
    let (mut predicted, mut truth) = (Vec::new(), Vec::new());
    let (mut fp, mut fneg) = (Vec::new(), Vec::new());
    for t in &corpus().traces {
        let label = if t.class == Class::Malicious { 1i8 } else { -1 };
        for c in dense_series(t) {
            let p = if c >= det.threshold { 1i8 } else { -1 };
            predicted.push(p);
            truth.push(label);
            if p > label {
                fp.push(t.name.clone());
            }
            if p < label {
                fneg.push(t.name.clone());
            }
        }
    }
    for names in [&mut fp, &mut fneg] {
        names.sort();
        names.dedup();
    }
    let dense = confusion(&predicted, &truth);
    assert_eq!(report.confusion.tp, dense.tp);
    assert_eq!(report.confusion.fp, dense.fp);
    assert_eq!(report.confusion.tn, dense.tn);
    assert_eq!(report.confusion.fn_, dense.fn_);
    assert_eq!(report.false_positive_workloads, fp);
    assert_eq!(report.false_negative_workloads, fneg);
}

#[test]
fn streaming_sink_matches_the_dense_oracle_on_clean_runs() {
    let det = detector();
    for w in &tiny_spec().workloads {
        let mut oracle = DenseOracle::new(det);
        let mut packed = det.streaming_packed();
        stream_into(w, &mut oracle);
        stream_into(w, &mut packed);
        assert_verdicts_bit_equal(&oracle.verdicts, packed.verdicts(), &w.name);
    }
}

#[test]
fn a_fixed_row_matches_the_oracle_at_every_sampling_point() {
    // The encoding varies per sampling point, so one row replayed 70 times
    // covers 70 distinct max-matrix columns (and the horizon fallback).
    let det = detector();
    let row = vec![1.0; det.schema().len()];
    let mut oracle = DenseOracle::new(det);
    let mut packed = det.streaming_packed();
    for i in 0..70u64 {
        oracle.on_sample((i + 1) * 10_000, &row);
        packed.on_sample((i + 1) * 10_000, &row);
        assert_eq!(
            packed.verdicts().len(),
            i as usize + 1,
            "each verdict is recorded as its window closes"
        );
    }
    assert_verdicts_bit_equal(&oracle.verdicts, packed.verdicts(), "fixed-row stream");
}

#[test]
fn heavy_faults_degrade_the_sink_and_the_oracle_identically() {
    let det = detector();
    // The resilience bar: heavy dropout plus corruption, deterministic
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
    for w in &tiny_spec().workloads {
        let mut oracle = plan.sink_for(&w.name, DenseOracle::new(det));
        let mut packed = plan.sink_for(&w.name, det.streaming_packed());
        stream_into(w, &mut oracle);
        stream_into(w, &mut packed);
        let (oracle, packed) = (oracle.into_inner(), packed.into_inner());
        assert!(
            packed.degraded_intervals() > 0,
            "{}: a 90% dropout plan must degrade something",
            w.name
        );
        assert_verdicts_bit_equal(&oracle.verdicts, packed.verdicts(), &w.name);
    }
}

#[test]
fn all_degraded_rows_agree_with_the_oracle() {
    let det = detector();
    let width = det.schema().len();
    // Every value non-finite: both sanitize all of them to zero and must
    // report the same confidence and the same sanitized_values count.
    let poison: Vec<f64> = (0..width)
        .map(|i| if i % 2 == 0 { f64::NAN } else { f64::INFINITY })
        .collect();
    let dead = vec![0.0; width];
    let mut oracle = DenseOracle::new(det);
    let mut packed = det.streaming_packed();
    for (at, row) in [(10_000, &poison), (20_000, &dead)] {
        oracle.on_sample(at, row);
        packed.on_sample(at, row);
    }
    assert_verdicts_bit_equal(&oracle.verdicts, packed.verdicts(), "all-degraded rows");
    let v = packed.verdicts();
    let d = v[0].degraded.as_ref().expect("poison row degrades");
    assert_eq!(d.sanitized_values, width);
    assert!(v[1]
        .degraded
        .as_ref()
        .expect("dead row degrades")
        .missing_components
        .contains(&"cpu".to_string()));
}

#[test]
fn dataset_packed_rows_reproduce_dense_scores_in_batch() {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any width (tails included), any weights, any 0/1/non-finite input:
    /// the packed engine scores bit-identically to the dense perceptron
    /// scoring the sanitized row.
    #[test]
    fn packed_scores_match_dense_for_random_rows(
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
        }
    }

    /// Any fault plan — heavy dropout and corruption included — leaves
    /// the streaming sink in bit-identical agreement with the oracle,
    /// verdicts and Degraded payloads alike.
    #[test]
    fn faulted_streams_agree_with_the_oracle(
        seed in 0u64..u64::MAX,
        dropout in 0.0f64..0.9,
        corruption in 0.0f64..0.9,
    ) {
        let det = detector();
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
        let w = &tiny_spec().workloads[0];
        let mut oracle = plan.sink_for(&w.name, DenseOracle::new(det));
        let mut packed = plan.sink_for(&w.name, det.streaming_packed());
        stream_into(w, &mut oracle);
        stream_into(w, &mut packed);
        let (oracle, packed) = (oracle.into_inner(), packed.into_inner());
        let (a, b) = (&oracle.verdicts, packed.verdicts());
        prop_assert_eq!(a.len(), b.len());
        for (va, vb) in a.iter().zip(b) {
            prop_assert_eq!(va.at_inst, vb.at_inst);
            prop_assert_eq!(va.confidence.to_bits(), vb.confidence.to_bits());
            prop_assert_eq!(va.suspicious, vb.suspicious);
            prop_assert_eq!(&va.degraded, &vb.degraded);
        }
    }
}

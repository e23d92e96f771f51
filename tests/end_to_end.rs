//! Cross-crate integration: the full pipeline from workload assembly
//! through simulation, trace collection, feature selection, training and
//! held-out-attack detection.

use std::sync::OnceLock;

use perspectron::dataset::Encoding;
use perspectron::{
    paper_folds, CorpusSpec, Dataset, FeatureSelection, PerSpectron, SelectionConfig,
};
use perspectron_repro::mlkit::Classifier;
use uarch_stats::SampleSink;
use workloads::{Class, Family};

fn corpus() -> &'static perspectron::CollectedCorpus {
    static CORPUS: OnceLock<perspectron::CollectedCorpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        CorpusSpec::paper()
            .with_insts(150_000)
            .with_interval(10_000)
            .collect()
    })
}

/// The detector trained on the whole corpus, shared by the tests that
/// score it.
fn detector() -> &'static PerSpectron {
    static DET: OnceLock<PerSpectron> = OnceLock::new();
    DET.get_or_init(|| PerSpectron::train(corpus(), 42))
}

#[test]
fn corpus_covers_all_workloads_with_full_schema() {
    let c = corpus();
    assert!(c.traces.len() >= 25, "attacks + calibration + benign");
    assert_eq!(c.schema().len(), 1159);
    for t in &c.traces {
        assert!(
            t.trace.len() >= 10,
            "{} should produce >= 10 samples, got {}",
            t.name,
            t.trace.len()
        );
    }
}

#[test]
fn every_attack_emits_leak_or_iteration_marks_and_benign_do_not() {
    for t in &corpus().traces {
        match t.class {
            Class::Malicious => assert!(
                !t.marks.is_empty(),
                "{} should mark attack activity",
                t.name
            ),
            Class::Benign => {
                assert!(t.marks.is_empty(), "{} should not mark anything", t.name)
            }
        }
    }
}

#[test]
fn detector_separates_the_full_corpus() {
    let c = corpus();
    let report = detector().evaluate(c);
    assert!(
        report.confusion.accuracy() > 0.95,
        "full-corpus accuracy {}",
        report.confusion.accuracy()
    );
    assert!(
        report.confusion.false_positive_rate() < 0.05,
        "false-positive rate {}",
        report.confusion.false_positive_rate()
    );
}

#[test]
fn detector_generalizes_to_held_out_attack_families() {
    let c = corpus();
    let dataset = Dataset::from_corpus(c, Encoding::KSparse);
    let selection = FeatureSelection::select(&dataset, &SelectionConfig::default());

    // Fold 1 holds out spectreRSB, spectreV2, cacheOut, breakingKSLR and
    // prime+probe entirely.
    let fold = &paper_folds()[0];
    let split = fold.split(c, &dataset);
    let mut train_ds = dataset.clone();
    train_ds.samples = split
        .train
        .iter()
        .map(|&i| dataset.samples[i].clone())
        .collect();
    let det = PerSpectron::train_with_selection(&train_ds, selection);
    let confidences = det.confidences(&dataset.packed_rows(&det.selection().selected));

    let mut per_family: std::collections::HashMap<Family, (usize, usize)> =
        std::collections::HashMap::new();
    let mut benign_total = 0usize;
    let mut benign_fp = 0usize;
    for &i in &split.test {
        let s = &dataset.samples[i];
        let flagged = confidences[i] >= det.threshold;
        if s.y > 0 {
            let e = per_family.entry(s.family).or_default();
            e.1 += 1;
            if flagged {
                e.0 += 1;
            }
        } else {
            benign_total += 1;
            if flagged {
                benign_fp += 1;
            }
        }
    }
    for (family, (hit, total)) in &per_family {
        let rate = *hit as f64 / *total as f64;
        // Prime+Probe is the paper's hardest case: Table IV shows it
        // defeating DT-CART, KNN, logistic regression and the plain
        // 1159-feature perceptron. Held out of training entirely (plus its
        // calibration kin being the only eviction-pattern exemplar), a
        // minority of its windows are flagged; every other family is
        // detected in (nearly) all windows.
        let floor = if *family == Family::PrimeProbe {
            0.15
        } else {
            0.5
        };
        assert!(
            rate > floor,
            "held-out family {family:?} detected at only {rate:.2}"
        );
    }
    assert!(
        benign_fp as f64 / benign_total.max(1) as f64 <= 0.25,
        "held-out benign false positives {benign_fp}/{benign_total}"
    );
}

#[test]
fn every_scoring_entry_point_agrees_bit_for_bit() {
    let c = corpus();
    let det = detector();
    // Online: each trace's rows fed one by one through the streaming sink
    // must reproduce the batch confidence series exactly.
    for t in &c.traces {
        let mut sink = det.streaming_packed();
        for (row, &at) in t.trace.rows().zip(t.trace.instruction_counts()) {
            sink.on_sample(at, row);
        }
        let batch = det.confidence_series(t);
        assert_eq!(sink.verdicts().len(), batch.len(), "{}", t.name);
        for (j, (v, b)) in sink.verdicts().iter().zip(&batch).enumerate() {
            assert_eq!(
                v.confidence.to_bits(),
                b.to_bits(),
                "{} window {j}: streaming {} vs batch {b}",
                t.name,
                v.confidence
            );
        }
    }
    // Encoded rows: the packed sweep over a dataset must equal the dense
    // projection's dot product, normalized by |w|₁ + |b|, for every sample.
    let dataset = Dataset::from_corpus(c, Encoding::KSparse);
    let selected = &det.selection().selected;
    let packed = det.confidences(&dataset.packed_rows(selected));
    let p = det.perceptron();
    let norm = (p.weights().iter().map(|w| w.abs()).sum::<f64>() + p.bias().abs()).max(1e-12);
    assert_eq!(packed.len(), dataset.len());
    for (i, (s, got)) in dataset.samples.iter().zip(&packed).enumerate() {
        let projected: Vec<f64> = selected.iter().map(|&f| s.x[f]).collect();
        let dense = p.score(&projected) / norm;
        assert_eq!(
            got.to_bits(),
            dense.to_bits(),
            "sample {i}: packed {got} vs dense {dense}"
        );
    }
}

#[test]
fn perceptron_on_selected_features_beats_map_features() {
    // The paper's sharpest claim about committed-state (MAP) features is
    // that they cannot see attacks whose committed instruction mix looks
    // benign — Flush+Flush above all ("stealthy": no cache misses from the
    // attacker). Fold 3 holds flush+flush (and meltdown/breakingKSLR) out
    // of training: the microarchitectural selection must beat the MAP view
    // there. (On our synthetic corpus MAP features can ace *other* folds —
    // the attack PoCs spend their whole life attacking, so their committed
    // mixes are more telling than real traces'; see EXPERIMENTS.md.)
    let c = corpus();
    let ks = Dataset::from_corpus(c, Encoding::KSparse);
    let selection = FeatureSelection::select(&ks, &SelectionConfig::default());
    let map_idx = perspectron::map_features::map_feature_indices(&ks.schema);

    let fold = &paper_folds()[2];
    let split = fold.split(c, &ks);

    let run = |indices: &[usize]| -> f64 {
        let (x, y) = ks.project(indices);
        let xt: Vec<Vec<f64>> = split.train.iter().map(|&i| x[i].clone()).collect();
        let yt: Vec<i8> = split.train.iter().map(|&i| y[i]).collect();
        let mut p = perspectron_repro::mlkit::Perceptron::new(indices.len());
        p.fit(&xt, &yt);
        let correct = split
            .test
            .iter()
            .filter(|&&i| p.predict(&x[i]) == y[i])
            .count();
        correct as f64 / split.test.len() as f64
    };

    let acc_selected = run(&selection.selected);
    let acc_map = run(&map_idx);
    assert!(
        acc_selected > acc_map,
        "PerSpectron features ({acc_selected:.3}) must beat MAP features ({acc_map:.3}) \
         with flush+flush held out"
    );
}

//! Cross-core detection experiment: does the perceptron separate
//! cross-core attacks (Prime+Probe / Flush+Reload across the shared L2,
//! Spectre co-location) from *noisy-neighbor* benign pairs that contend
//! just as hard on the shared uncore?
//!
//! The corpus is the two-core scenario suite collected through the
//! `Machine` path: per-core stat banks (`core0.*`, `core1.*`) plus the
//! shared L2/bus/DRAM columns, sampled every 10K machine-wide committed
//! instructions. Three detectors are trained and evaluated on the full
//! suite:
//!
//! 1. **machine-wide** — the full namespaced schema;
//! 2. **attacker-core view** — `core0.*` + shared columns only
//!    (`core_feature_indices(.., 0)`), the slice a per-core detector
//!    instance would observe in hardware;
//! 3. **victim-core view** — `core1.*` + shared columns, the co-tenant's
//!    perspective (the attack must still be visible from the other side
//!    of the bus for a shared-uncore deployment to work).
//!
//! Writes `experiments/cross_core.json`. `PERSPECTRON_QUICK=1` shrinks
//! the per-scenario instruction budget for CI smoke runs.

use perspectron::dataset::Encoding;
use perspectron::{
    core_feature_indices, Dataset, FeatureSelection, PerSpectron, ScenarioSpec, SelectionConfig,
};
use perspectron_bench::dense_confidence_series;
use workloads::Class;

/// Trains on the given schema-index slice (intersected with the
/// feature-selected set) and evaluates on the full corpus.
fn view_report(
    dataset: &Dataset,
    selection: &FeatureSelection,
    view: &[usize],
    corpus: &perspectron::CollectedCorpus,
) -> (usize, perspectron::DetectionReport) {
    let allowed: std::collections::BTreeSet<usize> = view.iter().copied().collect();
    let selected: Vec<usize> = selection
        .selected
        .iter()
        .copied()
        .filter(|i| allowed.contains(i))
        .collect();
    let names = selected
        .iter()
        .map(|&i| dataset.schema.name(i).to_string())
        .collect();
    let sliced = FeatureSelection {
        selected: selected.clone(),
        names,
        groups: Vec::new(),
        relevance: selection.relevance.clone(),
    };
    let det = PerSpectron::train_with_selection(dataset, sliced);
    (selected.len(), det.evaluate(corpus))
}

fn main() {
    let quick = std::env::var("PERSPECTRON_QUICK").is_ok();
    let spec = if quick {
        ScenarioSpec::cross_core_quick()
    } else {
        ScenarioSpec::cross_core()
    };
    println!(
        "CROSS-CORE DETECTION: {} two-core scenarios, {} insts each\n",
        spec.scenarios.len(),
        spec.insts_per_scenario
    );

    let corpus = spec.collect();
    let dataset = Dataset::from_corpus(&corpus, Encoding::KSparse);
    let selection = FeatureSelection::select(&dataset, &SelectionConfig::default());
    println!(
        "corpus: {} samples x {} namespaced stats, {} features selected",
        dataset.len(),
        dataset.schema.len(),
        selection.selected.len()
    );

    // Machine-wide detector over the full namespaced schema, cross-checked
    // against the dense oracle: identical confusion counts or the packed
    // engine has drifted.
    let det = PerSpectron::train_with_selection(&dataset, selection.clone());
    let report = det.evaluate(&corpus);
    let (mut predicted, mut truth) = (Vec::new(), Vec::new());
    for t in &corpus.traces {
        let label = if t.class == Class::Malicious { 1i8 } else { -1 };
        for c in dense_confidence_series(&det, t) {
            predicted.push(if c >= det.threshold { 1i8 } else { -1 });
            truth.push(label);
        }
    }
    let dense = mlkit::confusion(&predicted, &truth);
    assert_eq!(
        (
            report.confusion.tp,
            report.confusion.fp,
            report.confusion.tn,
            report.confusion.fn_
        ),
        (dense.tp, dense.fp, dense.tn, dense.fn_),
        "packed inference disagrees with the dense oracle on the cross-core corpus"
    );

    // Per-core views: the attacker core's slice and the victim core's.
    let schema_names = dataset.schema.names();
    let (attacker_feats, attacker) = view_report(
        &dataset,
        &selection,
        &core_feature_indices(schema_names, 0),
        &corpus,
    );
    let (victim_feats, victim) = view_report(
        &dataset,
        &selection,
        &core_feature_indices(schema_names, 1),
        &corpus,
    );

    let mut rows = Vec::new();
    for (label, feats, r) in [
        ("machine-wide", det.selection().selected.len(), &report),
        ("attacker-core view", attacker_feats, &attacker),
        ("victim-core view", victim_feats, &victim),
    ] {
        println!(
            "{label:<20} {feats:>4} features  acc {:.4}  fp {}  fn {}",
            r.confusion.accuracy(),
            r.confusion.fp,
            r.confusion.fn_
        );
        rows.push((label.to_string(), feats, r.confusion.accuracy()));
    }

    // Per-scenario mean confidence: the separation the numbers claim.
    println!("\nper-scenario mean confidence (machine-wide detector):");
    let mut per_scenario = Vec::new();
    for t in &corpus.traces {
        let series = det.confidence_series(t);
        let mean = series.iter().sum::<f64>() / series.len().max(1) as f64;
        println!("  {:<28} {:?}  {:+.3}", t.name, t.class, mean);
        per_scenario.push((t.name.clone(), format!("{:?}", t.class), mean));
    }

    // The tentpole's acceptance bar: cross-core attacks separate from the
    // noisy-neighbor benign co-runners.
    assert!(
        report.false_positive_workloads.is_empty(),
        "noisy-neighbor benign pairs must not be flagged: {:?}",
        report.false_positive_workloads
    );
    assert!(
        report.confusion.accuracy() >= 0.9,
        "cross-core attacks must separate from benign co-runners (acc {:.4})",
        report.confusion.accuracy()
    );

    let mut json = String::from("{\n  \"experiment\": \"cross_core_detection\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!(
        "  \"scenarios\": {},\n  \"insts_per_scenario\": {},\n  \"samples\": {},\n  \"schema_width\": {},\n",
        spec.scenarios.len(),
        spec.insts_per_scenario,
        dataset.len(),
        dataset.schema.len()
    ));
    json.push_str("  \"detectors\": {\n");
    for (i, (label, feats, acc)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{ \"features\": {feats}, \"accuracy\": {acc:.4} }}{}\n",
            label.replace([' ', '-'], "_"),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"false_positives\": {:?},\n  \"false_negatives\": {:?},\n",
        report.false_positive_workloads, report.false_negative_workloads
    ));
    json.push_str("  \"per_scenario_mean_confidence\": {\n");
    for (i, (name, class, mean)) in per_scenario.iter().enumerate() {
        json.push_str(&format!(
            "    \"{name}\": {{ \"class\": \"{class}\", \"mean\": {mean:.4} }}{}\n",
            if i + 1 < per_scenario.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");

    std::fs::create_dir_all("experiments").ok();
    let path = "experiments/cross_core.json";
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("\nresult written to {path}");
}

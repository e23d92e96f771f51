//! Figure 5: ROC curves for 10K / 50K / 100K sampling granularities.
//!
//! For each granularity the corpus is re-collected, the detector trained on
//! a stratified split, and the ROC traced over the held-out samples'
//! confidences.

use mlkit::{auc, roc_curve};
use perspectron::dataset::Encoding;
use perspectron::{paper_folds, Dataset, FeatureSelection, PerSpectron, SelectionConfig};
use perspectron_bench::experiment_corpus;

fn main() {
    println!("FIGURE 5: ROC for different sampling granularities\n");
    let mut summary = Vec::new();

    for interval in [10_000u64, 50_000, 100_000] {
        let corpus = experiment_corpus(interval);
        let dataset = Dataset::from_corpus(&corpus, Encoding::KSparse);
        let selection = FeatureSelection::select(&dataset, &SelectionConfig::default());

        // Attack-held-out split (Table III fold 1): whole families unseen
        // in training make the ROC informative — a stratified split of this
        // corpus separates perfectly at every granularity.
        let fold = &paper_folds()[0];
        let split = fold.split(&corpus, &dataset);
        let test_idx = &split.test;

        let mut train_ds = dataset.clone();
        train_ds.samples = split
            .train
            .iter()
            .map(|&i| dataset.samples[i].clone())
            .collect();
        let det = PerSpectron::train_with_selection(&train_ds, selection);

        let all = det.confidences(&dataset.packed_rows(&det.selection().selected));
        let scores: Vec<f64> = test_idx.iter().map(|&i| all[i]).collect();
        let truth: Vec<i8> = test_idx.iter().map(|&i| dataset.samples[i].y).collect();
        let roc = roc_curve(&scores, &truth);
        let area = auc(&roc);

        println!(
            "interval {:>6}: {} samples, AUC = {:.4}",
            interval,
            dataset.len(),
            area
        );
        // Print a decimated curve.
        print!("  fpr/tpr:");
        let step = (roc.len() / 12).max(1);
        for p in roc.iter().step_by(step) {
            print!(" ({:.2},{:.2})", p.fpr, p.tpr);
        }
        let last = roc.last().expect("roc non-empty");
        println!(" ({:.2},{:.2})", last.fpr, last.tpr);

        // Best threshold by Youden's J.
        let best = roc
            .iter()
            .max_by(|a, b| {
                (a.tpr - a.fpr)
                    .partial_cmp(&(b.tpr - b.fpr))
                    .expect("no NaN")
            })
            .expect("non-empty");
        println!(
            "  best threshold {:.3} (tpr {:.3}, fpr {:.3})\n",
            best.threshold, best.tpr, best.fpr
        );
        summary.push((interval, area));
    }

    println!("AUC by granularity:");
    for (i, a) in &summary {
        println!("  {i:>6}: {a:.4}");
    }
    let best = summary
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
        .expect("non-empty");
    println!(
        "\nBest granularity: {} (paper: \"the 10K interval is better than the 50K and 100K\")",
        best.0
    );
}

//! Held-out-generalization diagnostic: trains on Table III's fold 1
//! (spectreRSB, spectreV2, cacheOut, breakingKSLR and prime+probe all
//! excluded) and reports per-workload confidences and detection rates, plus
//! the selected-feature differences between prime+probe and its calibration
//! — the paper's hardest generalization case.

fn main() {
    use perspectron::dataset::Encoding;
    use perspectron::*;
    let corpus = CorpusSpec::paper()
        .with_insts(150_000)
        .with_interval(10_000)
        .collect();
    let ds = Dataset::from_corpus(&corpus, Encoding::KSparse);
    let sel = FeatureSelection::select(&ds, &SelectionConfig::default());
    let fold = &paper_folds()[0];
    let split = fold.split(&corpus, &ds);
    let mut train_ds = ds.clone();
    train_ds.samples = split.train.iter().map(|&i| ds.samples[i].clone()).collect();
    let det = PerSpectron::train_with_selection(&train_ds, sel.clone());

    // per-workload mean confidence + train/test membership
    let test_set: std::collections::HashSet<_> = split.test.iter().copied().collect();
    let all = det.confidences(&ds.packed_rows(&det.selection().selected));
    for (w, t) in corpus.traces.iter().enumerate() {
        let confs: Vec<f64> = ds
            .samples
            .iter()
            .zip(&all)
            .filter(|(s, _)| s.workload == w)
            .map(|(_, &c)| c)
            .collect();
        let mean = confs.iter().sum::<f64>() / confs.len().max(1) as f64;
        let rate = confs.iter().filter(|&&c| c >= det.threshold).count() as f64
            / confs.len().max(1) as f64;
        let in_test = ds
            .samples
            .iter()
            .enumerate()
            .any(|(i, s)| s.workload == w && test_set.contains(&i));
        println!(
            "{:<28} {:>7.3} rate={:.2} {}",
            t.name,
            mean,
            rate,
            if in_test { "TEST" } else { "train" }
        );
    }
    // hamming similarity prime-probe vs calibration-pp on selected features
    let sel_idx = &det.selection().selected;
    let wl = |name: &str| corpus.traces.iter().position(|t| t.name == name).unwrap();
    let (pp, cpp) = (wl("prime-probe"), wl("calibration-pp"));
    let row = |w: usize| -> Vec<f64> {
        let rows: Vec<&perspectron::Sample> =
            ds.samples.iter().filter(|s| s.workload == w).collect();
        sel_idx
            .iter()
            .map(|&i| rows.iter().map(|s| s.x[i]).sum::<f64>() / rows.len() as f64)
            .collect()
    };
    let (a, b) = (row(pp), row(cpp));
    let diff: Vec<(usize, f64, f64)> = a
        .iter()
        .zip(&b)
        .enumerate()
        .filter(|(_, (x, y))| (*x - *y).abs() > 0.5)
        .map(|(i, (x, y))| (i, *x, *y))
        .collect();
    println!(
        "\nprime-probe vs calibration-pp differing selected features: {} of {}",
        diff.len(),
        sel_idx.len()
    );
    for (i, x, y) in diff.iter().take(15) {
        println!(
            "  pp={:.2} cal={:.2} w={:+.3} {}",
            x,
            y,
            det.perceptron().weights()[*i],
            det.selection().names[*i]
        );
    }
    // features active in prime-probe with positive weight?
    let mut act: Vec<(f64, f64, String)> = a
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            (
                x,
                det.perceptron().weights()[i],
                det.selection().names[i].clone(),
            )
        })
        .filter(|(x, _, _)| *x > 0.5)
        .collect();
    act.sort_by(|p, q| q.1.partial_cmp(&p.1).unwrap());
    println!("\nprime-probe active selected features (sorted by weight):");
    for (x, w, n) in act.iter().take(12) {
        println!("  act={:.2} w={:+.3} {}", x, w, n);
    }
    for (x, w, n) in act.iter().rev().take(6) {
        println!("  act={:.2} w={:+.3} {} (most negative)", x, w, n);
    }
}

//! Detection-path throughput: the bit-packed inference engine against the
//! dense `f64` oracle ([`perspectron_bench::dense_confidence_series`]),
//! over the raw rows of a real collected
//! corpus (encode + score per sampling window — the full deployment-shaped
//! detection step, not just the dot product).
//!
//! Merges the measured `detect_*` keys into `BENCH_pipeline.json` at the
//! workspace root (preserving every other bench's keys).
//! `PERSPECTRON_QUICK=1` shrinks the corpus for CI smoke runs.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mlkit::BitRow;
use perspectron::{CorpusSpec, PerSpectron};
use perspectron_bench::dense_confidence_series;

fn bench_spec() -> CorpusSpec {
    let quick = std::env::var("PERSPECTRON_QUICK").is_ok();
    let mut spec = CorpusSpec::quick();
    if quick {
        spec.insts_per_workload = 30_000;
        spec.workloads.truncate(6);
    }
    spec
}

/// Runs `pass` repeatedly until it has accumulated at least a second of
/// wall clock (and at least three passes), returning samples per second.
fn rate(samples_per_pass: usize, mut pass: impl FnMut() -> f64) -> f64 {
    let mut passes = 0usize;
    let mut sink = 0.0;
    let start = Instant::now();
    while passes < 3 || start.elapsed().as_secs_f64() < 1.0 {
        sink += pass();
        passes += 1;
    }
    black_box(sink);
    (passes * samples_per_pass) as f64 / start.elapsed().as_secs_f64()
}

/// Rewrites `BENCH_pipeline.json`, replacing any existing `detect_*` keys
/// with the given ones and leaving the other benches' keys untouched.
fn merge_detect_keys(path: &str, keys: &[(&str, String)]) {
    let existing = std::fs::read_to_string(path).unwrap_or_else(|_| "{\n}\n".to_string());
    let mut lines: Vec<String> = existing
        .lines()
        .filter(|l| !l.contains("\"detect_"))
        .map(str::to_string)
        .collect();
    while lines.last().is_some_and(|l| l.trim().is_empty()) {
        lines.pop();
    }
    let close = lines.pop().unwrap_or_else(|| "}".to_string());
    if let Some(last) = lines.last_mut() {
        let trimmed = last.trim_end();
        if !trimmed.ends_with(',') && !trimmed.ends_with('{') {
            last.push(',');
        }
    }
    for (i, (k, v)) in keys.iter().enumerate() {
        let comma = if i + 1 == keys.len() { "" } else { "," };
        lines.push(format!("  \"{k}\": {v}{comma}"));
    }
    lines.push(close);
    if let Err(e) = std::fs::write(path, lines.join("\n") + "\n") {
        eprintln!("could not write {path}: {e}");
    }
}

fn bench_detect(c: &mut Criterion) {
    let spec = bench_spec();
    let corpus = spec.collect();
    let det = PerSpectron::train(&corpus, 42);
    let samples = corpus.total_samples();

    // Dense oracle: full-width k-sparse encode, project, dense dot
    // product over every trace.
    let dense_pass = || {
        let mut acc = 0.0;
        for t in &corpus.traces {
            for cnf in dense_confidence_series(&det, t) {
                acc += cnf;
            }
        }
        acc
    };
    // Packed batched: projected bit-packed encode, one linear scoring
    // sweep per trace — the detection fast path.
    let packed_pass = || {
        let mut acc = 0.0;
        for t in &corpus.traces {
            for cnf in det.confidence_series(t) {
                acc += cnf;
            }
        }
        acc
    };
    // Packed single-row: same encoder, row-at-a-time sparse gather (the
    // per-window latency shape, raw scores).
    let encoder = det.packed_encoder();
    let engine = det.packed_perceptron();
    let packed_single_pass = {
        let corpus = &corpus;
        let mut row = BitRow::zeros(encoder.width());
        move || {
            let mut acc = 0.0;
            for t in &corpus.traces {
                for (j, raw) in t.trace.rows().enumerate() {
                    encoder.encode_bits_into(raw, j, &mut row);
                    acc += engine.score_bits(&row);
                }
            }
            acc
        }
    };

    // Equivalence spot-check before timing anything: a benchmark of a
    // wrong fast path is worthless.
    for t in &corpus.traces {
        let a = dense_confidence_series(&det, t);
        let b = det.confidence_series(t);
        assert_eq!(a.len(), b.len());
        assert!(
            a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{}: packed confidences diverged from the dense oracle",
            t.name
        );
    }

    let dense_rate = rate(samples, dense_pass);
    let packed_rate = rate(samples, packed_pass);
    let packed_single_rate = rate(samples, packed_single_pass);
    let speedup = packed_rate / dense_rate.max(1e-9);
    println!(
        "detection throughput over {samples} windows: dense oracle {dense_rate:.0}/s, \
         packed batched {packed_rate:.0}/s ({speedup:.1}x), \
         packed single-row {packed_single_rate:.0}/s"
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    merge_detect_keys(
        path,
        &[
            ("detect_samples", format!("{samples}")),
            ("detect_scalar_samples_per_sec", format!("{dense_rate:.0}")),
            ("detect_packed_samples_per_sec", format!("{packed_rate:.0}")),
            (
                "detect_packed_single_samples_per_sec",
                format!("{packed_single_rate:.0}"),
            ),
            ("detect_speedup_packed", format!("{speedup:.2}")),
        ],
    );

    let mut group = c.benchmark_group("detection");
    group.throughput(Throughput::Elements(samples as u64));
    group.sample_size(10);
    group.bench_function("dense_oracle", |b| {
        b.iter(|| {
            corpus
                .traces
                .iter()
                .map(|t| dense_confidence_series(&det, t).iter().sum::<f64>())
                .sum::<f64>()
        })
    });
    group.bench_function("packed", |b| {
        b.iter(|| {
            corpus
                .traces
                .iter()
                .map(|t| det.confidence_series(t).iter().sum::<f64>())
                .sum::<f64>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_detect);
criterion_main!(benches);

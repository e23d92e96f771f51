//! Resilience sweep: per-interval detection accuracy under injected sensor
//! faults, quantifying the paper's replicated-detector robustness claim.
//!
//! The detector is trained once on a clean corpus; every sweep point then
//! *replays* the collected sample rows through a fault-injecting
//! [`perspectron::FaultySink`] into a fresh [`perspectron::StreamingDetector`]
//! — faults live at the sample boundary, so no re-simulation is needed.
//! Each (dropout, corruption) point is averaged over several fault-plan
//! seeds.
//!
//! Writes the sweep to `experiments/resilience_sweep.json` at the
//! workspace root (next to `BENCH_pipeline.json`) and prints the table.
//! `PERSPECTRON_QUICK=1` shrinks the sweep to a single faulted dropout
//! point for CI smoke runs.

use perspectron::{CollectedCorpus, FaultPlan, FaultSpec, PerSpectron};
use perspectron_bench::{render_table, trained_detector};
use uarch_stats::SampleSink;
use workloads::Class;

/// One measured sweep point.
struct Point {
    dropout: f64,
    corruption: f64,
    accuracy: f64,
    degraded_fraction: f64,
    intervals: usize,
}

/// Replays the corpus through a fault plan into streaming detectors and
/// returns (per-interval accuracy, degraded-interval fraction, intervals).
fn replay(corpus: &CollectedCorpus, detector: &PerSpectron, spec: FaultSpec) -> (f64, f64, usize) {
    let plan = FaultPlan::new(spec, corpus.schema());
    let (mut correct, mut degraded, mut total) = (0usize, 0usize, 0usize);
    for t in &corpus.traces {
        let mut sink = plan.sink_for(&t.name, detector.streaming_packed());
        for (j, row) in t.trace.rows().enumerate() {
            sink.on_sample(t.trace.instruction_counts()[j], row);
        }
        let monitor = sink.into_inner();
        degraded += monitor.degraded_intervals();
        for v in monitor.verdicts() {
            total += 1;
            if v.suspicious == (t.class == Class::Malicious) {
                correct += 1;
            }
        }
    }
    let total_f = total.max(1) as f64;
    (correct as f64 / total_f, degraded as f64 / total_f, total)
}

fn main() {
    let quick = std::env::var("PERSPECTRON_QUICK").is_ok();
    let (corpus, detector) = trained_detector();

    let dropouts: &[f64] = if quick {
        &[0.0, 0.1] // one clean + one faulted point: the CI smoke run
    } else {
        &[0.0, 0.05, 0.1, 0.2, 0.3]
    };
    let corruptions: &[f64] = if quick { &[0.0] } else { &[0.0, 0.05] };
    let seeds: &[u64] = if quick { &[11] } else { &[11, 23, 47] };

    println!("RESILIENCE SWEEP: detection accuracy under injected sensor faults");
    println!(
        "(per-interval accuracy over {} workloads, {} fault seed(s) per point)\n",
        corpus.traces.len(),
        seeds.len()
    );

    let mut points: Vec<Point> = Vec::new();
    for &corruption in corruptions {
        for &dropout in dropouts {
            let (mut acc, mut deg, mut n) = (0.0, 0.0, 0);
            for &seed in seeds {
                let spec = FaultSpec {
                    seed,
                    component_dropout: dropout,
                    row_drop: 0.0,
                    corruption,
                    interval_jitter: 0,
                };
                let (a, d, total) = replay(&corpus, &detector, spec);
                acc += a;
                deg += d;
                n = total;
            }
            points.push(Point {
                dropout,
                corruption,
                accuracy: acc / seeds.len() as f64,
                degraded_fraction: deg / seeds.len() as f64,
                intervals: n,
            });
        }
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}%", p.dropout * 100.0),
                format!("{:.0}%", p.corruption * 100.0),
                format!("{:.1}%", p.accuracy * 100.0),
                format!("{:.0}%", p.degraded_fraction * 100.0),
                p.intervals.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["dropout", "corruption", "accuracy", "degraded", "intervals"],
            &rows
        )
    );

    let clean = points
        .iter()
        .find(|p| p.dropout == 0.0 && p.corruption == 0.0)
        .expect("sweep includes the clean point");
    let at10 = points
        .iter()
        .find(|p| p.dropout == 0.1 && p.corruption == 0.0)
        .expect("sweep includes the 10% dropout point");
    let delta_points = (clean.accuracy - at10.accuracy) * 100.0;
    println!(
        "headline: clean {:.1}% -> 10% dropout {:.1}% ({:+.1} points)",
        clean.accuracy * 100.0,
        at10.accuracy * 100.0,
        -delta_points
    );
    if delta_points > 5.0 {
        println!("WARNING: 10% dropout costs more than 5 accuracy points");
    }

    let json_points: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"dropout\": {}, \"corruption\": {}, \"accuracy\": {:.6}, \
                 \"degraded_fraction\": {:.6}, \"intervals\": {}}}",
                p.dropout, p.corruption, p.accuracy, p.degraded_fraction, p.intervals
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"resilience_sweep\",\n  \"quick\": {},\n  \
         \"seeds\": {:?},\n  \
         \"headline\": {{\"clean_accuracy\": {:.6}, \"dropout10_accuracy\": {:.6}, \
         \"delta_points\": {:.3}}},\n  \"points\": [\n{}\n  ]\n}}\n",
        quick,
        seeds,
        clean.accuracy,
        at10.accuracy,
        delta_points,
        json_points.join(",\n")
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../experiments/resilience_sweep.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("\n-> experiments/resilience_sweep.json"),
        Err(e) => eprintln!("could not write resilience_sweep.json: {e}"),
    }
}

//! Service replay benchmark: `perspectrond` under a fleet-shaped load.
//!
//! Trains the detector, writes the corpus to the mmap-able columnar
//! format, then replays it as ≥1024 concurrent streams through the
//! sharded service and measures submit-to-verdict latency (p50/p99),
//! aggregate windows/s, and streams per core. Every stream's verdict
//! sequence is verified bit-identical to running that stream alone
//! through `streaming_packed()` — the benchmark refuses to report a
//! number it cannot prove lossless.
//!
//! Writes `BENCH_service.json` at the workspace root.
//! `PERSPECTRON_QUICK=1` shrinks the training corpus (streams stay at
//! 1024 so the concurrency claim is still exercised);
//! `PERSPECTRON_SERVICE_STREAMS` overrides the stream count.

use std::time::Instant;

use perspectron::corpus_io::{self, CorpusReader};
use perspectron::IntervalVerdict;
use perspectron_bench::trained_detector;
use perspectron_serviced::{replay_clients, Perspectrond, ReplayConfig, ServiceConfig};
use uarch_stats::SampleSink;

fn main() {
    let streams: usize = std::env::var("PERSPECTRON_SERVICE_STREAMS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1024);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    eprintln!("service_bench: training detector…");
    let (corpus, detector) = trained_detector();

    // The corpus goes to disk and comes back through the mmap reader —
    // the replay clients never touch the in-memory corpus.
    let path = std::env::temp_dir().join(format!("service_bench_{}.pspc", std::process::id()));
    corpus_io::write_corpus(&path, &corpus).expect("write corpus");
    let reader = CorpusReader::open(&path).expect("open corpus");
    eprintln!(
        "service_bench: corpus {} traces, mmap: {}",
        reader.n_traces(),
        reader.is_mapped()
    );

    // Reference verdicts per trace: the lone-stream packed sink.
    let references: Vec<Vec<IntervalVerdict>> = corpus
        .traces
        .iter()
        .map(|t| {
            let mut sink = detector.streaming_packed();
            let width = t.trace.schema().len();
            let flat = t.trace.flat_values();
            for (j, &at) in t.trace.instruction_counts().iter().enumerate() {
                sink.on_sample(at, &flat[j * width..(j + 1) * width]);
            }
            sink.verdicts().to_vec()
        })
        .collect();

    let shards = cores;
    let service = Perspectrond::start(
        &detector,
        ServiceConfig {
            shards,
            ..ServiceConfig::default()
        },
    );
    let submitter = service.submitter();
    let started = Instant::now();
    let outcome = replay_clients(
        &reader,
        &submitter,
        &ReplayConfig {
            streams,
            client_threads: cores.clamp(1, 8),
        },
    );
    drop(submitter);
    let report = service.shutdown().expect("clean shutdown");
    let elapsed_secs = started.elapsed().as_secs_f64();
    std::fs::remove_file(&path).ok();

    // Losslessness proof: exactly the submitted windows scored, and every
    // stream bit-identical to its lone-stream reference.
    assert_eq!(
        report.windows_scored, outcome.submitted,
        "windows lost or duplicated"
    );
    assert_eq!(report.streams.len(), streams, "streams lost");
    for s in 0..streams as u64 {
        let expect = &references[s as usize % references.len()];
        let got = report.verdicts_of(s).expect("stream reported");
        assert_eq!(got.len(), expect.len(), "stream {s}: verdict count");
        for (g, e) in got.iter().zip(expect) {
            assert_eq!(
                g.confidence.to_bits(),
                e.confidence.to_bits(),
                "stream {s}: verdict drifted from lone-stream reference"
            );
        }
    }
    eprintln!("service_bench: all {streams} streams verified bit-identical");

    // Quiet-plan resilience envelope: the default config runs no chaos,
    // so any worker restart means the supervisor tripped on real code,
    // and any shed submission means the patient replay policy gave up —
    // both are bugs, not load artifacts.
    assert!(
        report.restarts.is_empty(),
        "worker restarted under the quiet plan: {:?}",
        report.restarts
    );
    assert_eq!(report.shed, 0, "submissions shed under the quiet plan");
    assert_eq!(
        report.lost_windows(),
        0,
        "windows lost under the quiet plan"
    );

    let p50_us = report.p50_us();
    let p99_us = report.p99_us();
    let aggregate_windows_per_sec = report.windows_scored as f64 / elapsed_secs.max(1e-9);
    let streams_per_core = streams as f64 / shards as f64;

    let json = format!(
        "{{\n  \"bench\": \"perspectrond_replay\",\n  \"streams\": {streams},\n  \"shards\": {shards},\n  \"client_threads\": {client_threads},\n  \"windows\": {windows},\n  \"sweeps\": {sweeps},\n  \"max_coalesced\": {max_coalesced},\n  \"busy_retries\": {busy_retries},\n  \"shed\": {shed},\n  \"retries\": {retries},\n  \"restarts\": {restarts},\n  \"elapsed_secs\": {elapsed_secs:.3},\n  \"p50_us\": {p50_us},\n  \"p99_us\": {p99_us},\n  \"streams_per_core\": {streams_per_core:.1},\n  \"aggregate_windows_per_sec\": {aggregate_windows_per_sec:.0},\n  \"verified_bit_identical\": true\n}}\n",
        client_threads = cores.clamp(1, 8),
        windows = report.windows_scored,
        sweeps = report.sweeps,
        max_coalesced = report.max_coalesced,
        busy_retries = outcome.busy_retries,
        shed = report.shed,
        retries = report.retries,
        restarts = report.restarts.len(),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("could not write BENCH_service.json: {e}");
    }
    println!("{json}");
}

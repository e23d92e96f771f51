//! The pipeline bench: corpus collection (serial, parallel and two-core),
//! the per-sample allocations of the sampler, and detection throughput of
//! the packed engine against the dense `f64` oracle
//! ([`perspectron_bench::dense_confidence_series`]) over the same corpus
//! (encode + score per sampling window, the deployment-shaped detection
//! step).
//!
//! Writes every figure to `BENCH_pipeline.json` at the workspace root,
//! then asserts the gates that hold on any host, because each compares
//! figures taken in this run: packed detection at least 4x the dense
//! oracle, a two-core machine at least 0.4x the one-core rate, and zero
//! allocations per streamed sample. Wall-clock rates are recorded, not
//! gated; they move with the host. `PERSPECTRON_QUICK=1` shrinks the
//! corpus for CI smoke runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mlkit::BitRow;
use perspectron::{CollectedCorpus, CollectionSpec, Collector, CorpusSpec, ScenarioSpec};
use perspectron::{LabeledTrace, PerSpectron};
use perspectron_bench::dense_confidence_series;
use sim_cpu::{CoreConfig, Machine};
use sim_mem::HierarchyConfig;
use uarch_stats::{SampleSink, Sampler, Snapshot};

/// Counts every heap allocation so the bench can report allocations per
/// sample for the old and new sampling paths.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn quick() -> bool {
    std::env::var("PERSPECTRON_QUICK").is_ok()
}

fn bench_spec() -> CorpusSpec {
    let mut spec = CorpusSpec::quick();
    if quick() {
        // Every fourth workload keeps both classes (the suite lists its 12
        // attacks first), so detection trains a real 106-feature model; a
        // one-class corpus selects no feature and leaves the packed path
        // nothing to score.
        spec.insts_per_workload = 30_000;
        spec.workloads = spec.workloads.into_iter().step_by(4).collect();
    }
    spec
}

fn scenario_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::cross_core_quick();
    if quick() {
        spec.insts_per_scenario = 30_000;
        spec.scenarios.truncate(4);
    }
    spec
}

/// Collects `spec` on `threads` workers.
fn collect(spec: &impl CollectionSpec, threads: usize) -> CollectedCorpus {
    let mut collector = Collector::default();
    collector.policy.threads = Some(threads);
    collector
        .collect(spec)
        .into_result()
        .expect("collection succeeds")
}

/// Core-count scaling of the raw simulator loop: the same benign kernel on
/// a one-core and a two-core machine, compared by machine-wide committed
/// instructions per host second. Perfect scaling would be 2.0 (two cores'
/// worth of instructions for one machine's wall-clock); the shared
/// mutex-held uncore and the lockstep tick keep it below that.
fn core_scaling(insts: u64) -> (f64, f64, f64) {
    let hmmer = || workloads::benign::hmmer().expect("hmmer assembles");
    let run = |programs: Vec<uarch_isa::Program>| {
        let mut m = Machine::new(
            &CoreConfig::default(),
            &HierarchyConfig::default(),
            programs,
        );
        let s = m.run(insts);
        s.insts_per_sec
    };
    let one = run(vec![hmmer()]);
    let two = run(vec![hmmer(), hmmer()]);
    (one, two, two / one.max(1e-9))
}

/// The worker count of a parallel pass: the host's
/// `available_parallelism`, since more workers than hardware threads only
/// time-slice, clamped to the job count as the collector's fan-out is.
fn worker_threads(jobs: usize) -> usize {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    available.clamp(1, jobs.max(1))
}

/// Discards rows; measures pure sampling cost.
struct NullSink {
    samples: u64,
}

impl SampleSink for NullSink {
    fn on_sample(&mut self, _insts: u64, _row: &[f64]) {
        self.samples += 1;
    }
}

/// Allocation counts per sampled interval for the legacy snapshot-per-
/// interval path vs. the schema-resolved streaming sampler.
fn allocation_comparison(samples: u64) -> (f64, f64) {
    let mut machine = Machine::single_core(
        &CoreConfig::default(),
        workloads::benign::hmmer().expect("hmmer assembles"),
    );
    machine.run(10_000);

    // Legacy shape: every interval re-walks the stat tree into a fresh
    // Snapshot, allocating ~1159 dotted names plus the value vector.
    let before = allocations();
    for _ in 0..samples {
        black_box(Snapshot::of(&machine, ""));
    }
    let snapshot_allocs = (allocations() - before) as f64 / samples as f64;

    // Streaming shape: schema resolved once, value-only walks into
    // reusable buffers, rows emitted by reference.
    let mut sampler = Sampler::new(&machine, "");
    let mut sink = NullSink { samples: 0 };
    let before = allocations();
    for i in 0..samples {
        sampler.sample_into(&machine, i * 10_000, &mut sink);
    }
    let streaming_allocs = (allocations() - before) as f64 / samples as f64;
    (snapshot_allocs, streaming_allocs)
}

/// Runs `pass` repeatedly until it has accumulated at least a second of
/// wall clock (and at least three passes), returning samples per second.
fn rate(samples_per_pass: u64, mut pass: impl FnMut() -> f64) -> f64 {
    let mut passes = 0u64;
    let mut sink = 0.0;
    let start = Instant::now();
    while passes < 3 || start.elapsed().as_secs_f64() < 1.0 {
        sink += pass();
        passes += 1;
    }
    black_box(sink);
    (passes * samples_per_pass) as f64 / start.elapsed().as_secs_f64()
}

/// Sums `series` over every trace of `corpus`: one detection pass.
fn detection_pass<'a>(
    corpus: &'a CollectedCorpus,
    series: impl Fn(&LabeledTrace) -> Vec<f64> + 'a,
) -> impl Fn() -> f64 + 'a {
    move || {
        corpus
            .traces
            .iter()
            .map(|t| series(t).iter().sum::<f64>())
            .sum()
    }
}

fn bench_pipeline(c: &mut Criterion) {
    let spec = bench_spec();
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = worker_threads(spec.workloads.len());

    // One measured pass each for the JSON report (criterion's own loop
    // below reports the steady-state timing).
    let start = Instant::now();
    let serial = collect(&spec, 1);
    let serial_secs = start.elapsed().as_secs_f64();
    // With one worker the "parallel" pass is the serial execution plus
    // scope/channel overhead, so take the serial figure and flag the skip.
    let (parallel_path, parallel_secs) = if threads <= 1 {
        ("skipped", serial_secs)
    } else {
        let start = Instant::now();
        let parallel = collect(&spec, threads);
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(serial.total_samples(), parallel.total_samples());
        ("measured", secs)
    };
    let samples = serial.total_samples() as u64;
    let insts: u64 = spec.insts_per_workload * spec.workloads.len() as u64;

    let (snapshot_allocs, streaming_allocs) = allocation_comparison(samples.max(1));

    // Two-core machine collection over the cross-core scenario suite, plus
    // raw core-count scaling of the simulator loop itself.
    let scen = scenario_spec();
    let scen_threads = worker_threads(scen.scenarios.len());
    let start = Instant::now();
    let xc = collect(&scen, scen_threads);
    let two_core_secs = start.elapsed().as_secs_f64();
    let two_core_samples = xc.total_samples() as u64;
    let (one_core_ips, two_core_ips, scaling) = core_scaling(spec.insts_per_workload.max(100_000));

    // Detection over the serial corpus. A benchmark of a wrong fast path
    // is worthless, so the packed confidences must equal the dense
    // oracle's bit for bit before either is timed.
    let det = PerSpectron::train(&serial, 42);
    assert!(
        !det.selection().selected.is_empty(),
        "the detection corpus selected no feature, so the speedup gate would time an empty model"
    );
    for t in &serial.traces {
        let a = dense_confidence_series(&det, t);
        let b = det.confidence_series(t);
        assert!(
            a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "{}: packed confidences diverged from the dense oracle",
            t.name
        );
    }
    let dense_pass = detection_pass(&serial, |t| dense_confidence_series(&det, t));
    let packed_pass = detection_pass(&serial, |t| det.confidence_series(t));
    // Packed single-row: same encoder, row-at-a-time sparse gather (the
    // per-window latency shape, raw scores).
    let encoder = det.packed_encoder();
    let engine = det.packed_perceptron();
    let mut row = BitRow::zeros(encoder.width());
    let packed_single_pass = || {
        let mut acc = 0.0;
        for t in &serial.traces {
            for (j, raw) in t.trace.rows().enumerate() {
                encoder.encode_bits_into(raw, j, &mut row);
                acc += engine.score_bits(&row);
            }
        }
        acc
    };
    let dense_rate = rate(samples, &dense_pass);
    let packed_rate = rate(samples, &packed_pass);
    let packed_single_rate = rate(samples, packed_single_pass);
    let speedup = packed_rate / dense_rate.max(1e-9);

    let per_sec = |n: u64, secs: f64| n as f64 / secs.max(1e-9);
    let fields = [
        ("bench", "\"pipeline\"".to_string()),
        ("workloads", spec.workloads.len().to_string()),
        ("insts_per_workload", spec.insts_per_workload.to_string()),
        ("samples", samples.to_string()),
        ("threads", threads.to_string()),
        ("available_parallelism", available.to_string()),
        ("parallel_path", format!("\"{parallel_path}\"")),
        ("serial_secs", format!("{serial_secs:.3}")),
        ("parallel_secs", format!("{parallel_secs:.3}")),
        (
            "speedup",
            format!("{:.2}", serial_secs / parallel_secs.max(1e-9)),
        ),
        (
            "serial_samples_per_sec",
            format!("{:.1}", per_sec(samples, serial_secs)),
        ),
        (
            "parallel_samples_per_sec",
            format!("{:.1}", per_sec(samples, parallel_secs)),
        ),
        (
            "allocs_per_sample_snapshot_path",
            format!("{snapshot_allocs:.1}"),
        ),
        (
            "allocs_per_sample_streaming_path",
            format!("{streaming_allocs:.1}"),
        ),
        ("two_core_scenarios", scen.scenarios.len().to_string()),
        ("two_core_threads", scen_threads.to_string()),
        ("two_core_samples", two_core_samples.to_string()),
        ("two_core_secs", format!("{two_core_secs:.3}")),
        (
            "two_core_samples_per_sec",
            format!("{:.1}", per_sec(two_core_samples, two_core_secs)),
        ),
        ("one_core_insts_per_sec", format!("{one_core_ips:.0}")),
        ("two_core_insts_per_sec", format!("{two_core_ips:.0}")),
        ("core_scaling", format!("{scaling:.2}")),
        ("detect_samples", samples.to_string()),
        ("detect_scalar_samples_per_sec", format!("{dense_rate:.0}")),
        ("detect_packed_samples_per_sec", format!("{packed_rate:.0}")),
        (
            "detect_packed_single_samples_per_sec",
            format!("{packed_single_rate:.0}"),
        ),
        ("detect_speedup_packed", format!("{speedup:.2}")),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    let json = format!("{{\n{}\n}}\n", body.join(",\n"));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write BENCH_pipeline.json: {e}");
    }
    println!("{json}");

    // The gates: each compares figures from this run, so they hold on
    // any host.
    assert!(
        speedup >= 4.0,
        "packed detection no longer pulls its weight ({speedup:.2}x the dense oracle, need >= 4x)"
    );
    assert!(
        scaling >= 0.4,
        "two-core machine throughput collapsed vs one core (scaling {scaling:.2}, need >= 0.4)"
    );
    assert!(
        streaming_allocs == 0.0,
        "the streaming sampler allocates again ({streaming_allocs} per sample, need 0)"
    );

    let mut group = c.benchmark_group("corpus_collection");
    group.throughput(Throughput::Elements(insts));
    group.sample_size(10);
    group.bench_function("serial", |b| b.iter(|| collect(&spec, 1)));
    if threads > 1 {
        group.bench_function("parallel", |b| b.iter(|| collect(&spec, threads)));
    }
    group.bench_function("two_core", |b| b.iter(|| collect(&scen, scen_threads)));
    group.finish();

    let mut group = c.benchmark_group("detection");
    group.throughput(Throughput::Elements(samples));
    group.sample_size(10);
    group.bench_function("dense_oracle", |b| b.iter(&dense_pass));
    group.bench_function("packed", |b| b.iter(&packed_pass));
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);

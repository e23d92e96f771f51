//! Service contract tests: zero lost/duplicated verdicts at ≥1000
//! concurrent streams, bit-identity to the single-stream packed sink,
//! shard-count invariance, and observable bounded backpressure.

use std::sync::OnceLock;
use std::time::Duration;

use perspectron::corpus_io::{self, CorpusReader};
use perspectron::{CollectedCorpus, CorpusSpec, IntervalVerdict, PerSpectron};
use perspectron_serviced::{
    replay_clients, ChaosSpec, Perspectrond, ReplayConfig, ServiceConfig, StallAt, SubmitError,
    SubmitPolicy,
};
use proptest::prelude::*;
use uarch_stats::SampleSink;

fn tiny_spec() -> CorpusSpec {
    let mut all = workloads::full_suite();
    all.retain(|w| ["flush-reload", "spectre-v1", "hmmer", "mcf"].contains(&w.name.as_str()));
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

fn corpus_file(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "perspectron_service_{tag}_{}.pspc",
        std::process::id()
    ));
    corpus_io::write_corpus(&path, corpus()).expect("write corpus");
    path
}

/// Reference per-trace verdict sequences: each trace run alone through
/// the single-stream packed sink.
fn reference_verdicts() -> &'static Vec<Vec<IntervalVerdict>> {
    static R: OnceLock<Vec<Vec<IntervalVerdict>>> = OnceLock::new();
    R.get_or_init(|| {
        let det = detector();
        corpus()
            .traces
            .iter()
            .map(|t| {
                let mut sink = det.streaming_packed();
                let width = t.trace.schema().len();
                let flat = t.trace.flat_values();
                for (j, &at) in t.trace.instruction_counts().iter().enumerate() {
                    sink.on_sample(at, &flat[j * width..(j + 1) * width]);
                }
                sink.verdicts().to_vec()
            })
            .collect()
    })
}

fn run_replay(
    shards: usize,
    chaos: ChaosSpec,
    streams: usize,
    tag: &str,
) -> perspectron_serviced::ServiceReport {
    let path = corpus_file(tag);
    let reader = CorpusReader::open(&path).expect("open corpus");
    let service = Perspectrond::start(
        detector(),
        ServiceConfig {
            shards,
            queue_depth: 128,
            chaos,
            ..ServiceConfig::default()
        },
    );
    let submitter = service.submitter();
    let outcome = replay_clients(
        &reader,
        &submitter,
        &ReplayConfig {
            streams,
            client_threads: 4,
        },
    );
    drop(submitter);
    let report = service.shutdown().expect("clean shutdown");
    assert_eq!(
        report.windows_scored, outcome.submitted,
        "every accepted window must be scored exactly once"
    );
    std::fs::remove_file(&path).ok();
    report
}

#[test]
fn thousand_streams_lose_nothing_and_match_the_lone_stream_bit_for_bit() {
    let streams = 1024;
    let report = run_replay(4, ChaosSpec::quiet(), streams, "thousand");
    let refs = reference_verdicts();
    let n_traces = corpus().traces.len();

    assert_eq!(report.streams.len(), streams, "every stream must report");
    let expected_windows: u64 = (0..streams).map(|s| refs[s % n_traces].len() as u64).sum();
    assert_eq!(report.windows_scored, expected_windows);
    assert_eq!(report.latencies_us.len() as u64, expected_windows);
    // The quiet plan injects nothing, so a restart (a `Wedged` one loses
    // no window), a shed submission or a lost window is a defect.
    assert!(
        report.restarts.is_empty(),
        "shard restarted under the quiet plan: {:?}",
        report.restarts
    );
    assert_eq!(report.shed, 0, "submissions shed under the quiet plan");
    assert_eq!(
        report.lost_windows(),
        0,
        "windows lost under the quiet plan"
    );

    for s in 0..streams as u64 {
        let expect = &refs[s as usize % n_traces];
        let got = report
            .verdicts_of(s)
            .unwrap_or_else(|| panic!("stream {s} lost"));
        assert_eq!(
            got.len(),
            expect.len(),
            "stream {s}: windows lost or duplicated"
        );
        for (g, e) in got.iter().zip(expect) {
            assert_eq!(g.at_inst, e.at_inst, "stream {s}: window reordered");
            assert_eq!(
                g.confidence.to_bits(),
                e.confidence.to_bits(),
                "stream {s}: service verdict differs from lone streaming_packed run"
            );
            assert_eq!(g.suspicious, e.suspicious);
            assert_eq!(g.degraded, e.degraded);
        }
    }
}

#[test]
fn cross_session_batching_coalesces_behind_a_slow_sweep() {
    // With 1024 streams fanning into 4 shards, sweeps must be far fewer
    // than windows. Chaos jitter stalls every sweep a seeded 0-10 ms (5 ms
    // on average) while four client threads refill the shard's 128-deep
    // queue, so sweeps find a backlog to coalesce, however fast the host
    // scores a batch.
    let slow_consumer = ChaosSpec {
        jitter_chance: 1.0,
        jitter_max: Duration::from_millis(10),
        ..ChaosSpec::quiet()
    };
    let report = run_replay(4, slow_consumer, 1024, "coalesce");
    assert!(
        report.sweeps < report.windows_scored / 4,
        "batching never coalesced: {} sweeps for {} windows",
        report.sweeps,
        report.windows_scored
    );
    assert!(report.max_coalesced > 1);
}

#[test]
fn shard_count_does_not_change_any_stream_verdict_sequence() {
    let streams = 256;
    let one = run_replay(1, ChaosSpec::quiet(), streams, "shard1");
    let four = run_replay(4, ChaosSpec::quiet(), streams, "shard4");
    assert_eq!(one.streams.len(), streams);
    assert_eq!(four.streams.len(), streams);
    assert_eq!(one.windows_scored, four.windows_scored);
    for s in 0..streams as u64 {
        let a = one.verdicts_of(s).expect("stream in 1-shard run");
        let b = four.verdicts_of(s).expect("stream in 4-shard run");
        assert_eq!(a, b, "stream {s}: sharding changed its verdict sequence");
    }
}

#[test]
fn slow_consumer_backpressure_is_bounded_and_explicit() {
    let det = detector();
    let trace = &corpus().traces[0].trace;
    let width = trace.schema().len();
    let flat = trace.flat_values();
    let row = |j: usize| -> Box<[f64]> { flat[j * width..(j + 1) * width].into() };

    let queue_depth = 4;
    let service = Perspectrond::start(
        det,
        ServiceConfig {
            shards: 1,
            queue_depth,
            batch_windows: 4,
            // The first sweep stalls long enough for the producer to slam
            // the queue: the bounded channel must fill and reject, not grow.
            chaos: ChaosSpec {
                stalls: vec![StallAt {
                    shard: 0,
                    sweep: 1,
                    stall: Duration::from_millis(25),
                }],
                ..ChaosSpec::quiet()
            },
            ..ServiceConfig::default()
        },
    );
    let submitter = service.submitter();

    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let attempts = 200u64;
    for j in 0..attempts {
        match submitter.try_submit(7, (j + 1) * 10_000, row(j as usize % trace.len())) {
            Ok(()) => accepted += 1,
            Err(SubmitError::Busy { shard }) => {
                assert_eq!(shard, 0);
                rejected += 1;
            }
            Err(SubmitError::Deadline { .. }) => panic!("try_submit never retries"),
            Err(SubmitError::Shutdown) => panic!("service died"),
            Err(e @ SubmitError::Malformed { .. }) => panic!("schema-wide row rejected: {e}"),
        }
    }
    assert!(
        rejected > 0,
        "queue depth {queue_depth} with a consumer stalled 25ms must shed \
         some of {attempts} back-to-back submissions"
    );
    assert_eq!(submitter.busy_rejections(), rejected);
    assert_eq!(accepted + rejected, attempts);

    drop(submitter);
    let report = service.shutdown().expect("clean shutdown");
    // Nothing was silently buffered or dropped: exactly the accepted
    // windows were scored, in order.
    assert_eq!(report.windows_scored, accepted);
    assert_eq!(report.busy_rejections, rejected);
    let verdicts = report.verdicts_of(7).expect("stream 7 scored");
    assert_eq!(verdicts.len() as u64, accepted);
}

#[test]
fn drain_is_a_verdict_barrier_for_partial_batches() {
    let det = detector();
    let trace = &corpus().traces[0].trace;
    let width = trace.schema().len();
    let flat = trace.flat_values();

    let service = Perspectrond::start(
        det,
        ServiceConfig {
            shards: 2,
            batch_windows: 64,
            ..ServiceConfig::default()
        },
    );
    let submitter = service.submitter();
    let patient = SubmitPolicy::patient();
    // 3 windows per stream — far below one batch, so only a sweep on the
    // drain (or idle coalesce exhaustion) can score them.
    for s in 0..8u64 {
        for j in 0..3usize {
            submitter
                .submit_with_policy(
                    s,
                    (j as u64 + 1) * 10_000,
                    flat[j * width..(j + 1) * width].into(),
                    &patient,
                )
                .expect("submit");
        }
    }
    service.drain();
    drop(submitter);
    let report = service.shutdown().expect("clean shutdown");
    assert_eq!(report.windows_scored, 24);
    for s in 0..8u64 {
        assert_eq!(report.verdicts_of(s).map(<[_]>::len), Some(3));
    }
}

#[test]
fn perspectrond_leaves_a_file_that_is_not_a_corpus_alone() {
    let path = std::env::temp_dir().join(format!(
        "perspectron_service_not_a_corpus_{}.pspc",
        std::process::id()
    ));
    std::fs::write(&path, b"not a corpus").expect("write");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perspectrond"))
        .env("PERSPECTRON_QUICK", "1")
        .args(["--streams", "1", "--corpus"])
        .arg(&path)
        .output()
        .expect("run perspectrond");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    assert!(
        !out.status.success(),
        "perspectrond accepted a file that is not a corpus"
    );
    assert_eq!(bytes, b"not a corpus", "perspectrond rewrote the file");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// No row a client can submit crashes a shard: rows of any width
    /// (0..2× the schema) holding any values, NaN and ±∞ included, are
    /// either accepted and scored or rejected as `Malformed` before they
    /// reach a queue — through `try_submit` and two submit policies — and the
    /// service finishes with zero supervised restarts.
    #[test]
    fn malformed_rows_are_rejected_without_a_shard_restart(seed in 0u64..u64::MAX) {
        let width = detector().schema().len();
        let mut s = seed.max(1);
        let mut next = move || {
            // xorshift64*
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            s.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let service = Perspectrond::start(
            detector(),
            ServiceConfig {
                shards: 2,
                ..ServiceConfig::default()
            },
        );
        let submitter = service.submitter();
        let policy = SubmitPolicy::default();
        let patient = SubmitPolicy::patient();
        let mut accepted = 0u64;
        for j in 0..24u64 {
            // Half the rows are schema-wide, so accepted windows with
            // poisoned values reach the shards too.
            let len = if next() % 2 == 0 {
                width
            } else {
                (next() % (2 * width as u64)) as usize
            };
            let row: Box<[f64]> = (0..len)
                .map(|_| match next() % 8 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => 0.0,
                    _ => (next() % 1_000_000) as f64,
                })
                .collect();
            let stream = next() % 4;
            let at = (j + 1) * 10_000;
            let result = match j % 3 {
                0 => submitter.try_submit(stream, at, row),
                1 => submitter.submit_with_policy(stream, at, row, &patient),
                _ => submitter.submit_with_policy(stream, at, row, &policy),
            };
            match result {
                Ok(()) => {
                    prop_assert_eq!(len, width);
                    accepted += 1;
                }
                Err(SubmitError::Malformed { expected, got }) => {
                    prop_assert_eq!(expected, width);
                    prop_assert_eq!(got, len);
                    prop_assert!(len != width);
                }
                Err(e) => prop_assert!(false, "unexpected submit error: {}", e),
            }
        }
        drop(submitter);
        let report = service.shutdown().expect("no shard died");
        prop_assert_eq!(report.restarts.len(), 0);
        prop_assert_eq!(report.windows_scored, accepted);
    }
}

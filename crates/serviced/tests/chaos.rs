//! Fault-tolerance contract tests: supervised shard restarts preserve
//! bit-identity, losses are typed and quarantined (never silent), shards
//! catch their own wedges (and never mistake idling for one), submit
//! policies shed on deadline, and the whole chaos surface is
//! byte-reproducible from its seed.

use std::sync::OnceLock;
use std::time::Duration;

use perspectron::corpus_io::{self, CorpusReader};
use perspectron::{
    CollectedCorpus, CorpusSpec, FaultPlan, FaultSpec, IntervalVerdict, PerSpectron, SessionState,
};
use perspectron_serviced::{
    replay_clients, ChaosSpec, PanicAt, Perspectrond, PoisonPill, ReplayConfig, RestartCause,
    ServiceConfig, ServiceError, StallAt, SubmitError, SubmitPolicy,
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
        "perspectron_chaos_{tag}_{}.pspc",
        std::process::id()
    ));
    corpus_io::write_corpus(&path, corpus()).expect("write corpus");
    path
}

/// Per-trace verdict sequences of `c`, each trace run alone through the
/// single-stream packed sink — the bit-identity reference.
fn lone_verdicts(c: &CollectedCorpus) -> Vec<Vec<IntervalVerdict>> {
    let det = detector();
    c.traces
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
}

fn reference_verdicts() -> &'static Vec<Vec<IntervalVerdict>> {
    static R: OnceLock<Vec<Vec<IntervalVerdict>>> = OnceLock::new();
    R.get_or_init(|| lone_verdicts(corpus()))
}

fn chaos_config(shards: usize, chaos: ChaosSpec) -> ServiceConfig {
    ServiceConfig {
        shards,
        queue_depth: 128,
        chaos,
        ..ServiceConfig::default()
    }
}

/// Replays the clean corpus as `streams` concurrent streams against a
/// service shaped by `config`.
fn run_chaos_replay(
    config: ServiceConfig,
    streams: usize,
    tag: &str,
) -> perspectron_serviced::ServiceReport {
    let path = corpus_file(tag);
    let reader = CorpusReader::open(&path).expect("open corpus");
    let service = Perspectrond::start(detector(), config);
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
    let report = service.shutdown().expect("supervised shutdown");
    assert_eq!(outcome.shed, 0, "patient replay must not shed");
    assert_eq!(
        report.windows_scored + report.lost_windows(),
        outcome.submitted,
        "every accepted window must be scored or typed as lost — never silently dropped"
    );
    std::fs::remove_file(&path).ok();
    report
}

fn assert_stream_matches_reference(
    report: &perspectron_serviced::ServiceReport,
    stream: u64,
    n_traces: usize,
) {
    let refs = reference_verdicts();
    let expect = &refs[stream as usize % n_traces];
    let got = report
        .verdicts_of(stream)
        .unwrap_or_else(|| panic!("stream {stream} lost"));
    assert_eq!(got.len(), expect.len(), "stream {stream}: window count");
    for (g, e) in got.iter().zip(expect) {
        assert_eq!(g.at_inst, e.at_inst, "stream {stream}: window reordered");
        assert_eq!(
            g.confidence.to_bits(),
            e.confidence.to_bits(),
            "stream {stream}: restart changed a verdict bit"
        );
        assert_eq!(g.suspicious, e.suspicious);
        assert_eq!(g.degraded, e.degraded);
    }
}

/// The headline recovery contract: a worker panic mid-run is survived by
/// a respawn that keeps every session and re-scores the carried batch,
/// so at fleet scale (≥256 streams) every stream stays bit-identical to
/// its lone `streaming_packed` run — at one shard and at four.
#[test]
fn worker_panic_mid_run_is_survived_with_bitwise_identical_verdicts() {
    let streams = 256;
    let n_traces = corpus().traces.len();
    for shards in [1usize, 4] {
        let chaos = ChaosSpec {
            seed: 0xabad_1dea,
            panics: vec![PanicAt { shard: 0, sweep: 3 }],
            ..ChaosSpec::quiet()
        };
        let report = run_chaos_replay(
            chaos_config(shards, chaos),
            streams,
            &format!("panic{shards}"),
        );
        assert_eq!(
            report.restarts.len(),
            1,
            "{shards} shard(s): exactly one supervised restart"
        );
        let restart = &report.restarts[0];
        assert_eq!(restart.shard, 0);
        assert!(
            matches!(&restart.cause, RestartCause::Panic { message } if message.contains("chaos")),
            "restart must carry the panic cause, got {:?}",
            restart.cause
        );
        assert_eq!(report.lost_windows(), 0, "a sweep panic loses nothing");
        assert_eq!(report.streams.len(), streams);
        for s in 0..streams as u64 {
            assert_stream_matches_reference(&report, s, n_traces);
        }
    }
}

/// A poison pill kills the worker while one window is in its hands: that
/// window — and only that window — is lost, its stream is quarantined,
/// and every other stream is untouched bit for bit.
#[test]
fn poison_pill_loses_exactly_one_window_and_quarantines_only_its_stream() {
    let streams = 64;
    let victim = 5u64;
    let n_traces = corpus().traces.len();
    let chaos = ChaosSpec {
        seed: 99,
        pills: vec![PoisonPill {
            stream: victim,
            window: 2,
        }],
        ..ChaosSpec::quiet()
    };
    let report = run_chaos_replay(chaos_config(2, chaos), streams, "pill");
    assert_eq!(report.restarts.len(), 1);
    assert!(matches!(
        report.restarts[0].cause,
        RestartCause::Panic { .. }
    ));
    assert_eq!(report.lost_windows(), 1);

    let refs = reference_verdicts();
    for s in 0..streams as u64 {
        let outcome = &report.streams[report
            .streams
            .binary_search_by_key(&s, |o| o.stream)
            .expect("stream reported")];
        if s == victim {
            assert_eq!(outcome.lost_windows, 1);
            assert_eq!(
                outcome.state,
                SessionState::Quarantined,
                "a lost window must quarantine its stream"
            );
            let expect = &refs[s as usize % n_traces];
            assert_eq!(
                outcome.verdicts.len(),
                expect.len() - 1,
                "exactly the pilled window is missing"
            );
            // Windows before the pill are untouched.
            for (g, e) in outcome.verdicts.iter().take(2).zip(expect) {
                assert_eq!(g.confidence.to_bits(), e.confidence.to_bits());
            }
        } else {
            assert_eq!(outcome.lost_windows, 0);
            assert_stream_matches_reference(&report, s, n_traces);
        }
    }
}

/// A stalled worker makes no progress for longer than `wedged_after`; it
/// sees the gap when the stalled sweep ends and restarts at the next loop
/// boundary — typed as `Wedged`, with nothing lost.
#[test]
fn watchdog_restarts_a_wedged_worker_without_losing_windows() {
    let trace = &corpus().traces[0].trace;
    let width = trace.schema().len();
    let flat = trace.flat_values();
    let n_traces = corpus().traces.len();

    let chaos = ChaosSpec {
        seed: 3,
        stalls: vec![StallAt {
            shard: 0,
            sweep: 2,
            stall: Duration::from_millis(600),
        }],
        ..ChaosSpec::quiet()
    };
    let service = Perspectrond::start(
        detector(),
        ServiceConfig {
            shards: 1,
            batch_windows: 2,
            wedged_after: Duration::from_millis(100),
            chaos,
            ..ServiceConfig::default()
        },
    );
    let submitter = service.submitter();
    let patient = SubmitPolicy::patient();
    for j in 0..trace.len() {
        let at = trace.instruction_counts()[j];
        submitter
            .submit_with_policy(0, at, flat[j * width..(j + 1) * width].into(), &patient)
            .expect("submit");
    }
    drop(submitter);
    let report = service.shutdown().expect("supervised shutdown");

    assert!(
        report
            .restarts
            .iter()
            .any(|r| r.cause == RestartCause::Wedged),
        "the 600ms stall must out-wait the 100ms wedged_after: {:?}",
        report.restarts
    );
    assert_eq!(report.lost_windows(), 0);
    assert_stream_matches_reference(&report, 0, n_traces);
}

/// Time blocked waiting for work is idle, not wedged: a shard that sits in
/// `recv` for five times its `wedged_after` between two windows records no
/// restart.
#[test]
fn an_idle_shard_is_not_wedged() {
    let trace = &corpus().traces[0].trace;
    let width = trace.schema().len();
    let flat = trace.flat_values();
    let row = |j: usize| -> Box<[f64]> { flat[j * width..(j + 1) * width].into() };

    let service = Perspectrond::start(
        detector(),
        ServiceConfig {
            shards: 1,
            wedged_after: Duration::from_millis(50),
            ..ServiceConfig::default()
        },
    );
    let submitter = service.submitter();
    let patient = SubmitPolicy::patient();
    let at = trace.instruction_counts();
    submitter
        .submit_with_policy(0, at[0], row(0), &patient)
        .expect("first window");
    service.drain();
    std::thread::sleep(Duration::from_millis(250));
    submitter
        .submit_with_policy(0, at[1], row(1), &patient)
        .expect("second window");
    drop(submitter);
    let report = service.shutdown().expect("supervised shutdown");
    assert_eq!(report.windows_scored, 2);
    assert!(
        report.restarts.is_empty(),
        "250ms idle in recv counted as a wedge: {:?}",
        report.restarts
    );
}

/// Wedges count against the restart budget: with none to spend, a stall
/// longer than `wedged_after` kills the shard, and shutdown names the
/// wedge in its typed error.
#[test]
fn a_wedge_past_the_restart_budget_fails_shutdown() {
    let trace = &corpus().traces[0].trace;
    let width = trace.schema().len();
    let service = Perspectrond::start(
        detector(),
        ServiceConfig {
            shards: 1,
            max_restarts_per_shard: 0,
            wedged_after: Duration::from_millis(50),
            chaos: ChaosSpec {
                seed: 3,
                stalls: vec![StallAt {
                    shard: 0,
                    sweep: 1,
                    stall: Duration::from_millis(200),
                }],
                ..ChaosSpec::quiet()
            },
            ..ServiceConfig::default()
        },
    );
    let submitter = service.submitter();
    submitter
        .try_submit(0, 10_000, trace.flat_values()[..width].into())
        .expect("one window");
    drop(submitter);
    match service.shutdown() {
        Err(ServiceError::ShardPanicked { shard, message, .. }) => {
            assert_eq!(shard, 0);
            assert!(message.contains("wedged"), "cause preserved: {message}");
        }
        Ok(report) => panic!("a wedge past the budget must fail shutdown: {report:?}"),
    }
}

/// Policy submissions give up with a typed `Deadline` instead of blocking
/// forever against a wedged shard — with a retry budget and with none —
/// and the sheds/retries are accounted in the report.
#[test]
fn submit_deadlines_shed_against_a_wedged_shard() {
    let trace = &corpus().traces[0].trace;
    let width = trace.schema().len();
    let flat = trace.flat_values();
    let row = |j: usize| -> Box<[f64]> { flat[j * width..(j + 1) * width].into() };

    // The first sweep wedges the worker for 900ms; during that window the
    // depth-2 queue cannot drain.
    let chaos = ChaosSpec {
        seed: 3,
        stalls: vec![StallAt {
            shard: 0,
            sweep: 1,
            stall: Duration::from_millis(900),
        }],
        ..ChaosSpec::quiet()
    };
    let service = Perspectrond::start(
        detector(),
        ServiceConfig {
            shards: 1,
            queue_depth: 2,
            // One window per sweep: the worker wedges with the queue
            // still full, instead of draining it into the batch first.
            batch_windows: 1,
            chaos,
            ..ServiceConfig::default()
        },
    );
    let submitter = service.submitter();
    // No retry bound: only the deadline stops this policy.
    let unbounded = SubmitPolicy {
        deadline: Duration::from_millis(100),
        max_retries: u32::MAX,
        ..SubmitPolicy::default()
    };

    // Wake the worker (first window → sweep 1 → 900ms stall), give it a
    // beat to wedge, then fill the queue behind it.
    submitter
        .submit_with_policy(0, 10_000, row(0), &unbounded)
        .expect("first window");
    std::thread::sleep(Duration::from_millis(100));
    let mut accepted = 1u64;
    while submitter.try_submit(0, 10_000, row(0)).is_ok() {
        accepted += 1;
    }

    // Bounded-retry path: budget exhausted → Deadline, with retries burned.
    let tight = SubmitPolicy {
        deadline: Duration::from_millis(80),
        max_retries: 1_000,
        ..SubmitPolicy::default()
    };
    match submitter.submit_with_policy(0, 10_000, row(0), &tight) {
        Err(SubmitError::Deadline { shard, retries }) => {
            assert_eq!(shard, 0);
            assert!(retries > 0, "the policy path must have retried");
        }
        other => panic!("expected Deadline against a wedged shard, got {other:?}"),
    }

    // Unbounded retries: the deadline alone ends the wait on the wedged
    // shard.
    match submitter.submit_with_policy(0, 10_000, row(0), &unbounded) {
        Err(SubmitError::Deadline { shard, .. }) => assert_eq!(shard, 0),
        other => panic!("expected Deadline from an unbounded policy, got {other:?}"),
    }

    assert_eq!(submitter.shed(), 2);
    assert!(submitter.retries() > 0);
    drop(submitter);
    let report = service.shutdown().expect("supervised shutdown");
    assert_eq!(report.shed, 2);
    assert!(report.retries > 0);
    assert_eq!(report.windows_scored, accepted);
}

/// Past its restart budget a shard's supervisor gives up — and shutdown
/// still merges every surviving shard's report instead of discarding the
/// whole run.
#[test]
fn exhausted_restart_budget_surfaces_typed_error_with_partial_report() {
    let trace = &corpus().traces[0].trace;
    let width = trace.schema().len();
    let flat = trace.flat_values();
    let n_traces = corpus().traces.len();

    let service = Perspectrond::start(
        detector(),
        ServiceConfig {
            shards: 2,
            max_restarts_per_shard: 0,
            chaos: ChaosSpec {
                seed: 1,
                panics: vec![PanicAt { shard: 0, sweep: 1 }],
                ..ChaosSpec::quiet()
            },
            ..ServiceConfig::default()
        },
    );
    let submitter = service.submitter();
    // One stream per shard. shard_of is stable, so probe for examples.
    let doomed = (0..u64::MAX).find(|&s| submitter.shard_of(s) == 0).unwrap();
    let survivor = (0..u64::MAX).find(|&s| submitter.shard_of(s) == 1).unwrap();
    let patient = SubmitPolicy::patient();
    for j in 0..trace.len() {
        let at = trace.instruction_counts()[j];
        let row = || -> Box<[f64]> { flat[j * width..(j + 1) * width].into() };
        // The doomed shard dies at its first sweep; later submissions to
        // it may see Shutdown. The surviving shard must accept everything.
        let _ = submitter.submit_with_policy(doomed, at, row(), &patient);
        submitter
            .submit_with_policy(survivor, at, row(), &patient)
            .expect("surviving shard accepts");
    }
    drop(submitter);
    match service.shutdown() {
        Err(ServiceError::ShardPanicked {
            shard,
            message,
            partial,
        }) => {
            assert_eq!(shard, 0);
            assert!(message.contains("chaos"), "cause preserved: {message}");
            // The survivor's full results are intact in the partial report.
            assert_stream_matches_reference(&partial, survivor, n_traces);
            assert!(
                partial.verdicts_of(doomed).is_none(),
                "dead shard's sessions are lost"
            );
        }
        Ok(_) => panic!("a dead shard must fail shutdown"),
    }
}

/// NaN storms flow through the sanitize/Degraded path and, at fleet
/// scale, drive the sticky quarantine — deterministically: the same seed
/// quarantines the same streams at any shard count.
#[test]
fn nan_storms_quarantine_the_same_streams_at_any_shard_count() {
    let streams = 64;
    let chaos = ChaosSpec {
        seed: 2024,
        storm_chance: 0.45,
        storm_frac: 0.25,
        ..ChaosSpec::quiet()
    };
    let mut config = chaos_config(1, chaos.clone());
    config.quarantine_after = 2; // tiny traces: 6 windows each
    let one = run_chaos_replay(config, streams, "storm1");
    let mut config = chaos_config(3, chaos);
    config.quarantine_after = 2;
    let three = run_chaos_replay(config, streams, "storm3");

    assert!(one.storms > 0, "≈45% of windows should storm");
    assert_eq!(one.storms, three.storms);
    let q1: Vec<u64> = one.quarantined_streams().collect();
    let q3: Vec<u64> = three.quarantined_streams().collect();
    assert!(!q1.is_empty(), "storm pressure must quarantine someone");
    assert!(q1.len() < streams, "storms must spare someone too");
    assert_eq!(q1, q3, "quarantine set must be shard-count invariant");
    assert_eq!(one.chaos_fingerprint(), three.chaos_fingerprint());

    // Streams the storm spared are bit-identical to their lone runs.
    let n_traces = corpus().traces.len();
    for o in one.streams.iter().filter(|o| o.degraded_windows == 0) {
        assert_stream_matches_reference(&one, o.stream, n_traces);
    }
}

/// End to end: a corpus faulted through the *sensor* fault plan
/// (`FaultPlan::fault_corpus`, byte-identical to collect-time injection)
/// replayed at fleet scale exercises degraded scoring and quarantine, and
/// stays bit-identical to lone faulted-stream runs.
#[test]
fn faulted_corpus_replay_exercises_quarantine_at_fleet_scale() {
    let clean = corpus();
    let plan = FaultPlan::new(
        FaultSpec {
            seed: 7,
            component_dropout: 0.30,
            corruption: 0.05,
            ..FaultSpec::none()
        },
        clean.schema(),
    );
    let faulted = plan.fault_corpus(clean);
    let path = std::env::temp_dir().join(format!(
        "perspectron_chaos_faulted_{}.pspc",
        std::process::id()
    ));
    corpus_io::write_corpus(&path, &faulted).expect("write faulted corpus");
    let reader = CorpusReader::open(&path).expect("open faulted corpus");

    let streams = 128;
    let mut config = chaos_config(3, ChaosSpec::quiet());
    config.quarantine_after = 2;
    let service = Perspectrond::start(detector(), config);
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
    std::fs::remove_file(&path).ok();

    assert_eq!(report.windows_scored, outcome.submitted);
    assert_eq!(report.streams.len(), streams);
    let degraded = report
        .streams
        .iter()
        .filter(|s| s.degraded_windows > 0)
        .count();
    assert!(
        degraded > 0,
        "30% dropout must degrade some windows somewhere"
    );
    assert!(
        report.quarantined_streams().count() > 0,
        "sustained dropout must quarantine streams at quarantine_after=2"
    );

    // Bit-identity holds on faulted data too: the service's sessions
    // sanitize and score exactly like the lone faulted sink.
    let refs = lone_verdicts(&faulted);
    let n_traces = faulted.traces.len();
    for s in 0..streams as u64 {
        let expect = &refs[s as usize % n_traces];
        let got = report.verdicts_of(s).expect("stream scored");
        assert_eq!(got.len(), expect.len(), "stream {s}");
        for (g, e) in got.iter().zip(expect) {
            assert_eq!(g.confidence.to_bits(), e.confidence.to_bits(), "stream {s}");
            assert_eq!(g.degraded, e.degraded, "stream {s}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The whole chaos surface is a pure function of (seed, plan, corpus):
    /// two runs agree on every data observable, the fingerprint is
    /// shard-count invariant, and chaos-free streams stay bit-identical
    /// to their lone runs — restarts included.
    #[test]
    fn chaos_outcomes_are_byte_reproducible(
        seed in 0u64..u64::MAX,
        pill_stream in 0u64..32,
        storm_chance in 0.05f64..0.3,
    ) {
        let streams = 32;
        let n_traces = corpus().traces.len();
        let chaos = ChaosSpec {
            seed,
            panics: vec![PanicAt { shard: 0, sweep: 2 }],
            pills: vec![PoisonPill { stream: pill_stream, window: 1 }],
            storm_chance,
            storm_frac: 0.2,
            ..ChaosSpec::quiet()
        };
        let a = run_chaos_replay(chaos_config(2, chaos.clone()), streams, "propA");
        let b = run_chaos_replay(chaos_config(2, chaos.clone()), streams, "propB");
        let c = run_chaos_replay(chaos_config(4, chaos), streams, "propC");

        // Same (seed, plan, shard count) twice: identical counters,
        // quarantine sets, verdicts — the fingerprint covers them all.
        prop_assert_eq!(a.chaos_fingerprint(), b.chaos_fingerprint());
        prop_assert_eq!(a.windows_scored, b.windows_scored);
        prop_assert_eq!(a.storms, b.storms);
        prop_assert_eq!(a.lost_windows(), b.lost_windows());
        prop_assert_eq!(
            a.quarantined_streams().collect::<Vec<_>>(),
            b.quarantined_streams().collect::<Vec<_>>()
        );
        // Different shard count: data observables still identical.
        prop_assert_eq!(a.chaos_fingerprint(), c.chaos_fingerprint());

        // The pill cost exactly one window, on the pilled stream.
        prop_assert_eq!(a.lost_windows(), 1);

        // Chaos-free streams — untouched by storms and pills — are
        // bit-identical to their lone streaming_packed runs even though a
        // worker panicked and restarted mid-run.
        let mut spared = 0;
        for o in a.streams.iter() {
            if o.degraded_windows == 0 && o.lost_windows == 0 {
                spared += 1;
                assert_stream_matches_reference(&a, o.stream, n_traces);
            }
        }
        prop_assert!(spared > 0, "some stream should dodge {storm_chance} storms");
    }
}

//! The detection service end to end: a supervised `Perspectrond` that
//! survives injected chaos keeps every untouched stream bit-identical to
//! its lone run, and its cross-session packed sweeps reproduce a dense
//! `f64` oracle on a small corpus.

use std::sync::{Arc, OnceLock};

use perspectron::{
    CollectedCorpus, CorpusSpec, Encoding, IntervalVerdict, PerSpectron, RowEncoder,
};
use perspectron_repro::mlkit::Classifier;
use perspectron_serviced::{
    ChaosSpec, PanicAt, Perspectrond, PoisonPill, RestartCause, ServiceConfig, ServiceReport,
    SubmitPolicy,
};
use uarch_stats::SampleSink;

/// One attack and one benign workload, six windows each.
fn corpus() -> &'static CollectedCorpus {
    static C: OnceLock<CollectedCorpus> = OnceLock::new();
    C.get_or_init(|| {
        let mut workloads = workloads::full_suite();
        workloads.retain(|w| w.name == "flush-reload" || w.name == "hmmer");
        CorpusSpec {
            insts_per_workload: 60_000,
            sample_interval: 10_000,
            workloads,
        }
        .collect()
    })
}

fn detector() -> &'static PerSpectron {
    static D: OnceLock<PerSpectron> = OnceLock::new();
    D.get_or_init(|| PerSpectron::train(corpus(), 42))
}

/// Runs `streams` streams through a service shaped by `config`; stream
/// `s` replays trace `s % traces`, its windows interleaved with every
/// other stream's. Returns the report and the windows accepted.
fn serve(config: ServiceConfig, streams: u64) -> (ServiceReport, u64) {
    let traces = &corpus().traces;
    let service = Perspectrond::start(detector(), config);
    let submitter = service.submitter();
    let patient = SubmitPolicy::patient();
    let depth = traces.iter().map(|t| t.trace.len()).max().unwrap_or(0);
    let mut accepted = 0;
    for j in 0..depth {
        for s in 0..streams {
            let trace = &traces[s as usize % traces.len()].trace;
            if j < trace.len() {
                let at = trace.instruction_counts()[j];
                let row = trace.rows().nth(j).expect("row in range").into();
                // A poison pill may take the shard down mid-submission;
                // every window it accepted is accounted for in the report.
                if submitter.submit_with_policy(s, at, row, &patient).is_ok() {
                    accepted += 1;
                }
            }
        }
    }
    drop(submitter);
    (service.shutdown().expect("supervised shutdown"), accepted)
}

/// Each trace run alone through the single-stream packed sink.
fn lone_verdicts() -> Vec<Vec<IntervalVerdict>> {
    corpus()
        .traces
        .iter()
        .map(|t| {
            let mut sink = detector().streaming_packed();
            for (row, &at) in t.trace.rows().zip(t.trace.instruction_counts()) {
                sink.on_sample(at, row);
            }
            sink.verdicts().to_vec()
        })
        .collect()
}

fn bits(verdicts: &[IntervalVerdict]) -> Vec<(u64, u64, bool)> {
    verdicts
        .iter()
        .map(|v| (v.at_inst, v.confidence.to_bits(), v.suspicious))
        .collect()
}

/// A worker panic mid-sweep, NaN storms and a poison pill, from one seed:
/// the panic loses nothing, the pill loses exactly its window and
/// quarantines its stream, and every stream the chaos left alone renders
/// the verdicts it renders alone.
#[test]
fn chaos_run_keeps_untouched_streams_bit_identical_to_lone_runs() {
    let streams = 16;
    let victim = 5;
    let chaos = ChaosSpec {
        seed: 0x5eed,
        panics: vec![PanicAt { shard: 0, sweep: 2 }],
        pills: vec![PoisonPill {
            stream: victim,
            window: 1,
        }],
        storm_chance: 0.1,
        storm_frac: 0.2,
        ..ChaosSpec::quiet()
    };
    let config = ServiceConfig {
        shards: 2,
        // Small batches: shard 0 reaches its second sweep however the
        // windows happen to coalesce.
        batch_windows: 4,
        chaos,
        ..ServiceConfig::default()
    };
    let (report, accepted) = serve(config, streams);

    assert_eq!(report.restarts.len(), 2, "{:?}", report.restarts);
    assert!(report
        .restarts
        .iter()
        .all(|r| matches!(&r.cause, RestartCause::Panic { message } if message.contains("chaos"))));
    assert_eq!(report.windows_scored + report.lost_windows(), accepted);
    assert_eq!(report.lost_windows(), 1, "only the pilled window is lost");
    assert!(report.storms > 0, "the plan must storm some windows");

    let lone = lone_verdicts();
    let mut untouched = 0;
    for o in &report.streams {
        let expect = &lone[o.stream as usize % lone.len()];
        if o.stream == victim {
            assert_eq!(o.lost_windows, 1);
            assert_eq!(o.state, perspectron::SessionState::Quarantined);
            assert_eq!(o.verdicts.len(), expect.len() - 1);
            assert_eq!(bits(&o.verdicts[..1]), bits(&expect[..1]));
        } else if o.degraded_windows == 0 {
            assert_eq!(bits(&o.verdicts), bits(expect), "stream {}", o.stream);
            untouched += 1;
        }
    }
    assert!(untouched > 0, "the storms must spare some stream");
}

/// Batched packed sweeps across sessions and shards equal the dense
/// oracle: encode at full width, project onto the selected features, take
/// the dense dot product and normalize by |w|₁ + |b|.
#[test]
fn service_sweeps_match_the_dense_oracle_bit_for_bit() {
    let streams = 12;
    let config = ServiceConfig {
        shards: 3,
        ..ServiceConfig::default()
    };
    let (report, accepted) = serve(config, streams);
    assert_eq!(report.windows_scored, accepted);
    assert!(report.restarts.is_empty());

    let det = detector();
    let encoder = RowEncoder::new(Arc::clone(det.max_matrix()), Encoding::KSparse);
    let selected = &det.selection().selected;
    let p = det.perceptron();
    let norm = (p.weights().iter().map(|w| w.abs()).sum::<f64>() + p.bias().abs()).max(1e-12);
    let traces = &corpus().traces;
    for s in 0..streams {
        let trace = &traces[s as usize % traces.len()].trace;
        let got = report.verdicts_of(s).expect("stream scored");
        assert_eq!(got.len(), trace.len(), "stream {s}");
        for (j, (v, row)) in got.iter().zip(trace.rows()).enumerate() {
            let x = encoder.encode(row, j);
            let projected: Vec<f64> = selected.iter().map(|&f| x[f]).collect();
            let dense = p.score(&projected) / norm;
            assert_eq!(
                v.confidence.to_bits(),
                dense.to_bits(),
                "stream {s} window {j}: service {} vs dense {dense}",
                v.confidence
            );
            assert_eq!(v.suspicious, dense >= det.threshold);
            assert!(v.degraded.is_none());
        }
    }
}

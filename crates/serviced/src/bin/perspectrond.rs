//! `perspectrond` — train, serve, replay, report.
//!
//! Self-contained demonstration of the online detection service: collects
//! a training corpus on the simulator, trains the perceptron, writes the
//! corpus to the mmap-able columnar format, then replays it as thousands
//! of concurrent streams against the sharded service and prints the
//! operational report.
//!
//! ```text
//! perspectrond [--streams N] [--shards N] [--clients N] [--queue-depth N]
//!              [--corpus PATH] [--fault-plan PRESET[:SEED]] [--chaos SEED]
//! ```
//!
//! `--corpus` reuses (or creates) a corpus file instead of a temp file,
//! so repeated runs skip the simulator. A file that exists but does not
//! open as a corpus is reported and left alone (exit 1), never
//! overwritten. Set `PERSPECTRON_QUICK=1` for a smaller training corpus.
//!
//! `--fault-plan` replays a *faulted* copy of the corpus — the clean
//! corpus is trained on, then re-faulted in memory through the seeded
//! sensor-fault plan (`perspectron::FaultPlan::fault_corpus`, byte-identical
//! to collect-time injection) and replayed at fleet scale, exercising the
//! degraded/quarantine machinery across every stream. Presets: `quiet`,
//! `light` (5% component dropout, 1% value corruption), `heavy` (30%
//! dropout, 5% corruption); append `:SEED` to change the seed (default 7).
//!
//! `--chaos SEED` arms the service-tier chaos plan: a worker panic
//! mid-run (exercising supervised respawn), NaN storms on ~2% of windows,
//! and slow-consumer jitter — all deterministic from the seed.

use std::io::ErrorKind;
use std::time::Instant;

use perspectron::corpus_io::{self, CorpusIoError, CorpusReader};
use perspectron::{CorpusSpec, FaultPlan, FaultSpec, PerSpectron};
use perspectron_serviced::{
    replay_clients, ChaosSpec, PanicAt, Perspectrond, ReplayConfig, ServiceConfig,
};

struct Args {
    streams: usize,
    shards: usize,
    clients: usize,
    queue_depth: usize,
    corpus: Option<String>,
    fault_plan: Option<(String, u64)>,
    chaos: Option<u64>,
}

fn parse_fault_plan(arg: &str) -> (String, u64) {
    match arg.split_once(':') {
        Some((preset, seed)) => (
            preset.to_string(),
            seed.parse().expect("--fault-plan seed: u64"),
        ),
        None => (arg.to_string(), 7),
    }
}

fn fault_spec(preset: &str, seed: u64) -> FaultSpec {
    match preset {
        "quiet" => FaultSpec {
            seed,
            ..FaultSpec::none()
        },
        "light" => FaultSpec {
            seed,
            component_dropout: 0.05,
            corruption: 0.01,
            ..FaultSpec::none()
        },
        "heavy" => FaultSpec {
            seed,
            component_dropout: 0.30,
            corruption: 0.05,
            ..FaultSpec::none()
        },
        other => panic!("unknown fault preset {other} (quiet|light|heavy)"),
    }
}

fn chaos_spec(seed: u64, shards: usize) -> ChaosSpec {
    ChaosSpec {
        seed,
        // One mid-run worker crash on a seed-chosen shard: the supervisor
        // must respawn it with zero lost windows.
        panics: vec![PanicAt {
            shard: (seed as usize) % shards.max(1),
            sweep: 3,
        }],
        storm_chance: 0.02,
        storm_frac: 0.10,
        jitter_chance: 0.05,
        jitter_max: std::time::Duration::from_micros(200),
        ..ChaosSpec::quiet()
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        streams: 1024,
        shards: std::thread::available_parallelism().map_or(1, |n| n.get()),
        clients: 4,
        queue_depth: 256,
        corpus: None,
        fault_plan: None,
        chaos: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--streams" => args.streams = value("--streams").parse().expect("--streams: usize"),
            "--shards" => args.shards = value("--shards").parse().expect("--shards: usize"),
            "--clients" => args.clients = value("--clients").parse().expect("--clients: usize"),
            "--queue-depth" => {
                args.queue_depth = value("--queue-depth")
                    .parse()
                    .expect("--queue-depth: usize")
            }
            "--corpus" => args.corpus = Some(value("--corpus")),
            "--fault-plan" => args.fault_plan = Some(parse_fault_plan(&value("--fault-plan"))),
            "--chaos" => args.chaos = Some(value("--chaos").parse().expect("--chaos: u64")),
            "--help" | "-h" => {
                println!(
                    "perspectrond [--streams N] [--shards N] [--clients N] \
                     [--queue-depth N] [--corpus PATH] \
                     [--fault-plan quiet|light|heavy[:SEED]] [--chaos SEED]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    args
}

fn main() {
    let args = parse_args();

    // 1. A corpus to train on and replay: reuse the file when given and
    // present, collect on the simulator and write it out when absent, and
    // refuse anything else rather than overwrite it.
    let path = args.corpus.clone().unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("perspectrond_{}.pspc", std::process::id()))
            .to_string_lossy()
            .into_owned()
    });
    let reader = match CorpusReader::open(&path) {
        Ok(r) => {
            eprintln!("corpus: reusing {path} ({} traces)", r.n_traces());
            r
        }
        Err(CorpusIoError::Io(e)) if e.kind() == ErrorKind::NotFound => {
            eprintln!("corpus: collecting on the simulator…");
            let spec = if std::env::var("PERSPECTRON_QUICK").is_ok() {
                CorpusSpec::quick()
            } else {
                CorpusSpec::quick().with_insts(300_000)
            };
            let collected = spec.collect();
            corpus_io::write_corpus(&path, &collected).expect("write corpus");
            eprintln!(
                "corpus: wrote {} traces to {path} (mmap: columnar, checksummed)",
                collected.traces.len()
            );
            CorpusReader::open(&path).expect("reopen corpus")
        }
        Err(e) => {
            eprintln!("corpus: cannot use {path}: {e}");
            std::process::exit(1);
        }
    };

    // 2. Train the detector on the clean (materialized) corpus.
    eprintln!("train: perceptron over the selected invariant features…");
    let corpus = reader.load_all().expect("load corpus");
    let detector = PerSpectron::train(&corpus, 42);

    // 2b. Optionally re-fault the clean corpus through the seeded sensor
    // fault plan and replay *that* — the detector stays trained on clean
    // data, so the replay exercises degraded scoring and quarantine.
    let mut faulted_path: Option<String> = None;
    let replay_reader = match &args.fault_plan {
        None => reader,
        Some((preset, seed)) => {
            let spec = fault_spec(preset, *seed);
            eprintln!(
                "faults: re-faulting corpus with preset {preset} (seed {seed}, \
                 dropout {:.0}%, corruption {:.0}%)",
                spec.component_dropout * 100.0,
                spec.corruption * 100.0
            );
            let plan = FaultPlan::new(spec, corpus.schema());
            let faulted = plan.fault_corpus(&corpus);
            let fpath = format!("{path}.faulted");
            corpus_io::write_corpus(&fpath, &faulted).expect("write faulted corpus");
            let r = CorpusReader::open(&fpath).expect("reopen faulted corpus");
            faulted_path = Some(fpath);
            r
        }
    };

    // 3. Serve and replay.
    let mut config = ServiceConfig {
        shards: args.shards,
        queue_depth: args.queue_depth,
        ..ServiceConfig::default()
    };
    if let Some(seed) = args.chaos {
        config.chaos = chaos_spec(seed, config.shards);
        eprintln!("chaos: armed (seed {seed}): worker panic, NaN storms, jitter");
    }
    eprintln!(
        "serve: {} shards, queue depth {}, batch {} windows",
        config.shards.max(1),
        config.queue_depth,
        config.batch_windows
    );
    let service = Perspectrond::start(&detector, config);
    let submitter = service.submitter();
    let replay = ReplayConfig {
        streams: args.streams,
        client_threads: args.clients,
    };
    let started = Instant::now();
    let outcome = replay_clients(&replay_reader, &submitter, &replay);
    drop(submitter);
    let report = match service.shutdown() {
        Ok(r) => r,
        Err(e) => panic!("service failed to shut down cleanly: {e}"),
    };
    let elapsed = started.elapsed();

    // 4. Report.
    let windows_per_sec = report.windows_scored as f64 / elapsed.as_secs_f64();
    let suspicious_streams = report
        .streams
        .iter()
        .filter(|s| s.verdicts.iter().any(|v| v.suspicious))
        .count();
    let degraded_streams = report
        .streams
        .iter()
        .filter(|s| s.degraded_windows > 0)
        .count();
    println!("perspectrond report");
    println!("  streams              {}", outcome.streams);
    println!("  shards               {}", report.shards);
    println!("  windows scored       {}", report.windows_scored);
    println!(
        "  sweeps               {} (max coalesced {})",
        report.sweeps, report.max_coalesced
    );
    println!(
        "  busy retries         {} ({} shed)",
        outcome.busy_retries, report.shed
    );
    println!(
        "  worker restarts      {} (lost windows {}, storms {})",
        report.restarts.len(),
        report.lost_windows(),
        report.storms
    );
    println!(
        "  latency p50 / p99    {} us / {} us",
        report.p50_us(),
        report.p99_us()
    );
    println!("  aggregate throughput {windows_per_sec:.0} windows/s");
    println!("  suspicious streams   {suspicious_streams}");
    println!("  degraded streams     {degraded_streams}");
    println!(
        "  quarantined streams  {}",
        report.quarantined_streams().count()
    );
    if args.corpus.is_none() {
        std::fs::remove_file(&path).ok();
    }
    if let Some(fpath) = faulted_path {
        std::fs::remove_file(&fpath).ok();
    }
}

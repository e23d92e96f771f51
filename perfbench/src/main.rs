//! The repository benchmark. See `perfbench/README.md` for what each
//! workload is for and which layer metric should move which end-to-end
//! metric.
//!
//! ```text
//! perfbench --workload collect|engine|replay_max|replay_paced
//!           --seed N --seconds S --trace 0|1 --dir DIR
//! ```
//!
//! Prints one `{"info": …}` line and, last, the result line
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! when untraced, the per-layer metrics when traced. `DIR` holds the
//! corpus file while the run lasts and, when traced, the span file.

mod collect;
mod engine;
mod reference;
mod replay;
mod report;
mod setup;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use perspectron_serviced::Perspectrond;

use crate::reference::Reference;
use crate::report::{median, Outcome, END_TO_END};
use crate::setup::Fleet;
use crate::trace::span;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Set-up repetitions of the detection workloads; `setup_s` is their
/// median.
const FLEET_SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Collect,
    Engine,
    ReplayMax,
    ReplayPaced,
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut name = String::new();
    let mut seed = setup::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut dir = PathBuf::from(".bench_build/perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                name = value.clone();
                workload = Some(match value.as_str() {
                    "collect" => Workload::Collect,
                    "engine" => Workload::Engine,
                    "replay_max" => Workload::ReplayMax,
                    "replay_paced" => Workload::ReplayPaced,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {seconds} outside (0, 600]"));
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--dir" => dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        name,
        seed,
        seconds,
        traced,
        dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.traced {
        trace::enable();
    }
    if let Err(e) = std::fs::create_dir_all(&args.dir) {
        eprintln!("perfbench: {}: {e}", args.dir.display());
        return ExitCode::FAILURE;
    }
    let mut out = Outcome::default();
    out.info("workload", &args.name);
    out.info("seed", args.seed);
    out.info(
        "available_parallelism",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let result = match args.workload {
        Workload::Collect => {
            collect::run(args.seed, args.seconds, &mut out);
            Ok(())
        }
        w => detection(w, &args, &mut out),
    };
    if let Err(e) = result {
        eprintln!("perfbench: set-up failed: {e}");
        return ExitCode::FAILURE;
    }
    out.set("peak_rss_mb", trace::peak_rss_mib());
    // The traced run's own end-to-end values, from which `run.py` derives
    // the tracing overhead.
    for (name, _) in END_TO_END {
        if let Some(v) = out.metrics.get(name).copied() {
            out.info(name, v);
        }
    }
    if args.traced {
        let path = args
            .dir
            .join(format!("spans-{}-{}.jsonl", args.name, args.seed));
        match trace::write_spans(&path) {
            Ok(()) => out.info("spans", path.display()),
            Err(e) => eprintln!("perfbench: {}: {e}", path.display()),
        }
    }
    let (info, result) = out.render(args.traced);
    println!("{info}");
    println!("{result}");
    ExitCode::SUCCESS
}

/// Set-up, run and checks of `engine`, `replay_max` and `replay_paced`.
fn detection(workload: Workload, args: &Args, out: &mut Outcome) -> Result<(), String> {
    let faults = (workload == Workload::ReplayPaced).then(|| setup::paced_faults(args.seed));
    let starts_service = workload != Workload::Engine;
    let mut times = Vec::with_capacity(FLEET_SETUP_REPS);
    let mut kept: Option<(Fleet, Option<Perspectrond>)> = None;
    for rep in 0..FLEET_SETUP_REPS {
        if let Some((_, Some(service))) = kept.take() {
            service.shutdown().map_err(|e| e.to_string())?;
        }
        let name = format!("corpus-{}-{rep}.pspc", std::process::id());
        let t = Instant::now();
        let fleet = setup::fleet(args.seed, faults, &args.dir, &name)?;
        let service = starts_service.then(|| {
            span("serviced.start", || {
                Perspectrond::start(&fleet.detector, replay::config())
            })
        });
        times.push(t.elapsed().as_secs_f64());
        kept = Some((fleet, service));
    }
    out.set("setup_s", median(&mut times));
    let (fleet, service) = kept.expect("at least one set-up");
    out.info("corpus_fnv", format!("{:#018x}", fleet.file_fnv()));
    out.info("corpus_mapped", fleet.reader.is_mapped());
    let reference = Reference::build(&fleet, engine::ROUNDS);

    match (workload, service) {
        (Workload::Engine, _) => engine::run(&fleet, &reference, args.seed, args.seconds, out),
        (Workload::ReplayMax, Some(s)) => {
            replay::run_max(&fleet, &reference, s, args.seed, args.seconds, out)
        }
        (Workload::ReplayPaced, Some(s)) => {
            replay::run_paced(&fleet, &reference, s, args.seed, args.seconds, out)
        }
        _ => unreachable!("replay workloads start a service"),
    }
    out.info("degraded_share", out.metrics["core.degraded_share"]);

    let mean_ms = |name| trace::total(name).mean_ns() / 1e6;
    out.set("workloads.build_ms", mean_ms("workloads.build"));
    out.set("core.train_s", mean_ms("core.train") / 1e3);
    out.set("core.corpus_write_ms", mean_ms("core.corpus_write"));
    out.set("core.corpus_open_ms", mean_ms("core.corpus_open"));
    if starts_service {
        out.set("serviced.start_ms", mean_ms("serviced.start"));
    }
    fleet.sim.report_host(out);
    fleet.sim.report_simulated(out);
    Ok(())
}

//! `replay_max` and `replay_paced`: the benchmark's own generator driving
//! a one-shard `Perspectrond` from one thread.
//!
//! The generator reads each window's row from the mapped corpus file and
//! offers it with `Submitter::try_submit`. A `Busy` shard is retried
//! after `yield_now`, never after a sleep, so backoff policy plays no
//! part in the numbers.
//!
//! - `replay_max` offers windows as fast as the 256-deep queue admits. A
//!   pass gives [`STREAMS`] streams [`ROUNDS`] windows each on a freshly
//!   started service, drains and shuts it down; passes repeat until the
//!   time is up, so the service's per-window bookkeeping stays bounded
//!   however fast it runs. Timing covers first offer to drained.
//! - `replay_paced` is an open loop over one service for the whole run:
//!   round `k` is due at `t0 + k·period`, offers every one of
//!   [`PACED_STREAMS`] streams its next window, then calls `drain()`, the
//!   verdict barrier of one sampling period. A round's latency runs from
//!   its due time, so a late round carries its lag, and one late round
//!   does not move the rest of the schedule. The generator waits for a
//!   due time by spinning on `yield_now`. Streams wrap their trace.
//!
//! After the timed work every stream's verdicts and final state are
//! checked against the lone-stream oracle; shed, lost or mismatched
//! windows and worker restarts count as failed operations.

use std::time::{Duration, Instant};

use perspectron_serviced::{Perspectrond, ServiceConfig, ServiceReport, SubmitError, Submitter};

use crate::engine::{assign, report_rounds, ROUNDS, STREAMS};
use crate::reference::Reference;
use crate::report::{median, percentile, uncontended, Outcome};
use crate::setup::{Fleet, INTERVAL};
use crate::trace::{self, span};

/// Streams in `replay_paced`: few enough that a round stays short and a
/// run holds over a thousand rounds.
pub const PACED_STREAMS: usize = 256;
/// Period of `replay_paced` rounds: 256 windows every 10 ms is 25.6K
/// windows/s, about a third of `replay_max`'s 76K windows/s at the parent
/// commit on a 2-core x86-64 VM. Half would leave no headroom: a shared
/// VM's capacity swings by a third with its neighbours' load, and in slow
/// spells such a schedule overruns and its backlog grows without bound.
/// A constant, so every commit is offered the same load.
pub const PACED_PERIOD: Duration = Duration::from_millis(10);
/// Thread-name prefix of the service's shard workers.
const SHARD_THREAD: &str = "perspectrond-sh";

/// The service shape every replay workload uses: one shard, a 256-deep
/// queue, 64-window sweeps.
pub fn config() -> ServiceConfig {
    ServiceConfig {
        shards: 1,
        queue_depth: 256,
        batch_windows: 64,
        ..ServiceConfig::default()
    }
}

/// Generator-side accounting.
#[derive(Default)]
struct Generator {
    row: Vec<f64>,
    accepted: u64,
    busy: u64,
    failed: u64,
}

impl Generator {
    /// Reads window `n` of trace `t` and offers it to `stream` until the
    /// shard accepts it.
    fn offer(&mut self, fleet: &Fleet, sub: &Submitter, stream: usize, t: usize, n: usize) {
        let at = span("core.read_row", || {
            fleet.reader.read_row(t, n % fleet.rows[t], &mut self.row)
        })
        .expect("row index within its trace");
        loop {
            let row: Box<[f64]> = self.row.as_slice().into();
            let traced = trace::enabled();
            if traced {
                trace::begin();
            }
            let result = sub.try_submit(stream as u64, at, row);
            if traced {
                trace::end(if result.is_ok() {
                    "serviced.submit"
                } else {
                    "serviced.submit_busy"
                });
            }
            match result {
                Ok(()) => {
                    self.accepted += 1;
                    return;
                }
                Err(SubmitError::Busy { .. }) => {
                    self.busy += 1;
                    std::thread::yield_now();
                }
                Err(e) => {
                    eprintln!("replay: stream {stream}: {e}");
                    self.failed += 1;
                    return;
                }
            }
        }
    }
}

/// Service-side accounting over one or more service lifetimes.
#[derive(Default)]
struct ServiceTotals {
    /// Shard and watchdog CPU over the timed spans, ns. Totals, not
    /// per-round figures: another thread's CPU clock advances only at
    /// scheduler ticks, too coarse for a round.
    cpu_ns: u64,
    /// Shard thread CPU from `/proc` over the timed spans (traced only).
    shard_cpu_s: f64,
    windows: u64,
    sweeps: u64,
    degraded: u64,
    queue_us: Vec<f64>,
}

impl ServiceTotals {
    /// Shuts `service` down and checks its report: every accepted window
    /// scored, nothing shed, lost or restarted, and every stream
    /// (`traces[s]` for stream `s`, `windows` each) bit-identical to the
    /// oracle.
    fn finish(
        &mut self,
        service: Perspectrond,
        accepted: u64,
        reference: &Reference,
        traces: &[usize],
        windows: usize,
        out: &mut Outcome,
    ) {
        let report: ServiceReport = match service.shutdown() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("replay: {e}");
                out.failed += (traces.len() * windows) as u64;
                return;
            }
        };
        out.failed += report.windows_scored.abs_diff(accepted);
        out.failed += report.shed + report.lost_windows() + report.restarts.len() as u64;
        out.failed += (traces.len().abs_diff(report.streams.len()) * windows) as u64;
        for stream in &report.streams {
            let t = traces[stream.stream as usize];
            out.failed += reference.check_stream(t, &stream.verdicts, windows, stream.state);
            self.degraded += stream.degraded_windows as u64;
        }
        self.windows += report.windows_scored;
        self.sweeps += report.sweeps;
        self.queue_us
            .extend(report.latencies_us.iter().map(|&us| f64::from(us)));
    }

    /// Sets the service-side metrics both replay workloads share.
    fn report(&mut self, generator: &Generator, wall_ns: u64, client_ns: u64, out: &mut Outcome) {
        let windows = self.windows.max(1) as f64;
        let secs = wall_ns as f64 / 1e9;
        out.set("cpu_us_per_window", self.cpu_ns as f64 / 1e3 / windows);
        out.set("core.read_row_ns", trace::total("core.read_row").mean_ns());
        out.set(
            "serviced.submit_ns",
            trace::total("serviced.submit").mean_ns(),
        );
        out.set(
            "serviced.busy_per_kwindow",
            generator.busy as f64 * 1e3 / windows,
        );
        out.set(
            "serviced.windows_per_sweep",
            self.windows as f64 / self.sweeps.max(1) as f64,
        );
        out.set(
            "serviced.queue_p50_us",
            percentile(&mut self.queue_us, 50.0),
        );
        out.set(
            "serviced.queue_p99_us",
            percentile(&mut self.queue_us, 99.0),
        );
        out.set("serviced.shard_busy_share", self.shard_cpu_s / secs);
        out.set("bench.client_work_share", client_ns as f64 / wall_ns as f64);
        out.set("core.degraded_share", self.degraded as f64 / windows);
    }
}

/// CPU of every thread but the caller's, ns: the service's shard and
/// watchdog, since the generator is the only other thread running.
fn service_cpu_ns() -> u64 {
    trace::process_cpu_ns() - trace::thread_cpu_ns()
}

fn shard_cpu_s() -> f64 {
    if trace::enabled() {
        trace::threads_cpu_s(SHARD_THREAD)
    } else {
        0.0
    }
}

fn client_ns() -> u64 {
    trace::total("core.read_row").total_ns + trace::total("serviced.submit").total_ns
}

/// `replay_max`: passes of [`STREAMS`] × [`ROUNDS`] windows at the
/// highest rate the queue admits. `first` is the service set-up started.
pub fn run_max(
    fleet: &Fleet,
    reference: &Reference,
    first: Perspectrond,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) {
    let rss_setup = trace::rss_mib();
    let mut next = Some(first);
    let mut gen = Generator::default();
    let mut svc = ServiceTotals::default();
    let (mut wall_ns, mut allocs, mut client) = (0u64, 0u64, 0u64);
    let mut rss_run = rss_setup;
    let mut round_ms = Vec::new();
    let mut pass = 0u64;
    while (wall_ns as f64) / 1e9 < seconds {
        let service = next.take().unwrap_or_else(|| {
            span("serviced.start", || {
                Perspectrond::start(&fleet.detector, config())
            })
        });
        let sub = service.submitter();
        let traces: Vec<usize> = (0..STREAMS)
            .map(|s| assign(seed, pass, s, fleet.rows.len()))
            .collect();
        let accepted_before = gen.accepted;
        let (shard0, client0) = (shard_cpu_s(), client_ns());
        let (a0, c0, t0) = (trace::allocs(), service_cpu_ns(), Instant::now());
        for round in 0..ROUNDS {
            let r0 = Instant::now();
            span("bench.round", || {
                for (s, &t) in traces.iter().enumerate() {
                    gen.offer(fleet, &sub, s, t, round);
                }
            });
            round_ms.push(r0.elapsed().as_secs_f64() * 1e3);
        }
        span("serviced.drain", || service.drain());
        wall_ns += t0.elapsed().as_nanos() as u64;
        svc.cpu_ns += service_cpu_ns() - c0;
        allocs += trace::allocs() - a0;
        svc.shard_cpu_s += shard_cpu_s() - shard0;
        client += client_ns() - client0;
        rss_run = trace::rss_mib();
        drop(sub);
        let accepted = gen.accepted - accepted_before;
        svc.finish(service, accepted, reference, &traces, ROUNDS, out);
        pass += 1;
    }
    out.attempted += gen.accepted + gen.failed;
    out.failed += gen.failed;
    report_rounds(&mut round_ms, out);
    out.set(
        "serviced.allocs_per_window",
        allocs as f64 / svc.windows.max(1) as f64,
    );
    out.set("serviced.rss_growth_mb", rss_run - rss_setup);
    svc.report(&gen, wall_ns, client, out);
}

/// `replay_paced`: rounds of [`PACED_STREAMS`] windows every
/// [`PACED_PERIOD`] against `service`, for `seconds`.
pub fn run_paced(
    fleet: &Fleet,
    reference: &Reference,
    service: Perspectrond,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) {
    let rss_setup = trace::rss_mib();
    let sub = service.submitter();
    let traces: Vec<usize> = (0..PACED_STREAMS)
        .map(|s| assign(seed, 0, s, fleet.rows.len()))
        .collect();
    let rounds = ((seconds / PACED_PERIOD.as_secs_f64()).ceil() as usize).max(1);
    let mut gen = Generator::default();
    let mut svc = ServiceTotals::default();
    let mut latency_ms = Vec::with_capacity(rounds);
    let mut lag_ms = Vec::with_capacity(rounds);
    let (a0, c0, s0) = (trace::allocs(), service_cpu_ns(), shard_cpu_s());
    let t0 = Instant::now();
    for k in 0..rounds {
        let due = t0 + PACED_PERIOD * k as u32;
        // Spin rather than sleep: a sleeping vCPU on a busy host can wake
        // tens of milliseconds late, which would read as service latency.
        while Instant::now() < due {
            std::thread::yield_now();
        }
        lag_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        span("bench.round", || {
            for (s, &t) in traces.iter().enumerate() {
                gen.offer(fleet, &sub, s, t, k);
            }
        });
        span("serviced.drain", || service.drain());
        latency_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    svc.cpu_ns = service_cpu_ns() - c0;
    svc.shard_cpu_s = shard_cpu_s() - s0;
    let allocs = trace::allocs() - a0;
    let rss_run = trace::rss_mib();
    drop(sub);
    svc.finish(service, gen.accepted, reference, &traces, rounds, out);
    out.attempted += gen.accepted + gen.failed;
    out.failed += gen.failed;

    let windows_per_s = svc.windows as f64 / (wall_ns as f64 / 1e9);
    out.set("windows_per_s", windows_per_s);
    out.set("sim_insts_per_s", windows_per_s * INTERVAL as f64);
    out.set("latency_ms", uncontended(&mut latency_ms));
    out.set("bench.latency_p50_ms", median(&mut latency_ms));
    out.set("bench.latency_p99_ms", percentile(&mut latency_ms, 99.0));
    out.info("latency_samples", latency_ms.len());
    out.set("bench.gen_lag_p99_ms", percentile(&mut lag_ms, 99.0));
    out.set(
        "serviced.drain_ms",
        trace::total("serviced.drain").mean_ns() / 1e6,
    );
    out.set(
        "serviced.allocs_per_window",
        allocs as f64 / svc.windows.max(1) as f64,
    );
    out.set("serviced.rss_growth_mb", rss_run - rss_setup);
    svc.report(&gen, wall_ns, client_ns(), out);
}

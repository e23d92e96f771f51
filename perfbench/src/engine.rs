//! `engine`: the shard's window path without the service around it.
//!
//! One thread replays the corpus file as [`STREAMS`] round-robin streams
//! through `StreamSession::open_window` → `RowEncoder::encode_bits_into`
//! → `PackedRows::push`, scores every [`SWEEP`] windows with
//! `PackedPerceptron::score_rows` across sessions, then closes them with
//! `StreamSession::close_window`. A pass gives every stream
//! [`ROUNDS`] windows on fresh sessions; passes repeat until the time is
//! up, so memory stays bounded however fast the engine runs. Every
//! verdict and final session state is checked against the lone-stream
//! oracle after each pass, outside the timed span.

use std::time::Instant;

use mlkit::{BitRow, PackedRows};
use perspectron::{Degraded, StreamSession};

use crate::reference::Reference;
use crate::report::{median, percentile, uncontended, Outcome};
use crate::setup::{draw, Fleet, INTERVAL};
use crate::trace::{self, span};

/// Concurrent streams.
pub const STREAMS: usize = 1024;
/// Windows per stream in one pass; a round offers every stream's next
/// window.
pub const ROUNDS: usize = 64;
/// Windows per scoring sweep (the service's default batch).
pub const SWEEP: usize = 64;

/// The corpus trace stream `s` replays in pass `pass`.
pub fn assign(seed: u64, pass: u64, s: usize, traces: usize) -> usize {
    (draw(seed, (pass << 32) | s as u64) % traces as u64) as usize
}

/// Sets the round-based end-to-end metrics of `engine` and `replay_max`
/// from per-round wall times: rates come from the uncontended round (see
/// [`FAST_PERCENTILE`](crate::report::FAST_PERCENTILE)), so the host's
/// slow spells do not move them.
pub fn report_rounds(round_ms: &mut [f64], out: &mut Outcome) {
    let fast = uncontended(round_ms);
    let windows_per_s = STREAMS as f64 * 1e3 / fast;
    out.set("windows_per_s", windows_per_s);
    out.set("sim_insts_per_s", windows_per_s * INTERVAL as f64);
    out.set("latency_ms", fast);
    out.set("bench.latency_p50_ms", median(round_ms));
    out.set("bench.latency_p99_ms", percentile(round_ms, 99.0));
    out.info("latency_samples", round_ms.len());
}

/// Runs passes for `seconds` of timed work.
pub fn run(fleet: &Fleet, reference: &Reference, seed: u64, seconds: f64, out: &mut Outcome) {
    let detector = &fleet.detector;
    let encoder = detector.packed_encoder();
    let engine = detector.packed_perceptron();
    let mut bits = BitRow::zeros(encoder.width());
    let mut batch = PackedRows::new(encoder.width());
    let mut pending: Vec<(usize, u64, Option<Degraded>)> = Vec::with_capacity(SWEEP);
    let mut scores = Vec::with_capacity(SWEEP);
    let mut row = Vec::new();
    let (mut busy_ns, mut allocs, mut windows, mut degraded) = (0u64, 0u64, 0u64, 0u64);
    let (mut round_ms, mut round_cpu_us) = (Vec::new(), Vec::new());
    let mut pass = 0u64;
    while (busy_ns as f64) / 1e9 < seconds {
        let traces: Vec<usize> = (0..STREAMS)
            .map(|s| assign(seed, pass, s, fleet.rows.len()))
            .collect();
        let mut sessions: Vec<StreamSession> =
            (0..STREAMS).map(|_| StreamSession::new(detector)).collect();
        let (a0, t0) = (trace::allocs(), Instant::now());
        for round in 0..ROUNDS {
            let (r0, c0) = (Instant::now(), trace::thread_cpu_ns());
            span("bench.round", || {
                for (s, &t) in traces.iter().enumerate() {
                    let at = span("core.read_row", || {
                        fleet.reader.read_row(t, round % fleet.rows[t], &mut row)
                    })
                    .expect("row index within its trace");
                    let (point, status) =
                        span("core.open_window", || sessions[s].open_window(&mut row));
                    span("core.encode_bits", || {
                        encoder.encode_bits_into(&row, point, &mut bits)
                    });
                    span("mlkit.push", || batch.push(&bits))
                        .expect("encoder and batch widths agree");
                    pending.push((s, at, status));
                    if pending.len() == SWEEP {
                        span("mlkit.score_rows", || {
                            engine.score_rows(&batch, &mut scores)
                        });
                        for ((s, at, status), &raw) in pending.drain(..).zip(&scores) {
                            span("core.close_window", || {
                                sessions[s].close_window(detector, at, status, raw);
                            });
                        }
                        batch.clear();
                    }
                }
            });
            round_ms.push(r0.elapsed().as_secs_f64() * 1e3);
            round_cpu_us.push((trace::thread_cpu_ns() - c0) as f64 / 1e3);
        }
        busy_ns += t0.elapsed().as_nanos() as u64;
        allocs += trace::allocs() - a0;
        windows += (STREAMS * ROUNDS) as u64;
        for (session, &t) in sessions.iter().zip(&traces) {
            out.failed += reference.check_stream(t, session.verdicts(), ROUNDS, session.state());
            degraded += session.degraded_windows() as u64;
        }
        pass += 1;
    }
    out.attempted += windows;

    report_rounds(&mut round_ms, out);
    out.set(
        "cpu_us_per_window",
        uncontended(&mut round_cpu_us) / STREAMS as f64,
    );

    for (metric, span_name) in [
        ("core.read_row_ns", "core.read_row"),
        ("core.open_window_ns", "core.open_window"),
        ("core.encode_bits_ns", "core.encode_bits"),
        ("core.close_window_ns", "core.close_window"),
        ("mlkit.push_ns", "mlkit.push"),
    ] {
        out.set(metric, trace::total(span_name).mean_ns());
    }
    out.set(
        "mlkit.score_rows_ns",
        trace::total("mlkit.score_rows").total_ns as f64 / windows as f64,
    );
    out.set("core.allocs_per_window", allocs as f64 / windows as f64);
    out.set("core.degraded_share", degraded as f64 / windows as f64);
}

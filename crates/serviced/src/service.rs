//! The sharded detection service: N supervised worker threads, each
//! owning a shard of stream sessions, fed through bounded queues with
//! explicit backpressure and scoring windows in cross-session batched
//! sweeps.
//!
//! # Architecture
//!
//! ```text
//!  clients ──submit──► [bounded MPSC, depth Q] ──► supervisor ⟳ shard 0 ─┐
//!  clients ──submit──► [bounded MPSC, depth Q] ──► supervisor ⟳ shard 1 ─┼─► ServiceReport
//!                  …                                        …            ┘
//! ```
//!
//! A stream id hashes (FNV-1a) to exactly one shard, so one stream's
//! windows are always processed by one thread in submission order. Each
//! shard coalesces up to `batch_windows` queued windows — **across** its
//! sessions — into a single [`PackedRows`] sweep through
//! [`PackedPerceptron::score_rows`], amortizing the batch advantage over
//! the whole shard instead of one stream. Because a window's verdict
//! depends only on its own row bits and its stream's sampling point,
//! batch composition is invisible in the output: per-stream verdict
//! sequences are bit-identical to running each stream alone through
//! `PerSpectron::streaming_packed`, whatever the shard count or arrival
//! interleaving (pinned by the crate's tests).
//!
//! # Supervision
//!
//! Each shard thread is an Erlang-style supervisor loop around the actual
//! worker loop. All shard state — sessions, the in-flight batch, the
//! encoder and scratch buffers, counters, chaos bookkeeping — lives in
//! the supervisor's frame; the worker loop borrows it under
//! `catch_unwind`. The encoder and the detector's packed weights are
//! immutable and the scratch buffers are reset before each use, so a panic
//! can only tear the sessions and the batch. When the worker panics:
//!
//! - the supervisor records a typed [`ShardRestart`],
//! - repairs the state to the last consistent point (a panic inside a
//!   sweep leaves the whole batch intact and it is simply re-scored by the
//!   same frozen weights, so verdicts stay bit-identical; a panic while
//!   receiving a window loses exactly that window, and its stream is
//!   quarantined via [`StreamSession::record_lost_window`], never silently
//!   dropped), and
//! - re-enters the loop on the same queue.
//!
//! After [`ServiceConfig::max_restarts_per_shard`] restarts the
//! supervisor gives up and re-raises, which surfaces at shutdown as
//! [`ServiceError::ShardPanicked`] — still carrying the merged report of
//! every surviving shard.
//!
//! Each worker times its own stalls. It notes the time whenever a
//! blocking `recv` returns and whenever a sweep scores; a gap of
//! [`ServiceConfig::wedged_after`] or more between two such points means
//! the worker was wedged, and it restarts at the next loop boundary (a
//! controlled restart — nothing is lost, the cause is recorded as
//! [`RestartCause::Wedged`]). Time spent blocked waiting for work never
//! counts, so an idle shard sleeps in `recv` and never wakes on its own.
//!
//! # Backpressure
//!
//! Queues are `std::sync::mpsc::sync_channel`s with a fixed depth.
//! [`Submitter::try_submit`] never blocks and never buffers beyond that
//! depth: a full shard queue surfaces as [`SubmitError::Busy`] and the
//! caller decides — retry, skip the window, or shed the stream.
//! [`Submitter::submit_with_policy`] moves that decision into the
//! service: bounded retries with deterministic jittered backoff under a
//! hard deadline, with shed/retry counters surfaced in [`ServiceReport`].
//! Memory is bounded by `shards × queue_depth` in-flight windows no
//! matter how far producers outrun the scorer.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mlkit::{BitRow, PackedRows};
use perspectron::faults::{fnv1a, FNV1A_OFFSET};
use perspectron::stream::DEFAULT_QUARANTINE_AFTER;
use perspectron::{
    Degraded, IntervalVerdict, PerSpectron, RowEncoder, SessionState, StreamSession,
};

use crate::chaos::{ChaosSpec, ShardChaos};
use crate::policy::SubmitPolicy;

/// How the service is shaped: worker count, queue bound, batching policy,
/// fault-tolerance knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads, each owning one shard of streams. Clamped to ≥ 1.
    pub shards: usize,
    /// Bounded depth of each shard's submission queue — the backpressure
    /// knob. Clamped to ≥ 1.
    pub queue_depth: usize,
    /// Maximum windows coalesced into one batched scoring sweep.
    /// Clamped to ≥ 1.
    pub batch_windows: usize,
    /// Consecutive degraded windows before a stream is quarantined.
    pub quarantine_after: usize,
    /// Working time without progress after which a shard worker counts
    /// as wedged: the gap from a blocking `recv` returning, or a sweep
    /// scoring, to the next sweep scoring — at most one batch of windows
    /// and its sweep. Time blocked waiting for work does not count. The
    /// restart is cooperative — std threads cannot be killed — so it
    /// happens when the wedge releases; what the service guarantees is a
    /// typed [`RestartCause::Wedged`] restart instead of a silent stall.
    /// Clamped to ≥ 1 ms.
    pub wedged_after: Duration,
    /// Deterministic chaos injected into the shard workers.
    /// [`ChaosSpec::quiet`] (the default) injects nothing.
    pub chaos: ChaosSpec,
    /// Worker restarts a shard's supervisor tolerates before giving up
    /// and re-raising the panic (surfaced at shutdown as
    /// [`ServiceError::ShardPanicked`]). Zero means fail on the first
    /// panic.
    pub max_restarts_per_shard: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_depth: 256,
            batch_windows: 64,
            quarantine_after: DEFAULT_QUARANTINE_AFTER,
            wedged_after: Duration::from_secs(2),
            chaos: ChaosSpec::quiet(),
            max_restarts_per_shard: 3,
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The target shard's queue is full — explicit shed-load signal; the
    /// window was **not** buffered anywhere. Retry later or drop it.
    Busy {
        /// The shard whose queue was full.
        shard: usize,
    },
    /// The submission's deadline elapsed while the shard stayed busy —
    /// the policy paths' terminal shed signal. The window was **not**
    /// buffered anywhere.
    Deadline {
        /// The shard whose queue stayed full.
        shard: usize,
        /// Backoff-and-retry attempts burned before giving up.
        retries: u32,
    },
    /// The service has shut down; no further windows can be scored.
    Shutdown,
    /// The row is not as wide as the detector's schema. It was rejected
    /// before reaching a queue, so it can never crash a shard.
    Malformed {
        /// The schema width every row must have.
        expected: usize,
        /// The submitted row's width.
        got: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Busy { shard } => write!(f, "shard {shard} queue full"),
            SubmitError::Deadline { shard, retries } => {
                write!(
                    f,
                    "shard {shard} still busy after {retries} retries; deadline elapsed"
                )
            }
            SubmitError::Shutdown => write!(f, "service is shut down"),
            SubmitError::Malformed { expected, got } => {
                write!(f, "row has {got} values; the schema has {expected}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why the service failed to shut down cleanly.
#[derive(Debug)]
pub enum ServiceError {
    /// A shard worker died beyond its restart budget. The report of every
    /// *surviving* shard is still merged and attached — a fleet does not
    /// discard N-1 shards of verdicts because one shard crashed.
    ShardPanicked {
        /// The shard whose worker died.
        shard: usize,
        /// The panic message of the fatal (budget-exhausting) panic.
        message: String,
        /// Merged report of the surviving shards (the dead shard's
        /// sessions and latencies are lost with its thread).
        partial: Box<ServiceReport>,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::ShardPanicked {
                shard,
                message,
                partial,
            } => write!(
                f,
                "shard {shard} panicked beyond its restart budget ({message}); \
                 {} surviving shard(s) reported",
                partial.shards.saturating_sub(1)
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Why a shard worker was restarted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestartCause {
    /// The worker loop panicked and was respawned by its supervisor.
    Panic {
        /// The panic message (best effort; non-string payloads are
        /// summarized).
        message: String,
    },
    /// The worker went [`ServiceConfig::wedged_after`] or longer without
    /// progress and restarted itself at its next loop boundary.
    Wedged,
}

/// One supervised restart of a shard worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRestart {
    /// The shard whose worker restarted.
    pub shard: usize,
    /// What killed (or wedged) the worker.
    pub cause: RestartCause,
    /// Completed scoring sweeps on the shard when the restart happened.
    pub at_sweep: u64,
}

enum Msg {
    Window {
        stream: u64,
        at_inst: u64,
        row: Box<[f64]>,
        submitted: Instant,
    },
    Drain(SyncSender<()>),
}

/// FNV-1a 64 over the stream id — the shard routing hash.
fn stream_hash(stream: u64) -> u64 {
    fnv1a(FNV1A_OFFSET, &stream.to_le_bytes())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A cloneable, thread-safe submission handle.
///
/// Clone one per producer thread. Windows for one stream must be
/// submitted in order by a single thread at a time — the service
/// preserves per-queue FIFO order, not cross-thread wall-clock order.
///
/// **Every clone must be dropped before [`Perspectrond::shutdown`] can
/// complete**: shards exit when their queue disconnects, which requires
/// all senders gone.
#[derive(Debug, Clone)]
pub struct Submitter {
    txs: Arc<[SyncSender<Msg>]>,
    /// Schema width every submitted row must have.
    width: usize,
    busy: Arc<AtomicU64>,
    shed: Arc<AtomicU64>,
    retries: Arc<AtomicU64>,
}

impl Submitter {
    /// The shard a stream's windows are processed by.
    pub fn shard_of(&self, stream: u64) -> usize {
        (stream_hash(stream) % self.txs.len() as u64) as usize
    }

    /// Rejects a row that is not exactly schema-wide.
    fn check_width(&self, row: &[f64]) -> Result<(), SubmitError> {
        if row.len() == self.width {
            Ok(())
        } else {
            Err(SubmitError::Malformed {
                expected: self.width,
                got: row.len(),
            })
        }
    }

    /// Offers one window to `shard`'s queue without blocking. A full
    /// queue counts a `Busy` rejection and hands the row back.
    fn offer(
        &self,
        shard: usize,
        stream: u64,
        at_inst: u64,
        row: Box<[f64]>,
    ) -> Result<Option<Box<[f64]>>, SubmitError> {
        let msg = Msg::Window {
            stream,
            at_inst,
            row,
            submitted: Instant::now(),
        };
        match self.txs[shard].try_send(msg) {
            Ok(()) => Ok(None),
            Err(TrySendError::Disconnected(_)) => Err(SubmitError::Shutdown),
            Err(TrySendError::Full(Msg::Window { row, .. })) => {
                self.busy.fetch_add(1, Ordering::Relaxed);
                Ok(Some(row))
            }
            Err(TrySendError::Full(Msg::Drain(_))) => unreachable!("submit only sends windows"),
        }
    }

    /// Submits one sampling window without blocking. `row` is the
    /// stream's raw counter-delta row (full schema width); `at_inst` the
    /// committed-instruction count when the window closed.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Malformed`] when the row is not schema-wide,
    /// [`SubmitError::Busy`] when the shard's bounded queue is full (the
    /// window is dropped back to the caller), [`SubmitError::Shutdown`]
    /// when the shard is gone.
    pub fn try_submit(
        &self,
        stream: u64,
        at_inst: u64,
        row: Box<[f64]>,
    ) -> Result<(), SubmitError> {
        self.check_width(&row)?;
        let shard = self.shard_of(stream);
        match self.offer(shard, stream, at_inst, row)? {
            None => Ok(()),
            Some(_) => Err(SubmitError::Busy { shard }),
        }
    }

    /// Submits one window under an explicit [`SubmitPolicy`]: on `Busy`,
    /// sleeps the policy's deterministic jittered backoff and retries, up
    /// to [`SubmitPolicy::max_retries`] attempts and never past
    /// [`SubmitPolicy::deadline`]. A policy of `u32::MAX` retries (such as
    /// [`SubmitPolicy::patient`]) is bounded by its deadline alone — a
    /// wedged shard cannot hold a producer hostage forever.
    ///
    /// The window's latency clock (`submitted`) restarts on every
    /// attempt, so backoff spent *outside* the queue does not pollute the
    /// service's queue-to-verdict latency distribution.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Deadline`] when the budget is exhausted (the window
    /// is dropped back to the caller and counted in
    /// [`ServiceReport::shed`]), [`SubmitError::Shutdown`] when the shard
    /// is gone, [`SubmitError::Malformed`] when the row is not
    /// schema-wide.
    pub fn submit_with_policy(
        &self,
        stream: u64,
        at_inst: u64,
        mut row: Box<[f64]>,
        policy: &SubmitPolicy,
    ) -> Result<(), SubmitError> {
        self.check_width(&row)?;
        let shard = self.shard_of(stream);
        let start = Instant::now();
        let mut attempt: u32 = 0;
        while let Some(back) = self.offer(shard, stream, at_inst, row)? {
            row = back;
            let elapsed = start.elapsed();
            if attempt >= policy.max_retries || elapsed >= policy.deadline {
                self.shed.fetch_add(1, Ordering::Relaxed);
                return Err(SubmitError::Deadline {
                    shard,
                    retries: attempt,
                });
            }
            let nap = policy
                .backoff(stream, attempt)
                .min(policy.deadline - elapsed);
            std::thread::sleep(nap);
            self.retries.fetch_add(1, Ordering::Relaxed);
            attempt += 1;
        }
        Ok(())
    }

    /// `Busy` rejections observed across all clones of this submitter
    /// (every rejected `try_send`, including ones later absorbed by a
    /// policy retry).
    pub fn busy_rejections(&self) -> u64 {
        self.busy.load(Ordering::Relaxed)
    }

    /// Windows given up on by the policy paths (deadline or retry budget
    /// exhausted) across all clones of this submitter.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Backoff-and-retry attempts performed by the policy paths across
    /// all clones of this submitter.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
}

/// Final state of one stream when the service shut down.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// The stream id.
    pub stream: u64,
    /// Health at shutdown.
    pub state: SessionState,
    /// Windows scored under degraded input.
    pub degraded_windows: usize,
    /// Windows accepted by the service but lost to a worker crash before
    /// they could be scored. Any loss quarantines the stream.
    pub lost_windows: usize,
    /// Every verdict rendered for the stream, in submission order.
    pub verdicts: Vec<IntervalVerdict>,
}

/// Everything the service did, merged across shards at shutdown.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Worker threads the service ran with.
    pub shards: usize,
    /// Total windows scored (equals total verdicts across streams).
    pub windows_scored: u64,
    /// Batched scoring sweeps executed.
    pub sweeps: u64,
    /// Largest number of windows coalesced into one sweep.
    pub max_coalesced: usize,
    /// `Busy` rejections observed by the service's own submitters.
    pub busy_rejections: u64,
    /// Windows shed by the policy submit paths (deadline / retry budget
    /// exhausted before the shard drained).
    pub shed: u64,
    /// Backoff-and-retry attempts performed by the policy submit paths.
    pub retries: u64,
    /// Windows NaN-stormed by the chaos plan before scoring.
    pub storms: u64,
    /// Every supervised worker restart, in per-shard order.
    pub restarts: Vec<ShardRestart>,
    /// Submit-to-verdict latency of every window, microseconds, sorted
    /// ascending.
    pub latencies_us: Vec<u32>,
    /// Per-stream outcomes, sorted by stream id.
    pub streams: Vec<StreamOutcome>,
}

impl ServiceReport {
    fn percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let idx = (p * (self.latencies_us.len() - 1) as f64).round() as usize;
        self.latencies_us[idx] as u64
    }

    /// Median submit-to-verdict latency, microseconds.
    pub fn p50_us(&self) -> u64 {
        self.percentile_us(0.50)
    }

    /// 99th-percentile submit-to-verdict latency, microseconds.
    pub fn p99_us(&self) -> u64 {
        self.percentile_us(0.99)
    }

    /// The verdict sequence of one stream, if it ever submitted.
    pub fn verdicts_of(&self, stream: u64) -> Option<&[IntervalVerdict]> {
        self.streams
            .binary_search_by_key(&stream, |s| s.stream)
            .ok()
            .map(|i| self.streams[i].verdicts.as_slice())
    }

    /// Streams quarantined by the degraded-window state machine (or by a
    /// lost window).
    pub fn quarantined_streams(&self) -> impl Iterator<Item = u64> + '_ {
        self.streams
            .iter()
            .filter(|s| s.state == SessionState::Quarantined)
            .map(|s| s.stream)
    }

    /// Windows lost to worker crashes, across all streams.
    pub fn lost_windows(&self) -> u64 {
        self.streams.iter().map(|s| s.lost_windows as u64).sum()
    }

    /// FNV-1a digest of every *data* observable the chaos plan is allowed
    /// to influence deterministically: scored-window and storm totals,
    /// and per stream the final state, degraded/lost accounting, and the
    /// bit-exact verdict sequence.
    ///
    /// Timing observables — latencies, sweep/coalescing shapes, busy,
    /// retry and shed counts, restart timing — are deliberately excluded:
    /// they depend on scheduling, not on the plan. Two runs of the same
    /// `(chaos seed, plan, corpus)` must produce the same fingerprint at
    /// any shard count; the crate's chaos proptests pin exactly that.
    pub fn chaos_fingerprint(&self) -> u64 {
        let mut h = FNV1A_OFFSET;
        h = fnv1a(h, &self.windows_scored.to_le_bytes());
        h = fnv1a(h, &self.storms.to_le_bytes());
        h = fnv1a(h, &(self.streams.len() as u64).to_le_bytes());
        for s in &self.streams {
            h = fnv1a(h, &s.stream.to_le_bytes());
            h = fnv1a(h, &[s.state as u8]);
            h = fnv1a(h, &(s.degraded_windows as u64).to_le_bytes());
            h = fnv1a(h, &(s.lost_windows as u64).to_le_bytes());
            h = fnv1a(h, &(s.verdicts.len() as u64).to_le_bytes());
            for v in &s.verdicts {
                h = fnv1a(h, &v.at_inst.to_le_bytes());
                h = fnv1a(h, &v.confidence.to_bits().to_le_bytes());
                h = fnv1a(h, &[v.suspicious as u8]);
                match &v.degraded {
                    None => h = fnv1a(h, &[0]),
                    Some(d) => {
                        h = fnv1a(h, &[1]);
                        h = fnv1a(h, &(d.sanitized_values as u64).to_le_bytes());
                        for c in &d.missing_components {
                            h = fnv1a(h, c.as_bytes());
                            h = fnv1a(h, &[0xff]);
                        }
                    }
                }
            }
        }
        h
    }
}

struct ShardReport {
    windows: u64,
    sweeps: u64,
    max_coalesced: usize,
    storms: u64,
    restarts: Vec<ShardRestart>,
    latencies_us: Vec<u32>,
    streams: Vec<StreamOutcome>,
}

struct PendingWindow {
    stream: u64,
    at_inst: u64,
    degraded: Option<Degraded>,
    submitted: Instant,
}

/// Where in the message/sweep cycle the worker was when it last moved —
/// the recovery map. Each variant names the repair the supervisor applies
/// if an unwind lands there.
enum Region {
    /// Between messages: nothing to repair.
    Idle,
    /// Receiving a window, session untouched (the poison-pill site). The
    /// consumed message is gone: record the loss and quarantine the
    /// stream.
    Receiving { stream: u64 },
    /// Mid-handle, session possibly torn (open without a matching batch
    /// push). Roll the open back; if the batch holds an orphan row the
    /// whole batch is discarded with every pending stream quarantined —
    /// coarse, but this region is only reachable through a genuine bug,
    /// never through injected chaos.
    Opening { stream: u64 },
    /// Inside a scoring sweep: sessions are consistent (opened, not yet
    /// closed) and the batch is intact, so the respawned worker re-scores
    /// it — the carried batch. A batch that kills the worker twice is
    /// discarded instead, with every pending stream quarantined.
    Sweeping,
}

/// Per-shard state, owned by the supervisor frame: survives worker
/// panics and is repaired — never rebuilt — across restarts. The encoder
/// and weights are immutable, and both scratch buffers are reset before
/// each use, so a panic cannot damage them either.
struct ShardState {
    shard: usize,
    detector: Arc<PerSpectron>,
    encoder: RowEncoder,
    bits: BitRow,
    scores: Vec<f64>,
    sessions: HashMap<u64, StreamSession>,
    batch: PackedRows,
    pending: Vec<PendingWindow>,
    chaos: ShardChaos,
    region: Region,
    sweep_attempts: u32,
    /// When the worker last made progress: a `recv` returned or a sweep
    /// scored.
    progress: Instant,
    /// A gap of `wedged_after` or more since `progress` was seen; the
    /// worker restarts at its next loop boundary.
    wedged: bool,
    wedged_after: Duration,
    restarts: Vec<ShardRestart>,
    latencies_us: Vec<u32>,
    windows: u64,
    sweeps: u64,
    max_coalesced: usize,
    storms: u64,
    batch_windows: usize,
    quarantine_after: usize,
}

impl ShardState {
    fn new(detector: Arc<PerSpectron>, cfg: &ServiceConfig, shard: usize) -> Self {
        let encoder = detector.packed_encoder();
        let width = encoder.width();
        let batch_windows = cfg.batch_windows.max(1);
        Self {
            shard,
            encoder,
            bits: BitRow::zeros(width),
            scores: Vec::with_capacity(batch_windows),
            sessions: HashMap::new(),
            batch: PackedRows::new(width),
            pending: Vec::with_capacity(batch_windows),
            chaos: ShardChaos::new(Arc::new(cfg.chaos.clone()), shard),
            region: Region::Idle,
            sweep_attempts: 0,
            progress: Instant::now(),
            wedged: false,
            wedged_after: cfg.wedged_after.max(Duration::from_millis(1)),
            restarts: Vec::new(),
            latencies_us: Vec::new(),
            windows: 0,
            sweeps: 0,
            max_coalesced: 0,
            storms: 0,
            batch_windows,
            quarantine_after: cfg.quarantine_after.max(1),
            detector,
        }
    }

    fn handle(&mut self, msg: Msg) {
        match msg {
            Msg::Window {
                stream,
                at_inst,
                mut row,
                submitted,
            } => {
                let detector = &self.detector;
                let quarantine_after = self.quarantine_after;
                let session = self.sessions.entry(stream).or_insert_with(|| {
                    StreamSession::new(detector).with_quarantine_after(quarantine_after)
                });
                // The per-stream arrival index: windows already opened for
                // this stream, including ones still pending in the batch.
                // Per-stream FIFO makes it deterministic at any shard
                // count, which is what keys the window-level chaos.
                let window_index = session.windows_opened();
                self.region = Region::Receiving { stream };
                self.chaos.pill(stream, window_index);
                if self.chaos.storm(stream, window_index, &mut row) > 0 {
                    self.storms += 1;
                }
                self.region = Region::Opening { stream };
                let (point, degraded) = session.open_window(&mut row);
                self.encoder.encode_bits_into(&row, point, &mut self.bits);
                self.batch
                    .push(&self.bits)
                    .expect("encoder and batch widths agree");
                self.pending.push(PendingWindow {
                    stream,
                    at_inst,
                    degraded,
                    submitted,
                });
                self.region = Region::Idle;
            }
            Msg::Drain(ack) => {
                // Everything submitted before the drain is already in the
                // queue ahead of it (per-queue FIFO): sweep, then ack.
                self.sweep();
                let _ = ack.send(());
            }
        }
    }

    /// Scores the current batch in one `score_rows` sweep and closes
    /// every pending window against its session.
    fn sweep(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.region = Region::Sweeping;
        // 1-based: "panic at sweep N" fires before sweep N scores, and a
        // carried batch retries the *same* number after the respawn.
        self.chaos.before_sweep(self.sweeps + 1);
        self.detector
            .packed_perceptron()
            .score_rows(&self.batch, &mut self.scores);
        debug_assert_eq!(self.scores.len(), self.pending.len());
        let scored_at = Instant::now();
        self.wedged |= scored_at.duration_since(self.progress) >= self.wedged_after;
        self.progress = scored_at;
        self.max_coalesced = self.max_coalesced.max(self.pending.len());
        self.windows += self.pending.len() as u64;
        self.sweeps += 1;
        for (pw, &raw) in self.pending.drain(..).zip(self.scores.iter()) {
            let session = self
                .sessions
                .get_mut(&pw.stream)
                .expect("pending window belongs to an open session");
            session.close_window(&self.detector, pw.at_inst, pw.degraded, raw);
            let us = scored_at.duration_since(pw.submitted).as_micros();
            self.latencies_us
                .push(u32::try_from(us).unwrap_or(u32::MAX));
        }
        self.batch.clear();
        self.sweep_attempts = 0;
        self.region = Region::Idle;
    }

    /// Discards the in-flight batch, quarantining every stream that loses
    /// a window — loss is never silent.
    fn discard_batch(&mut self) {
        for pw in self.pending.drain(..) {
            if let Some(s) = self.sessions.get_mut(&pw.stream) {
                s.record_lost_window();
            }
        }
        self.batch.clear();
        self.sweep_attempts = 0;
    }

    /// Repairs the shard state after an unwind, according to the region
    /// the worker died in. Afterwards the batch/pending pair is
    /// consistent and every lost window is accounted for on its session.
    fn repair_after_unwind(&mut self) {
        let detector = Arc::clone(&self.detector);
        match std::mem::replace(&mut self.region, Region::Idle) {
            Region::Idle => {}
            Region::Receiving { stream } => {
                // The message was consumed before the crash: exactly one
                // window lost, on a session that was never touched.
                let quarantine_after = self.quarantine_after;
                self.sessions
                    .entry(stream)
                    .or_insert_with(|| {
                        StreamSession::new(&detector).with_quarantine_after(quarantine_after)
                    })
                    .record_lost_window();
            }
            Region::Opening { stream } => {
                if let Some(s) = self.sessions.get_mut(&stream) {
                    s.rollback_open();
                    s.record_lost_window();
                }
                if self.batch.len() > self.pending.len() {
                    // The encoded row made it into the batch but its
                    // bookkeeping did not; PackedRows has no pop, so the
                    // whole batch goes, loudly.
                    self.discard_batch();
                }
            }
            Region::Sweeping => {
                self.sweep_attempts += 1;
                if self.sweep_attempts >= 2 {
                    // The same batch killed the worker twice: a poison
                    // batch, not a transient. Drop it rather than crash-loop.
                    self.discard_batch();
                }
                // Otherwise: carried batch — sessions are open and the
                // rows are intact; the respawned loop re-scores them
                // bit-identically (same frozen weights).
            }
        }
    }

    fn into_report(self) -> ShardReport {
        let mut streams: Vec<StreamOutcome> = self
            .sessions
            .into_iter()
            .map(|(stream, session)| StreamOutcome {
                stream,
                state: session.state(),
                degraded_windows: session.degraded_windows(),
                lost_windows: session.lost_windows(),
                verdicts: session.into_verdicts(),
            })
            .collect();
        streams.sort_by_key(|s| s.stream);
        ShardReport {
            windows: self.windows,
            sweeps: self.sweeps,
            max_coalesced: self.max_coalesced,
            storms: self.storms,
            restarts: self.restarts,
            latencies_us: self.latencies_us,
            streams,
        }
    }
}

enum LoopExit {
    /// Queue disconnected: all submitters gone, stragglers swept.
    Disconnected,
    /// The worker saw itself wedged and stopped at a loop boundary.
    RestartRequested,
}

/// The worker loop proper: runs until disconnect, restart request, or
/// panic. Its state is borrowed from the supervisor.
fn worker_loop(st: &mut ShardState, rx: &Receiver<Msg>) -> LoopExit {
    // A carried batch from before a restart drains first, so sessions
    // see their windows close in the original order.
    st.sweep();
    loop {
        if std::mem::take(&mut st.wedged) {
            return LoopExit::RestartRequested;
        }
        // Block for the first message of a burst, then coalesce whatever
        // else is already queued — up to one batch — into the same sweep.
        // Time blocked here is idle, not wedged: the clock restarts.
        let Ok(msg) = rx.recv() else { break };
        st.progress = Instant::now();
        st.handle(msg);
        loop {
            if st.pending.len() >= st.batch_windows {
                st.sweep();
            }
            match rx.try_recv() {
                Ok(m) => st.handle(m),
                Err(_) => break,
            }
        }
        st.sweep();
    }
    // Channel disconnected: score any straggler batch and exit.
    st.sweep();
    LoopExit::Disconnected
}

/// The supervisor: owns the shard state, respawns the worker loop after
/// panics and wedges, and gives up (re-raising) past the restart budget.
fn supervise(mut st: ShardState, rx: Receiver<Msg>, max_restarts: usize) -> ShardReport {
    loop {
        let exit = catch_unwind(AssertUnwindSafe(|| worker_loop(&mut st, &rx)));
        match exit {
            Ok(LoopExit::Disconnected) => break,
            Ok(LoopExit::RestartRequested) => {
                st.restarts.push(ShardRestart {
                    shard: st.shard,
                    cause: RestartCause::Wedged,
                    at_sweep: st.sweeps,
                });
                if st.restarts.len() > max_restarts {
                    panic!(
                        "shard {} wedged beyond its restart budget ({max_restarts})",
                        st.shard
                    );
                }
                // A cooperative restart exits at a loop boundary: the
                // region is Idle and nothing needs repair.
            }
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                st.restarts.push(ShardRestart {
                    shard: st.shard,
                    cause: RestartCause::Panic { message },
                    at_sweep: st.sweeps,
                });
                if st.restarts.len() > max_restarts {
                    resume_unwind(payload);
                }
                st.repair_after_unwind();
            }
        }
    }
    st.into_report()
}

/// A running detection service. Constructed by [`Perspectrond::start`];
/// torn down (and its results collected) by [`Perspectrond::shutdown`].
#[derive(Debug)]
pub struct Perspectrond {
    submitter: Submitter,
    joins: Vec<JoinHandle<ShardReport>>,
}

impl Perspectrond {
    /// Spawns the supervised shard workers, one thread each, returning
    /// the running service. The detector is cloned once and shared
    /// read-only across shards.
    pub fn start(detector: &PerSpectron, config: ServiceConfig) -> Self {
        let shards = config.shards.max(1);
        let max_restarts = config.max_restarts_per_shard;
        let detector = Arc::new(detector.clone());
        let mut txs = Vec::with_capacity(shards);
        let mut joins = Vec::with_capacity(shards);
        for id in 0..shards {
            let (tx, rx) = sync_channel(config.queue_depth.max(1));
            let state = ShardState::new(Arc::clone(&detector), &config, id);
            let join = std::thread::Builder::new()
                .name(format!("perspectrond-shard{id}"))
                .spawn(move || supervise(state, rx, max_restarts))
                .expect("spawn shard worker");
            txs.push(tx);
            joins.push(join);
        }
        Self {
            submitter: Submitter {
                txs: txs.into(),
                width: detector.schema().len(),
                busy: Arc::new(AtomicU64::new(0)),
                shed: Arc::new(AtomicU64::new(0)),
                retries: Arc::new(AtomicU64::new(0)),
            },
            joins,
        }
    }

    /// A cloneable submission handle for producer threads.
    pub fn submitter(&self) -> Submitter {
        self.submitter.clone()
    }

    /// Blocks until every shard has scored everything submitted before
    /// this call — a verdict barrier (partial batches are swept, not
    /// awaited). If a shard crashes while draining, its ack is dropped
    /// and the barrier releases early for that shard; the carried batch
    /// is scored after the respawn and always by shutdown.
    pub fn drain(&self) {
        let mut acks = Vec::with_capacity(self.joins.len());
        for tx in self.submitter.txs.iter() {
            let (ack_tx, ack_rx) = sync_channel(1);
            if tx.send(Msg::Drain(ack_tx)).is_ok() {
                acks.push(ack_rx);
            }
        }
        for ack in acks {
            let _ = ack.recv();
        }
    }

    /// Stops accepting work, waits for the shards to score every queued
    /// window, and returns the merged report.
    ///
    /// All [`Submitter`] clones must already be dropped — shards exit on
    /// queue disconnect, so a live clone elsewhere keeps them (and this
    /// call) waiting.
    ///
    /// # Errors
    ///
    /// [`ServiceError::ShardPanicked`] when a shard died beyond its
    /// restart budget. The error still carries the merged report of every
    /// surviving shard — partial results are returned, not discarded.
    pub fn shutdown(self) -> Result<ServiceReport, ServiceError> {
        let busy = self.submitter.busy_rejections();
        let shed = self.submitter.shed();
        let retries = self.submitter.retries();
        let shards = self.joins.len();
        drop(self.submitter);
        let mut report = ServiceReport {
            shards,
            windows_scored: 0,
            sweeps: 0,
            max_coalesced: 0,
            busy_rejections: busy,
            shed,
            retries,
            storms: 0,
            restarts: Vec::new(),
            latencies_us: Vec::new(),
            streams: Vec::new(),
        };
        let mut failed: Option<(usize, String)> = None;
        for (shard, join) in self.joins.into_iter().enumerate() {
            match join.join() {
                Ok(part) => {
                    report.windows_scored += part.windows;
                    report.sweeps += part.sweeps;
                    report.max_coalesced = report.max_coalesced.max(part.max_coalesced);
                    report.storms += part.storms;
                    report.restarts.extend(part.restarts);
                    report.latencies_us.extend(part.latencies_us);
                    report.streams.extend(part.streams);
                }
                Err(payload) => {
                    let message = panic_message(payload.as_ref());
                    failed.get_or_insert((shard, message));
                }
            }
        }
        report.latencies_us.sort_unstable();
        report.streams.sort_by_key(|s| s.stream);
        report.restarts.sort_by_key(|r| r.shard);
        match failed {
            None => Ok(report),
            Some((shard, message)) => Err(ServiceError::ShardPanicked {
                shard,
                message,
                partial: Box::new(report),
            }),
        }
    }
}

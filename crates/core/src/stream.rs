//! Online per-interval processing: a [`uarch_stats::SampleSink`] that
//! featurizes and classifies each sampling window the moment the
//! simulator emits it — the deployment shape of the paper's hardware unit,
//! which scores every 10K-instruction period as it closes rather than
//! after the run.
//!
//! One state machine tracks a stream: [`StreamSession`] owns the
//! sampling-point cursor, the dropout and sanitization checks, the
//! degraded/quarantine health state and the verdict log. It leaves
//! scoring to its caller, so a service shard can batch windows from many
//! sessions into one [`mlkit::PackedRows`] sweep.
//!
//! A [`StreamingDetector`] (from [`PerSpectron::streaming_packed`]) drives
//! one session window by window: copy the row, open the window, encode it
//! into a [`BitRow`] projected onto the selected features, score it with
//! the frozen [`mlkit::PackedPerceptron`], close the window. Its verdicts
//! are bit-identical to the batch [`PerSpectron::confidence_series`]
//! because both run the same encoder and the same engine.

use std::sync::Arc;

use mlkit::BitRow;
use uarch_stats::SampleSink;

use crate::detector::PerSpectron;
use crate::encode::{needs_sanitizing, RowEncoder};

/// Why a sampling window was scored on partial evidence.
///
/// Attached to an [`IntervalVerdict`] when the incoming sensor row was not
/// fully healthy: components that should never go quiet read all-zero
/// (dropout), or values arrived non-finite and were masked before
/// scoring. The verdict itself is still rendered — the paper's replicated
/// features mean a partial footprint usually suffices — but the caller
/// can see it was reached under degradation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Degraded {
    /// Always-active-in-training components whose counters all read zero
    /// this interval — dead sensor banks, not idleness.
    pub missing_components: Vec<String>,
    /// Raw values masked to zero because they arrived non-finite.
    pub sanitized_values: usize,
}

/// One per-interval classification decision.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalVerdict {
    /// Committed-instruction count when the window closed.
    pub at_inst: u64,
    /// Normalized perceptron output in `[-1, 1]`. Always finite, even on
    /// corrupted input.
    pub confidence: f64,
    /// Whether the confidence cleared the detector's threshold.
    pub suspicious: bool,
    /// `Some` when this window was scored on degraded sensor input.
    pub degraded: Option<Degraded>,
}

/// An online detector: scores every sampling window against a trained
/// [`PerSpectron`] as the window closes, exactly as the hardware perceptron
/// would — encode the window's counter deltas k-sparsely, sum the weights
/// of the set bits, compare against the threshold.
///
/// A thin [`SampleSink`] adapter over one [`StreamSession`]: each row is
/// copied into a scratch buffer, opened, encoded into a packed row,
/// scored and closed before `on_sample` returns, so every verdict is in
/// [`StreamingDetector::verdicts`] as soon as its window closes.
///
/// Construct via [`PerSpectron::streaming_packed`], then hand it to any
/// [`SampleSink`] producer:
///
/// ```no_run
/// use perspectron::{Collector, CorpusSpec, PerSpectron, Run};
///
/// let corpus = CorpusSpec::quick().collect();
/// let detector = PerSpectron::train(&corpus, 42);
/// let mut monitor = detector.streaming_packed();
/// let suspect = &workloads::full_suite()[0];
/// Collector::default()
///     .stream(Run::workload(suspect, 300_000, 10_000), &mut monitor)
///     .expect("simulation streams");
/// if let Some(v) = monitor.first_alarm() {
///     println!("alarm at {} insts (confidence {:.2})", v.at_inst, v.confidence);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct StreamingDetector {
    /// The trained detector, holding the frozen packed engine.
    detector: PerSpectron,
    session: StreamSession,
    /// The projected packed encoder.
    encoder: RowEncoder,
    /// Scratch packed row reused across windows.
    bits: BitRow,
    /// Scratch copy of the raw row, sanitized in place by the session.
    raw: Vec<f64>,
}

impl StreamingDetector {
    pub(crate) fn new(detector: &PerSpectron) -> Self {
        let encoder = detector.packed_encoder();
        Self {
            bits: BitRow::zeros(encoder.width()),
            encoder,
            session: StreamSession::new(detector),
            raw: Vec::with_capacity(detector.schema().len()),
            detector: detector.clone(),
        }
    }

    /// Does nothing: every window is scored as it closes, so there is
    /// never a partial batch to score. Kept for source compatibility with
    /// callers written against the earlier batched sink (the repo
    /// benchmark in `perfbench/`).
    pub fn flush(&mut self) {}

    /// Every per-interval verdict so far, oldest first.
    pub fn verdicts(&self) -> &[IntervalVerdict] {
        self.session.verdicts()
    }

    /// The first suspicious window, if any — the detection latency story.
    pub fn first_alarm(&self) -> Option<&IntervalVerdict> {
        self.verdicts().iter().find(|v| v.suspicious)
    }

    /// Windows scored under degraded sensor input so far.
    pub fn degraded_intervals(&self) -> usize {
        self.session.degraded_windows()
    }

    /// Rewinds the sampling-point cursor, clears verdicts and restores a
    /// healthy stream, for reuse on a fresh process.
    pub fn reset(&mut self) {
        self.session.reset();
    }
}

impl SampleSink for StreamingDetector {
    fn on_sample(&mut self, insts: u64, row: &[f64]) {
        self.raw.clear();
        self.raw.extend_from_slice(row);
        let (point, degraded) = self.session.open_window(&mut self.raw);
        self.encoder
            .encode_bits_into(&self.raw, point, &mut self.bits);
        let raw_score = self.detector.packed_perceptron().score_bits(&self.bits);
        self.session
            .close_window(&self.detector, insts, degraded, raw_score);
    }
}

/// Health of one telemetry stream, as tracked by a [`StreamSession`].
///
/// `Degraded` clears back to `Healthy` on the next clean window;
/// `Quarantined` (too many *consecutive* degraded windows) is sticky —
/// the stream's sensor bank needs operator attention, not optimism. A
/// quarantined session still scores every window (the paper's replicated
/// features make partial footprints usable), it just carries the flag so
/// a fleet operator can route the stream for investigation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Last window was scored on fully healthy input.
    Healthy,
    /// Last window was scored on degraded input (dead sensor banks or
    /// masked values).
    Degraded,
    /// Too many consecutive degraded windows; sticky until reset.
    Quarantined,
}

/// Consecutive degraded windows before a session is quarantined, unless
/// overridden via [`StreamSession::with_quarantine_after`].
pub const DEFAULT_QUARANTINE_AFTER: usize = 8;

/// Per-stream detection state: the sampling point cursor,
/// degraded/quarantine tracking, and the stream's verdict log — the one
/// per-window state machine behind both the single-stream
/// [`StreamingDetector`] and the service's shards.
///
/// Inference is hoisted out: a service shard owns many sessions plus
/// *one* packed engine and batches windows **across** sessions into a
/// single [`mlkit::PackedRows`] sweep. The split is two phases per window:
///
/// 1. [`StreamSession::open_window`] — sanitize the raw row in place,
///    run the shared dropout check, and hand back the sampling point to
///    encode at. The caller encodes and batches the row however it likes.
/// 2. [`StreamSession::close_window`] — after the batch sweep, turn the
///    raw perceptron sum into a recorded [`IntervalVerdict`] and advance
///    the health state machine.
///
/// Because a window's verdict depends only on its row bits and sampling
/// point, this two-phase shape is bit-identical to running the stream
/// alone through [`PerSpectron::streaming_packed`] — regardless of how
/// windows from other streams interleave in the batch. The service's
/// shard-determinism tests pin exactly that.
#[derive(Debug, Clone)]
pub struct StreamSession {
    watchlist: Arc<Vec<(String, Vec<usize>)>>,
    point: usize,
    state: SessionState,
    consecutive_degraded: usize,
    quarantine_after: usize,
    degraded_windows: usize,
    lost_windows: usize,
    verdicts: Vec<IntervalVerdict>,
}

/// A portable checkpoint of one [`StreamSession`]'s state — everything a
/// session owns except the shared dropout watchlist (which is re-derived
/// from the detector on [`StreamSession::restore`]).
///
/// A session restored from a snapshot continues where the snapshot was
/// taken: its sampling-point cursor, health state machine and verdict log
/// carry over bit-for-bit, so a stream can move to a fresh session (or be
/// replayed from a recorded point) without any change in its output.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// Sampling-point cursor (windows opened so far).
    pub point: usize,
    /// Health at checkpoint time.
    pub state: SessionState,
    /// Consecutive degraded windows at checkpoint time.
    pub consecutive_degraded: usize,
    /// The session's quarantine threshold.
    pub quarantine_after: usize,
    /// Windows scored under degraded input so far.
    pub degraded_windows: usize,
    /// Windows lost in flight (accepted but never scored) so far.
    pub lost_windows: usize,
    /// The verdict log, oldest first.
    pub verdicts: Vec<IntervalVerdict>,
}

impl StreamSession {
    /// Creates a session for one stream scored by `detector`. Sessions
    /// share the detector's dropout watchlist by reference — a thousand
    /// sessions cost a thousand cursors, not a thousand detectors.
    pub fn new(detector: &PerSpectron) -> Self {
        Self {
            watchlist: detector.always_active_components(),
            point: 0,
            state: SessionState::Healthy,
            consecutive_degraded: 0,
            quarantine_after: DEFAULT_QUARANTINE_AFTER,
            degraded_windows: 0,
            lost_windows: 0,
            verdicts: Vec::new(),
        }
    }

    /// Checkpoints the session's state (the verdict log is cloned; use
    /// [`StreamSession::into_snapshot`] to move it instead).
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            point: self.point,
            state: self.state,
            consecutive_degraded: self.consecutive_degraded,
            quarantine_after: self.quarantine_after,
            degraded_windows: self.degraded_windows,
            lost_windows: self.lost_windows,
            verdicts: self.verdicts.clone(),
        }
    }

    /// Consumes the session, yielding its checkpoint (no clone).
    pub fn into_snapshot(self) -> SessionSnapshot {
        SessionSnapshot {
            point: self.point,
            state: self.state,
            consecutive_degraded: self.consecutive_degraded,
            quarantine_after: self.quarantine_after,
            degraded_windows: self.degraded_windows,
            lost_windows: self.lost_windows,
            verdicts: self.verdicts,
        }
    }

    /// Rebuilds a session from a checkpoint taken by
    /// [`StreamSession::snapshot`]/[`StreamSession::into_snapshot`],
    /// re-attaching the shared dropout watchlist from `detector`. A
    /// restored session continues exactly where the checkpoint left off —
    /// same cursor, same health state, same verdict log — so moving a
    /// stream to a restored session is invisible in its output.
    pub fn restore(detector: &PerSpectron, snapshot: SessionSnapshot) -> Self {
        Self {
            watchlist: detector.always_active_components(),
            point: snapshot.point,
            state: snapshot.state,
            consecutive_degraded: snapshot.consecutive_degraded,
            quarantine_after: snapshot.quarantine_after.max(1),
            degraded_windows: snapshot.degraded_windows,
            lost_windows: snapshot.lost_windows,
            verdicts: snapshot.verdicts,
        }
    }

    /// Rewinds the cursor by one window without recording anything —
    /// crash-recovery surgery for a *torn open*: a window whose
    /// [`StreamSession::open_window`] ran but whose row was lost before it
    /// could be batched (e.g. the worker panicked mid-handling). Restores
    /// the invariant that every cursor position maps to at most one
    /// verdict. Not for normal operation.
    pub fn rollback_open(&mut self) {
        self.point = self.point.saturating_sub(1);
    }

    /// Records a window that was accepted but irrecoverably lost before
    /// scoring (its row died with a crashed worker). The loss is counted
    /// and the session is quarantined — sticky, exactly like the
    /// degraded-window quarantine — because the stream's verdict sequence
    /// now has a gap an operator must know about. Degraded accounting is
    /// untouched: a lost window was never *scored*, degraded or otherwise.
    pub fn record_lost_window(&mut self) {
        self.lost_windows += 1;
        self.state = SessionState::Quarantined;
    }

    /// Windows accepted but lost before scoring (crashed-worker gaps).
    pub fn lost_windows(&self) -> usize {
        self.lost_windows
    }

    /// Overrides the consecutive-degraded-window quarantine threshold
    /// (builder style).
    pub fn with_quarantine_after(mut self, windows: usize) -> Self {
        self.quarantine_after = windows.max(1);
        self
    }

    /// Phase 1 of scoring one window: sanitizes `row` in place (non-finite
    /// sensor readings masked to zero) and runs the dropout check, which
    /// flags always-active-in-training components whose counters all read
    /// zero — dead sensor banks, not idleness. Returns the sampling point
    /// to encode this row at plus the degraded status (`None` when the
    /// window is clean) to carry into [`StreamSession::close_window`]; the
    /// cursor advances, so windows must be closed in open order.
    pub fn open_window(&mut self, row: &mut [f64]) -> (usize, Option<Degraded>) {
        let mut sanitized_values = 0;
        for v in row.iter_mut() {
            if needs_sanitizing(*v) {
                *v = 0.0;
                sanitized_values += 1;
            }
        }
        let mut missing_components = Vec::new();
        for (label, cols) in self.watchlist.iter() {
            if cols.iter().all(|&i| row[i] == 0.0) {
                missing_components.push(label.clone());
            }
        }
        let degraded =
            (!missing_components.is_empty() || sanitized_values > 0).then_some(Degraded {
                missing_components,
                sanitized_values,
            });
        let point = self.point;
        self.point += 1;
        (point, degraded)
    }

    /// Phase 2: records the verdict for a window opened earlier, given the
    /// raw perceptron sum the batched sweep produced for its row, and
    /// advances the health state machine.
    pub fn close_window(
        &mut self,
        detector: &PerSpectron,
        at_inst: u64,
        degraded: Option<Degraded>,
        raw_score: f64,
    ) -> &IntervalVerdict {
        if degraded.is_some() {
            self.degraded_windows += 1;
            self.consecutive_degraded += 1;
            if self.consecutive_degraded >= self.quarantine_after {
                self.state = SessionState::Quarantined;
            } else if self.state != SessionState::Quarantined {
                self.state = SessionState::Degraded;
            }
        } else {
            self.consecutive_degraded = 0;
            if self.state == SessionState::Degraded {
                self.state = SessionState::Healthy;
            }
        }
        let confidence = detector.normalize_score(raw_score);
        self.verdicts.push(IntervalVerdict {
            at_inst,
            confidence,
            suspicious: confidence >= detector.threshold,
            degraded,
        });
        self.verdicts.last().expect("just pushed")
    }

    /// Current health of the stream.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Sampling windows opened so far (the cursor position).
    pub fn windows_opened(&self) -> usize {
        self.point
    }

    /// Windows scored under degraded input so far.
    pub fn degraded_windows(&self) -> usize {
        self.degraded_windows
    }

    /// Every verdict recorded for this stream, oldest first.
    pub fn verdicts(&self) -> &[IntervalVerdict] {
        &self.verdicts
    }

    /// Consumes the session, yielding its verdict log.
    pub fn into_verdicts(self) -> Vec<IntervalVerdict> {
        self.verdicts
    }

    /// Rewinds the cursor, clears verdicts, and restores `Healthy` — the
    /// operator's "sensor bank serviced" acknowledgement for a
    /// quarantined stream.
    pub fn reset(&mut self) {
        self.point = 0;
        self.state = SessionState::Healthy;
        self.consecutive_degraded = 0;
        self.degraded_windows = 0;
        self.lost_windows = 0;
        self.verdicts.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Collector, CorpusSpec, Run};

    fn tiny_spec() -> CorpusSpec {
        let mut all = workloads::full_suite();
        all.retain(|w| w.name == "flush-reload" || w.name == "hmmer");
        CorpusSpec {
            insts_per_workload: 60_000,
            sample_interval: 10_000,
            workloads: all,
        }
    }

    #[test]
    fn clean_streams_carry_no_degraded_status() {
        let spec = tiny_spec();
        let corpus = spec.collect();
        let det = PerSpectron::train(&corpus, 7);
        let mut mon = det.streaming_packed();
        Collector::default()
            .stream(Run::workload(&spec.workloads[0], 60_000, 10_000), &mut mon)
            .expect("simulation streams");
        assert!(!mon.verdicts().is_empty());
        assert_eq!(mon.degraded_intervals(), 0, "clean run must not degrade");
        assert!(mon.verdicts().iter().all(|v| v.degraded.is_none()));
    }

    #[test]
    fn corrupted_and_dropped_rows_degrade_but_never_panic_or_nan() {
        let spec = tiny_spec();
        let corpus = spec.collect();
        let det = PerSpectron::train(&corpus, 7);
        let mut mon = det.streaming_packed();
        let width = det.schema().len();

        // A healthy-looking row, then one with corrupted values, then one
        // with every always-active component dropped (all-zero).
        let healthy: Vec<f64> = vec![1.0; width];
        let mut corrupt = healthy.clone();
        corrupt[0] = f64::NAN;
        corrupt[width / 2] = f64::INFINITY;
        let dead: Vec<f64> = vec![0.0; width];

        mon.on_sample(10_000, &healthy);
        mon.on_sample(20_000, &corrupt);
        mon.on_sample(30_000, &dead);

        let v = mon.verdicts();
        assert!(v.iter().all(|v| v.confidence.is_finite()));
        let d1 = v[1].degraded.as_ref().expect("corrupt row degrades");
        assert_eq!(d1.sanitized_values, 2);
        let d2 = v[2].degraded.as_ref().expect("dead sensors degrade");
        assert!(
            d2.missing_components.contains(&"cpu".to_string()),
            "an all-zero row silences even the cycle counter: {:?}",
            d2.missing_components
        );
        assert_eq!(d2.sanitized_values, 0);
    }

    #[test]
    fn session_snapshot_restore_round_trips_and_continues_bit_identically() {
        let spec = tiny_spec();
        let corpus = spec.collect();
        let det = PerSpectron::train(&corpus, 7);
        let t = &corpus.traces[0].trace;
        let width = t.schema().len();
        let flat = t.flat_values();
        let encoder = det.packed_encoder();
        let engine = det.packed_perceptron().clone();

        // Reference: one session scores the whole trace.
        let mut whole = StreamSession::new(&det).with_quarantine_after(3);
        let mut bits = mlkit::BitRow::zeros(encoder.width());
        let mut score_one = |session: &mut StreamSession, j: usize| {
            let mut row: Vec<f64> = flat[j * width..(j + 1) * width].to_vec();
            let (point, degraded) = session.open_window(&mut row);
            encoder.encode_bits_into(&row, point, &mut bits);
            let raw = engine.score_bits(&bits);
            session
                .close_window(&det, t.instruction_counts()[j], degraded, raw)
                .clone()
        };
        for j in 0..t.len() {
            score_one(&mut whole, j);
        }

        // Snapshot mid-stream, restore into a fresh session, continue. Verdicts must be bit-identical to the whole run.
        let mut first = StreamSession::new(&det).with_quarantine_after(3);
        let cut = t.len() / 2;
        for j in 0..cut {
            score_one(&mut first, j);
        }
        let snap = first.into_snapshot();
        assert_eq!(snap.point, cut);
        let mut second = StreamSession::restore(&det, snap.clone());
        assert_eq!(second.snapshot(), snap, "restore must be lossless");
        for j in cut..t.len() {
            score_one(&mut second, j);
        }
        assert_eq!(second.verdicts().len(), whole.verdicts().len());
        for (a, b) in second.verdicts().iter().zip(whole.verdicts()) {
            assert_eq!(
                a.confidence.to_bits(),
                b.confidence.to_bits(),
                "restored session drifted from the uninterrupted run"
            );
            assert_eq!(a, b);
        }
    }

    #[test]
    fn lost_windows_quarantine_stickily_without_touching_degraded_accounting() {
        let spec = tiny_spec();
        let corpus = spec.collect();
        let det = PerSpectron::train(&corpus, 7);
        let width = det.schema().len();
        let mut s = StreamSession::new(&det);

        // A clean window scores normally.
        let mut row = vec![1.0; width];
        let (_, degraded) = s.open_window(&mut row);
        s.close_window(&det, 10_000, degraded, 0.0);
        assert_eq!(s.state(), SessionState::Healthy);

        // A torn open is rolled back, then the loss is recorded.
        let mut row2 = vec![1.0; width];
        let _ = s.open_window(&mut row2);
        assert_eq!(s.windows_opened(), 2);
        s.rollback_open();
        assert_eq!(s.windows_opened(), 1);
        s.record_lost_window();
        assert_eq!(s.lost_windows(), 1);
        assert_eq!(s.state(), SessionState::Quarantined);
        assert_eq!(s.degraded_windows(), 0, "loss is not degradation");

        // Sticky: a later clean window does not clear the quarantine.
        let mut row3 = vec![1.0; width];
        let (_, degraded) = s.open_window(&mut row3);
        s.close_window(&det, 20_000, degraded, 0.0);
        assert_eq!(s.state(), SessionState::Quarantined);

        // reset() is the operator acknowledgement that clears everything.
        s.reset();
        assert_eq!(s.lost_windows(), 0);
        assert_eq!(s.state(), SessionState::Healthy);
    }

    #[test]
    fn streaming_detector_reset_rewinds_the_cursor() {
        let spec = tiny_spec();
        let corpus = spec.collect();
        let det = PerSpectron::train(&corpus, 7);
        let mut mon = det.streaming_packed();
        let w = &spec.workloads[0];
        Collector::default()
            .stream(Run::workload(w, 30_000, 10_000), &mut mon)
            .expect("simulation streams");
        let first = mon.verdicts().to_vec();
        assert!(!first.is_empty());
        mon.reset();
        Collector::default()
            .stream(Run::workload(w, 30_000, 10_000), &mut mon)
            .expect("simulation streams");
        assert_eq!(mon.verdicts(), &first[..], "reset must replay identically");
    }
}

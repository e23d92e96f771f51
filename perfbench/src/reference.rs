//! The lone-stream oracle every detection workload is checked against.
//!
//! For each corpus trace, the rows a stream replays (wrapping at the end
//! of the trace) are fed alone through `PerSpectron::streaming_packed()`.
//! A stream's `n`-th verdict must carry the same confidence bits, alarm
//! and degraded flag as the oracle's `n`-th.
//!
//! Beyond the detector's maxima horizon (its training traces' length) the
//! encoder uses the global maxima, so a verdict then depends only on the
//! row. The oracle is therefore computed for `horizon + rows` windows and
//! is periodic in the trace length after that.

use perspectron::stream::DEFAULT_QUARANTINE_AFTER;
use perspectron::{IntervalVerdict, SessionState};
use uarch_stats::SampleSink;

use crate::setup::Fleet;

/// The oracle's verdict for one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// `confidence.to_bits()`.
    pub confidence: u64,
    /// Whether the window alarmed.
    pub suspicious: bool,
    /// Whether the window was scored on degraded input.
    pub degraded: bool,
}

impl Expected {
    fn of(v: &IntervalVerdict) -> Self {
        Self {
            confidence: v.confidence.to_bits(),
            suspicious: v.suspicious,
            degraded: v.degraded.is_some(),
        }
    }

    /// Whether `v` is bit-identical to this expectation.
    pub fn matches(&self, v: &IntervalVerdict) -> bool {
        *self == Self::of(v)
    }
}

/// Lone-stream verdicts for every trace of a fleet's corpus.
pub struct Reference {
    horizon: usize,
    per_trace: Vec<Vec<Expected>>,
}

impl Reference {
    /// Runs every trace alone through the packed streaming detector.
    pub fn build(fleet: &Fleet, min_windows: usize) -> Self {
        let horizon = fleet.detector.max_matrix().sample_points().max(min_windows);
        let mut row = Vec::new();
        let per_trace = fleet
            .rows
            .iter()
            .enumerate()
            .map(|(t, &rows)| {
                let mut sink = fleet.detector.streaming_packed();
                for n in 0..horizon + rows {
                    let at = fleet
                        .reader
                        .read_row(t, n % rows, &mut row)
                        .expect("reference read within bounds");
                    sink.on_sample(at, &row);
                }
                sink.flush();
                sink.verdicts().iter().map(Expected::of).collect()
            })
            .collect();
        Self { horizon, per_trace }
    }

    /// The oracle's `n`-th verdict for a stream replaying trace `t`.
    pub fn expected(&self, t: usize, n: usize) -> Expected {
        let v = &self.per_trace[t];
        if n < v.len() {
            v[n]
        } else {
            let rows = v.len() - self.horizon;
            v[self.horizon + (n - self.horizon) % rows]
        }
    }

    /// The health state a session must end in after `windows` windows of
    /// trace `t`: the oracle's degraded flags run through the session
    /// state machine (sticky quarantine after
    /// [`DEFAULT_QUARANTINE_AFTER`] consecutive degraded windows).
    pub fn final_state(&self, t: usize, windows: usize) -> SessionState {
        let mut state = SessionState::Healthy;
        let mut run = 0;
        for n in 0..windows {
            if self.expected(t, n).degraded {
                run += 1;
                if run >= DEFAULT_QUARANTINE_AFTER {
                    state = SessionState::Quarantined;
                } else if state != SessionState::Quarantined {
                    state = SessionState::Degraded;
                }
            } else {
                run = 0;
                if state == SessionState::Degraded {
                    state = SessionState::Healthy;
                }
            }
        }
        state
    }

    /// Failed operations in one stream's output: every verdict that
    /// differs from the oracle, plus one if the final state differs.
    pub fn check_stream(
        &self,
        t: usize,
        verdicts: &[IntervalVerdict],
        windows: usize,
        state: SessionState,
    ) -> u64 {
        let mut failed = verdicts
            .iter()
            .enumerate()
            .filter(|(n, v)| !self.expected(t, *n).matches(v))
            .count() as u64;
        failed += windows.abs_diff(verdicts.len()) as u64;
        if state != self.final_state(t, windows) {
            failed += 1;
        }
        failed
    }
}

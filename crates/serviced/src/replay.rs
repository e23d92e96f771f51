//! The replay load generator: fans an on-disk corpus out as thousands of
//! concurrent telemetry streams against a running service.
//!
//! Stream `i` replays trace `i % n_traces` of the corpus, window by
//! window, through [`Submitter::submit_with_policy`] — so a small corpus
//! can stand in for an arbitrarily wide fleet. Rows are gathered through
//! the memory-mapped [`CorpusReader`], so only the column pages actually
//! read become resident, which is the whole point of the columnar format.
//!
//! Client threads interleave their streams round-robin (window 0 of every
//! owned stream, then window 1, …) at full rate, the worst-case arrival
//! pattern for the service's cross-session batcher: maximally many
//! distinct sessions per batch. Backpressure is absorbed by
//! [`SubmitPolicy::patient`] — deterministic jittered backoff under a
//! deadline — showing up as [`ReplayOutcome::busy_retries`] when absorbed
//! and [`ReplayOutcome::shed`] when a window's budget ran out; replay
//! never queues unboundedly and never spins.

use perspectron::corpus_io::CorpusReader;

use crate::policy::SubmitPolicy;
use crate::service::{SubmitError, Submitter};

/// Shape of the replayed load.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Concurrent streams to emulate (each replays one corpus trace).
    pub streams: usize,
    /// Producer threads the streams are spread across. Clamped to
    /// `1..=streams`.
    pub client_threads: usize,
}

/// What the generator actually delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Windows accepted by the service.
    pub submitted: u64,
    /// `Busy` rejections absorbed by policy retries.
    pub busy_retries: u64,
    /// Windows given up on — the submit deadline or retry budget ran out
    /// with the shard still busy. The replay moves on to the stream's
    /// next window (the service quarantines on loss only when a *worker*
    /// loses an accepted window; a shed window was never accepted).
    pub shed: u64,
    /// Streams that submitted at least one window.
    pub streams: usize,
}

/// Replays `reader`'s corpus as [`ReplayConfig::streams`] concurrent
/// streams against the service behind `submitter`. Blocks until every
/// window has been *accepted* or shed (verdicts may still be in flight —
/// use [`Perspectrond::drain`](crate::Perspectrond::drain) or shutdown
/// for the barrier). Every window is submitted under
/// [`SubmitPolicy::patient`]: a load generator absorbs transient `Busy`
/// and sheds only against a genuinely wedged service.
///
/// # Panics
///
/// Panics if the corpus is empty or `streams` is zero.
pub fn replay_clients(
    reader: &CorpusReader,
    submitter: &Submitter,
    cfg: &ReplayConfig,
) -> ReplayOutcome {
    assert!(reader.n_traces() > 0, "cannot replay an empty corpus");
    assert!(cfg.streams > 0, "need at least one stream");
    let clients = cfg.client_threads.clamp(1, cfg.streams);
    let retries_before = submitter.retries();
    let policy = SubmitPolicy::patient();

    let totals = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(clients);
        for client in 0..clients {
            let submitter = submitter.clone();
            handles.push(scope.spawn(move || {
                let mut submitted = 0u64;
                let mut shed = 0u64;
                // The streams this client owns, with their trace and length.
                let owned: Vec<(u64, usize, usize)> = (client..cfg.streams)
                    .step_by(clients)
                    .map(|s| {
                        let t = s % reader.n_traces();
                        (s as u64, t, reader.trace_meta(t).rows)
                    })
                    .collect();
                let longest = owned.iter().map(|&(_, _, rows)| rows).max().unwrap_or(0);
                let mut row = Vec::new();
                for j in 0..longest {
                    for &(stream, t, rows) in &owned {
                        if j >= rows {
                            continue;
                        }
                        let at_inst = reader
                            .read_row(t, j, &mut row)
                            .expect("replay read within bounds");
                        let boxed: Box<[f64]> = row.as_slice().into();
                        match submitter.submit_with_policy(stream, at_inst, boxed, &policy) {
                            Ok(()) => submitted += 1,
                            Err(SubmitError::Deadline { .. }) => shed += 1,
                            Err(SubmitError::Busy { .. }) => {
                                unreachable!("policy path never surfaces Busy")
                            }
                            Err(SubmitError::Shutdown) => {
                                panic!("service shut down mid-replay")
                            }
                            Err(e @ SubmitError::Malformed { .. }) => {
                                panic!("corpus row rejected: {e}")
                            }
                        }
                    }
                }
                (submitted, shed, owned.len())
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("replay client panicked"))
            .fold((0u64, 0u64, 0usize), |acc, x| {
                (acc.0 + x.0, acc.1 + x.1, acc.2 + x.2)
            })
    });

    ReplayOutcome {
        submitted: totals.0,
        busy_retries: submitter.retries() - retries_before,
        shed: totals.1,
        streams: totals.2,
    }
}

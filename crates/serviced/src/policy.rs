//! Submit-side fault tolerance: a [`SubmitPolicy`] bundles the deadline,
//! bounded-retry and backoff decisions that every producer used to make
//! ad hoc around [`SubmitError::Busy`](crate::SubmitError::Busy).
//!
//! The backoff is *deterministically jittered*: sleep durations come from
//! an xorshift64* stream keyed by `(policy seed, stream id, attempt)` —
//! the same generator family (and the same splitmix decorrelator) the
//! fault plans in [`perspectron::faults`] use — so the retry schedule of
//! any stream is byte-reproducible from the seed alone. Two producers
//! retrying different streams against the same hot shard desynchronize
//! instead of thundering in lockstep, and a replayed incident backs off
//! exactly the way the original did.

use std::time::Duration;

use perspectron::faults::{mix, XorShift64};

/// How a submission behaves when its shard pushes back.
///
/// Used by [`Submitter::submit_with_policy`](crate::Submitter::submit_with_policy):
/// bounded retries, then a typed
/// [`SubmitError::Deadline`](crate::SubmitError::Deadline). The deadline
/// holds even at `u32::MAX` retries, so a wedged shard cannot hold a
/// producer hostage forever.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubmitPolicy {
    /// Total wall budget for one window's submission, retries included.
    pub deadline: Duration,
    /// `Busy` retries before giving up; at `u32::MAX` the submission is
    /// bounded by `deadline` alone.
    pub max_retries: u32,
    /// First backoff; doubles each retry up to [`SubmitPolicy::max_backoff`].
    pub base_backoff: Duration,
    /// Ceiling on a single backoff sleep (pre-jitter).
    pub max_backoff: Duration,
    /// Seed of the jitter streams, decorrelated per `(stream, attempt)`.
    pub seed: u64,
}

impl Default for SubmitPolicy {
    fn default() -> Self {
        Self {
            deadline: Duration::from_secs(5),
            max_retries: 256,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(5),
            seed: 0x5eed_cafe,
        }
    }
}

impl SubmitPolicy {
    /// A patient policy for load generators and migrations: a long
    /// deadline and effectively unbounded retries, so transient
    /// backpressure is absorbed rather than shed. Only a genuinely wedged
    /// service (no drain for a minute) sheds under this policy.
    pub fn patient() -> Self {
        Self {
            deadline: Duration::from_secs(60),
            max_retries: u32::MAX,
            base_backoff: Duration::from_micros(20),
            max_backoff: Duration::from_millis(2),
            seed: 0x5eed_cafe,
        }
    }

    /// The backoff to sleep before retry `attempt` (0-based) of a window
    /// for `stream`: exponential from [`SubmitPolicy::base_backoff`],
    /// capped at [`SubmitPolicy::max_backoff`], then jittered by a factor
    /// in `[0.5, 1.5)` drawn from the `(seed, stream, attempt)` xorshift
    /// stream. Pure — same inputs, same duration, on any host.
    pub fn backoff(&self, stream: u64, attempt: u32) -> Duration {
        let doublings = attempt.min(20);
        let nominal = self
            .base_backoff
            .saturating_mul(1u32 << doublings.min(20))
            .min(self.max_backoff);
        let mut rng = XorShift64::new(mix(mix(self.seed ^ stream) ^ u64::from(attempt)));
        let factor = 0.5 + rng.unit();
        nominal.mul_f64(factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_jittered_and_capped() {
        let p = SubmitPolicy::default();
        for stream in [0u64, 7, 1 << 40] {
            for attempt in 0..12 {
                let a = p.backoff(stream, attempt);
                let b = p.backoff(stream, attempt);
                assert_eq!(a, b, "backoff must be a pure function");
                // Jitter keeps every sleep within [0.5, 1.5)× the nominal
                // exponential, which is itself capped.
                assert!(a <= p.max_backoff.mul_f64(1.5));
                if attempt == 0 {
                    assert!(a >= p.base_backoff.mul_f64(0.5));
                }
            }
        }
        // Different streams desynchronize: at least one early attempt
        // must differ between two streams.
        let diverged = (0..4).any(|k| p.backoff(1, k) != p.backoff(2, k));
        assert!(diverged, "jitter streams must be stream-keyed");
    }

    #[test]
    fn backoff_grows_until_the_cap() {
        let p = SubmitPolicy {
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(100),
            ..SubmitPolicy::default()
        };
        // Compare nominal envelopes (jitter is ±50%, growth is 2× per
        // attempt, so attempt k+2 always exceeds attempt k until the cap).
        let early = p.backoff(3, 0);
        let later = p.backoff(3, 6);
        assert!(later > early, "exponential growth: {early:?} vs {later:?}");
    }
}

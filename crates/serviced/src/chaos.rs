//! Deterministic chaos injection for the sharded service.
//!
//! A [`ChaosSpec`] is to the service tier what a
//! [`FaultSpec`](perspectron::FaultSpec) is to the sensor tier: a seeded,
//! byte-reproducible description of what goes wrong — but here the
//! victims are the *service's own moving parts*, not the telemetry. Four
//! chaos families are injected at precisely chosen points inside the
//! shard workers:
//!
//! - **Worker panics** ([`PanicAt`]) — the worker of one shard panics at
//!   the start of its Nth scoring sweep, before any row is scored. The
//!   injection point is deliberately *clean*: the batch and every session
//!   are intact when the unwind starts, so the supervisor can carry the
//!   in-flight windows across the respawn and lose nothing.
//! - **Queue-drain stalls** ([`StallAt`]) — the worker sleeps inside a
//!   sweep without making progress, exactly what a wedged dependency
//!   looks like to the shard's own stall clock.
//! - **Slow-consumer jitter** — a per-sweep random extra delay drawn from
//!   the shard's chaos stream, turning steady consumers into laggy ones
//!   so backpressure and retry policies are exercised under load.
//! - **Poisoned windows** ([`PoisonPill`] and NaN storms) — a pill kills
//!   the worker the moment the marked window is received (the one chaos
//!   that genuinely loses a window: the supervisor must quarantine that
//!   stream, and only that stream); a NaN storm corrupts a deterministic
//!   subset of a window's values in place, flowing through the PR 5
//!   sanitize/Degraded path and, at fleet scale, the sticky quarantine.
//!
//! # Determinism
//!
//! Worker-level events (panics, stalls, jitter) draw from a stream keyed
//! by `(chaos seed, shard)`; window-level events (pills, storms) are
//! *stateless* draws keyed by `(chaos seed, stream id, window index)`.
//! The split is what makes chaos byte-reproducible at any shard count:
//! re-sharding moves streams between workers, but which windows are
//! stormed or pilled never changes, and per-stream FIFO order makes the
//! window index itself arrival-deterministic.

use std::sync::Arc;
use std::time::Duration;

use perspectron::faults::{mix, XorShift64};

/// Panic one shard's worker at the start of its `sweep`-th scoring sweep
/// (1-based). Fires once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicAt {
    /// The shard whose worker panics.
    pub shard: usize,
    /// The 1-based sweep number the panic triggers at.
    pub sweep: u64,
}

/// Stall one shard's worker (no progress) at the start of its
/// `sweep`-th scoring sweep — a wedge for the shard's stall clock to
/// catch. Fires once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallAt {
    /// The shard whose worker stalls.
    pub shard: usize,
    /// The 1-based sweep number the stall triggers at.
    pub sweep: u64,
    /// How long the worker goes dark.
    pub stall: Duration,
}

/// Kill the worker the moment window `window` (0-based, per-stream) of
/// `stream` is received — before the window is opened or batched. The
/// window is lost; the supervisor must account for it. Fires once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoisonPill {
    /// The stream whose window is poisoned.
    pub stream: u64,
    /// The 0-based per-stream window index of the poisoned window.
    pub window: usize,
}

/// A seeded description of service-tier chaos. [`ChaosSpec::quiet`] (the
/// [`ServiceConfig`](crate::ServiceConfig) default) injects
/// nothing and adds no per-window work.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Seed of every chaos stream in this plan.
    pub seed: u64,
    /// Scheduled worker panics.
    pub panics: Vec<PanicAt>,
    /// Scheduled worker stalls (wedge emulation).
    pub stalls: Vec<StallAt>,
    /// Scheduled poisoned windows.
    pub pills: Vec<PoisonPill>,
    /// Probability, per window, that the window is NaN-stormed (keyed by
    /// `(seed, stream, window index)` — shard-count invariant).
    pub storm_chance: f64,
    /// Fraction of a stormed window's values overwritten with NaN
    /// (at least one).
    pub storm_frac: f64,
    /// Probability, per sweep, of slow-consumer jitter (keyed by
    /// `(seed, shard)`).
    pub jitter_chance: f64,
    /// Maximum jitter delay per affected sweep.
    pub jitter_max: Duration,
}

impl ChaosSpec {
    /// The quiet spec: no chaos at all, zero overhead in the workers.
    pub fn quiet() -> Self {
        Self {
            seed: 0,
            panics: Vec::new(),
            stalls: Vec::new(),
            pills: Vec::new(),
            storm_chance: 0.0,
            storm_frac: 0.0,
            jitter_chance: 0.0,
            jitter_max: Duration::ZERO,
        }
    }

    /// Whether this spec injects nothing.
    pub fn is_quiet(&self) -> bool {
        self.panics.is_empty()
            && self.stalls.is_empty()
            && self.pills.is_empty()
            && self.storm_chance <= 0.0
            && self.jitter_chance <= 0.0
    }
}

impl Default for ChaosSpec {
    fn default() -> Self {
        Self::quiet()
    }
}

/// Salt decorrelating window-level storm draws from everything else.
const STORM_SALT: u64 = 0x5707_12a9_c0ff_ee00;

/// One shard worker's runtime view of the plan: the shard-keyed jitter
/// stream plus fired-once memory for panics, stalls and pills.
///
/// Lives in the shard state the supervisor owns — it survives the unwind
/// of an injected panic — which is how "fires once" is enforced: every
/// scheduled event marks itself fired *before* it detonates, so the
/// respawned worker retries the interrupted work instead of dying in a
/// crash loop.
#[derive(Debug, Clone)]
pub(crate) struct ShardChaos {
    spec: Arc<ChaosSpec>,
    shard: usize,
    rng: XorShift64,
    panics_fired: Vec<bool>,
    stalls_fired: Vec<bool>,
    pills_fired: Vec<bool>,
}

impl ShardChaos {
    pub(crate) fn new(spec: Arc<ChaosSpec>, shard: usize) -> Self {
        Self {
            rng: XorShift64::new(mix(spec.seed ^ (shard as u64).wrapping_mul(0x9e37))),
            panics_fired: vec![false; spec.panics.len()],
            stalls_fired: vec![false; spec.stalls.len()],
            pills_fired: vec![false; spec.pills.len()],
            spec,
            shard,
        }
    }

    /// Runs the sweep-scoped chaos due at 1-based sweep `sweep_no`:
    /// stalls first (the worker goes dark), then jitter, then any
    /// scheduled panic. Called at the top of the worker's sweep, before
    /// anything is scored, so an unwind here leaves the batch intact.
    pub(crate) fn before_sweep(&mut self, sweep_no: u64) {
        if self.spec.is_quiet() {
            return;
        }
        for (i, s) in self.spec.stalls.iter().enumerate() {
            if !self.stalls_fired[i] && s.shard == self.shard && sweep_no >= s.sweep {
                self.stalls_fired[i] = true;
                std::thread::sleep(s.stall);
            }
        }
        if self.spec.jitter_chance > 0.0 && self.rng.chance(self.spec.jitter_chance) {
            let frac = self.rng.unit();
            if !self.spec.jitter_max.is_zero() {
                std::thread::sleep(self.spec.jitter_max.mul_f64(frac));
            }
        }
        for (i, p) in self.spec.panics.iter().enumerate() {
            if !self.panics_fired[i] && p.shard == self.shard && sweep_no >= p.sweep {
                self.panics_fired[i] = true;
                panic!(
                    "chaos: injected worker panic (shard {}, sweep {})",
                    self.shard, p.sweep
                );
            }
        }
    }

    /// Detonates any unfired pill scheduled for `(stream, window)`. The
    /// caller invokes this at message receipt, before the session is
    /// touched, so recovery sees a consistent shard.
    pub(crate) fn pill(&mut self, stream: u64, window: usize) {
        if self.spec.pills.is_empty() {
            return;
        }
        for (i, p) in self.spec.pills.iter().enumerate() {
            if !self.pills_fired[i] && p.stream == stream && p.window == window {
                self.pills_fired[i] = true;
                panic!("chaos: poison pill (stream {stream}, window {window})");
            }
        }
    }

    /// Applies any NaN storm due for `(stream, window)` to `row` in
    /// place. Stateless draw — same `(seed, stream, window)`, same storm,
    /// at any shard count. Returns the number of values overwritten
    /// (zero when the window is spared).
    pub(crate) fn storm(&self, stream: u64, window: usize, row: &mut [f64]) -> usize {
        if self.spec.storm_chance <= 0.0 || row.is_empty() {
            return 0;
        }
        let mut rng = XorShift64::new(mix(
            mix(self.spec.seed ^ STORM_SALT ^ stream) ^ (window as u64)
        ));
        if !rng.chance(self.spec.storm_chance) {
            return 0;
        }
        let n = ((row.len() as f64 * self.spec.storm_frac).ceil() as usize).clamp(1, row.len());
        for _ in 0..n {
            let i = (rng.next() % row.len() as u64) as usize;
            row[i] = f64::NAN;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storms_are_stateless_and_shard_count_invariant() {
        let spec = Arc::new(ChaosSpec {
            seed: 42,
            storm_chance: 0.5,
            storm_frac: 0.25,
            ..ChaosSpec::quiet()
        });
        // Two different shards must storm exactly the same windows with
        // exactly the same corruption pattern.
        let a = ShardChaos::new(Arc::clone(&spec), 0);
        let b = ShardChaos::new(Arc::clone(&spec), 3);
        let mut stormed = 0;
        for stream in 0..16u64 {
            for window in 0..8usize {
                let mut ra: Vec<f64> = (0..32).map(|i| i as f64).collect();
                let mut rb = ra.clone();
                let na = a.storm(stream, window, &mut ra);
                let nb = b.storm(stream, window, &mut rb);
                assert_eq!(na, nb);
                assert_eq!(
                    ra.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    rb.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "storm pattern must not depend on the shard"
                );
                if na > 0 {
                    stormed += 1;
                    assert!(ra.iter().any(|v| v.is_nan()));
                }
            }
        }
        assert!(stormed > 10, "≈half the 128 windows should storm");
        assert!(stormed < 118);
    }

    #[test]
    fn pills_fire_exactly_once() {
        let spec = Arc::new(ChaosSpec {
            seed: 1,
            pills: vec![PoisonPill {
                stream: 9,
                window: 2,
            }],
            ..ChaosSpec::quiet()
        });
        let mut c = ShardChaos::new(spec, 0);
        c.pill(9, 1); // not the marked window
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.pill(9, 2)));
        assert!(boom.is_err(), "the marked window must detonate");
        // The same (stream, window) arriving again — e.g. the retransmit
        // after the lost window — passes through.
        c.pill(9, 2);
    }

    #[test]
    fn scheduled_panics_fire_once_at_their_sweep() {
        let spec = Arc::new(ChaosSpec {
            seed: 1,
            panics: vec![PanicAt { shard: 1, sweep: 3 }],
            ..ChaosSpec::quiet()
        });
        let mut other = ShardChaos::new(Arc::clone(&spec), 0);
        other.before_sweep(3); // wrong shard: nothing
        let mut c = ShardChaos::new(spec, 1);
        c.before_sweep(1);
        c.before_sweep(2);
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.before_sweep(3)));
        assert!(boom.is_err());
        // The respawned worker retries sweep 3: the event is spent.
        c.before_sweep(3);
        c.before_sweep(4);
    }
}

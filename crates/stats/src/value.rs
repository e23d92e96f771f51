//! Leaf statistic values: monotonically increasing counters, floating-point
//! scalars, and running averages.

use crate::group::{StatItem, StatVisitor};

/// A monotonically increasing event counter.
///
/// The workhorse statistic: squash cycles, cache misses, committed
/// instructions, and so on all use `Counter`.
///
/// # Example
///
/// ```
/// use uarch_stats::Counter;
/// let mut c = Counter::default();
/// c.inc();
/// c.add(4);
/// assert_eq!(c.value(), 5);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n` events to the counter.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Returns the current count.
    #[inline]
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl StatItem for Counter {
    fn visit_item(&self, name: &str, v: &mut dyn StatVisitor) {
        v.scalar(format_args!("{name}"), self.0 as f64);
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// A floating-point statistic, used for accumulated quantities that are not
/// integral event counts (energy in picojoules, latency sums scaled by
/// weights, ...).
///
/// # Example
///
/// ```
/// use uarch_stats::Scalar;
/// let mut e = Scalar::default();
/// e.add(0.5);
/// assert_eq!(e.value(), 0.5);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct Scalar(f64);

impl Scalar {
    /// Creates a scalar starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `x` to the scalar.
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.0 += x;
    }

    /// Overwrites the scalar with `x`.
    #[inline]
    pub fn set(&mut self, x: f64) {
        self.0 = x;
    }

    /// Returns the current value.
    #[inline]
    pub fn value(&self) -> f64 {
        self.0
    }
}

impl StatItem for Scalar {
    fn visit_item(&self, name: &str, v: &mut dyn StatVisitor) {
        v.scalar(format_args!("{name}"), self.0);
    }
}

impl std::fmt::Display for Scalar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// A running average that reports both its sum and its mean.
///
/// Visiting an `Average` named `lat` emits two stats: `lat_sum` and
/// `lat_avg`, mirroring gem5's habit of reporting latency totals alongside
/// per-event means.
///
/// # Example
///
/// ```
/// use uarch_stats::Average;
/// let mut a = Average::default();
/// a.record(10.0);
/// a.record(20.0);
/// assert_eq!(a.mean(), 15.0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd)]
pub struct Average {
    sum: f64,
    count: u64,
}

impl Average {
    /// Creates an empty average.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.sum += x;
        self.count += 1;
    }

    /// Returns the sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Returns the number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns the mean, or 0.0 when no observation has been recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

impl StatItem for Average {
    fn visit_item(&self, name: &str, v: &mut dyn StatVisitor) {
        v.scalar(format_args!("{name}_sum"), self.sum);
        v.scalar(format_args!("{name}_avg"), self.mean());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_starts_at_zero_and_accumulates() {
        let mut c = Counter::new();
        assert_eq!(c.value(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.value(), 42);
    }

    #[test]
    fn scalar_set_overwrites() {
        let mut s = Scalar::new();
        s.add(1.5);
        s.set(3.0);
        assert_eq!(s.value(), 3.0);
    }

    #[test]
    fn average_mean_of_empty_is_zero() {
        assert_eq!(Average::new().mean(), 0.0);
    }

    #[test]
    fn average_tracks_sum_and_count() {
        let mut a = Average::new();
        for x in 1..=4 {
            a.record(x as f64);
        }
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.count(), 4);
        assert_eq!(a.mean(), 2.5);
    }
}

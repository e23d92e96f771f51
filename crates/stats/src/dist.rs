//! Bucketed distributions, gem5's `Stats::Distribution` analog.

use crate::group::{StatItem, StatVisitor};

/// A histogram over a fixed linear bucket range plus underflow/overflow,
/// also reporting total sample count and mean.
///
/// A distribution named `missLatency` with 4 buckets over `[0, 400)` emits
/// `missLatency::underflow`, `missLatency::0-99`, ... `missLatency::overflow`,
/// `missLatency::total` and `missLatency::mean` — seven statistics from a
/// single field, which is how gem5 reaches four-digit stat counts.
///
/// # Example
///
/// ```
/// use uarch_stats::Distribution;
/// let mut d = Distribution::new(0.0, 400.0, 4);
/// d.record(10.0);
/// d.record(950.0); // overflow
/// assert_eq!(d.total(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Distribution {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    sum: f64,
    total: u64,
}

impl Distribution {
    /// Creates a distribution with `n` equal buckets spanning `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0, "distribution needs at least one bucket");
        assert!(hi > lo, "distribution range must be non-empty");
        Self {
            lo,
            hi,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
            sum: 0.0,
            total: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.sum += x;
        self.total += 1;
        *self.slot(x) += 1;
    }

    /// Records the observation `x` `n` times, bit-for-bit as `n` calls of
    /// [`record`](Self::record) would.
    ///
    /// The counts take `n` in one step. The running sum does too when every
    /// partial sum is exact: `x` and the sum are integers and
    /// `|sum| + n·|x| <= 2^53`, so no addition of the loop rounds.
    /// Otherwise (fractional values, or a sum near 2^53) the sum is
    /// accumulated one addition at a time, in the loop's rounding order.
    pub fn record_n(&mut self, x: f64, n: u64) {
        if n > 1 && sums_exactly(self.sum, x, n) {
            self.sum += n as f64 * x;
        } else {
            for _ in 0..n {
                self.sum += x;
            }
        }
        self.total += n;
        *self.slot(x) += n;
    }

    /// The count an observation of `x` lands in.
    fn slot(&mut self, x: f64) -> &mut u64 {
        if x < self.lo {
            &mut self.underflow
        } else if x >= self.hi {
            &mut self.overflow
        } else {
            let width = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            &mut self.buckets[idx]
        }
    }

    /// Returns the total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Returns the mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Returns the count in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Returns the number of linear buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }
}

/// Whether adding `x` to `sum` `n` times rounds nowhere: both are
/// integers and no partial sum leaves `[-2^53, 2^53]`, where every integer
/// is an `f64`. Non-finite and huge values fail the `as i64` round trip.
fn sums_exactly(sum: f64, x: f64, n: u64) -> bool {
    const EXACT: u128 = 1 << 53;
    let integer = |v: f64| v as i64 as f64 == v && v.abs() <= EXACT as f64;
    integer(sum)
        && integer(x)
        && u128::from((sum as i64).unsigned_abs())
            + u128::from(n) * u128::from((x as i64).unsigned_abs())
            <= EXACT
}

impl StatItem for Distribution {
    fn visit_item(&self, prefix: &str, name: &str, v: &mut dyn StatVisitor) {
        use std::fmt::Write;
        // One scratch subname reused across buckets (walks run every
        // sampling interval; a format! per bucket is measurable).
        let mut sub = String::with_capacity(name.len() + 24);
        let mut emit = |sub: &mut String, tail: std::fmt::Arguments<'_>, value: f64| {
            sub.clear();
            let _ = write!(sub, "{name}::{tail}");
            v.scalar(prefix, sub, value);
        };
        emit(&mut sub, format_args!("underflow"), self.underflow as f64);
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, b) in self.buckets.iter().enumerate() {
            let lo = self.lo + width * i as f64;
            let hi = lo + width - 1.0;
            emit(
                &mut sub,
                format_args!("{}-{}", lo as i64, hi.max(lo) as i64),
                *b as f64,
            );
        }
        emit(&mut sub, format_args!("overflow"), self.overflow as f64);
        emit(&mut sub, format_args!("total"), self.total as f64);
        emit(&mut sub, format_args!("mean"), self.mean());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Snapshot;
    use crate::StatGroup;
    use proptest::prelude::*;

    struct Holder(Distribution);
    impl StatGroup for Holder {
        fn visit(&self, prefix: &str, v: &mut dyn StatVisitor) {
            self.0.visit_item(prefix, "lat", v);
        }
    }

    #[test]
    fn records_land_in_the_right_bucket() {
        let mut d = Distribution::new(0.0, 40.0, 4);
        d.record(5.0); // bucket 0
        d.record(15.0); // bucket 1
        d.record(39.9); // bucket 3
        assert_eq!(d.bucket(0), 1);
        assert_eq!(d.bucket(1), 1);
        assert_eq!(d.bucket(3), 1);
        assert_eq!(d.total(), 3);
    }

    #[test]
    fn underflow_and_overflow_are_tracked() {
        let mut d = Distribution::new(10.0, 20.0, 2);
        d.record(5.0);
        d.record(25.0);
        let snap = Snapshot::of(&Holder(d), "c");
        assert_eq!(snap.get("c.lat::underflow"), Some(1.0));
        assert_eq!(snap.get("c.lat::overflow"), Some(1.0));
        assert_eq!(snap.get("c.lat::total"), Some(2.0));
    }

    #[test]
    fn emits_buckets_plus_three_summary_stats() {
        let d = Distribution::new(0.0, 100.0, 5);
        let snap = Snapshot::of(&Holder(d), "c");
        // underflow + 5 buckets + overflow + total + mean
        assert_eq!(snap.names().len(), 9);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_panics() {
        let _ = Distribution::new(0.0, 1.0, 0);
    }

    /// `record_n(x, n)` on a clone of `d` against `n` calls of
    /// `record(x)` on another: every count and the sum's bits must match.
    fn assert_record_n_matches_loop(d: &Distribution, x: f64, n: u64) -> Distribution {
        let mut bulk = d.clone();
        bulk.record_n(x, n);
        let mut looped = d.clone();
        for _ in 0..n {
            looped.record(x);
        }
        assert_eq!(bulk.buckets, looped.buckets, "buckets, x={x} n={n}");
        assert_eq!(bulk.underflow, looped.underflow, "underflow, x={x} n={n}");
        assert_eq!(bulk.overflow, looped.overflow, "overflow, x={x} n={n}");
        assert_eq!(bulk.total, looped.total, "total, x={x} n={n}");
        assert_eq!(
            bulk.sum.to_bits(),
            looped.sum.to_bits(),
            "sum {} vs {}, x={x} n={n}",
            bulk.sum,
            looped.sum
        );
        bulk
    }

    #[test]
    fn record_n_matches_the_loop_on_integer_values() {
        let mut d = Distribution::new(0.0, 192.0, 8);
        d.record(3.0);
        d.record(170.0);
        for (x, n) in [
            (0.0, 1),
            (0.0, 5000),
            (7.0, 1),
            (24.0, 999),
            (191.0, 12_345),
        ] {
            d = assert_record_n_matches_loop(&d, x, n);
        }
        assert_eq!(d.total(), 2 + 1 + 5000 + 1 + 999 + 12_345);
    }

    #[test]
    fn record_n_matches_the_loop_on_fractional_values() {
        // 0.2 has no exact binary form: each addition rounds, so the
        // result is not `sum + n * 0.2` and must come from the loop.
        let mut d = Distribution::new(0.0, 10.0, 5);
        d.record(1.5);
        for (x, n) in [(0.2, 1), (0.2, 7), (0.2, 10_000), (2.75, 333), (0.1, 4096)] {
            d = assert_record_n_matches_loop(&d, x, n);
        }
    }

    #[test]
    fn record_n_matches_the_loop_on_underflow_and_overflow() {
        let d = Distribution::new(10.0, 20.0, 2);
        let d = assert_record_n_matches_loop(&d, 5.0, 40);
        let d = assert_record_n_matches_loop(&d, 25.0, 60);
        let d = assert_record_n_matches_loop(&d, -3.5, 11);
        let d = assert_record_n_matches_loop(&d, 20.0, 3); // `hi` overflows
        assert_eq!(d.underflow, 51);
        assert_eq!(d.overflow, 63);
        assert_record_n_matches_loop(&d, 10.0, 0); // n = 0 records nothing
    }

    #[test]
    fn record_n_falls_back_near_two_to_the_53() {
        // At 2^53 adding 1.0 rounds back to 2^53 (ties to even), so the
        // loop stalls there; one `sum + n * x` would land on 2^53 + 4.
        let two53 = (1u64 << 53) as f64;
        let mut d = Distribution::new(0.0, 8.0, 4);
        d.record(two53 - 1.0);
        let bulk = assert_record_n_matches_loop(&d, 1.0, 5);
        assert_eq!(bulk.sum, two53);
        assert_ne!(bulk.sum, (two53 - 1.0) + 5.0 * 1.0);
        // Exactly at the bound the single step is still exact.
        assert_record_n_matches_loop(&d, 1.0, 1);
        // Negative sums are bounded by magnitude as well.
        let mut neg = Distribution::new(0.0, 8.0, 4);
        neg.record(-(two53 - 2.0));
        assert_record_n_matches_loop(&neg, -1.0, 6);
        // Huge and non-finite values never take the single step.
        for x in [1e300, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut d = Distribution::new(0.0, 8.0, 4);
            d.record(2.0);
            let mut bulk = d.clone();
            bulk.record_n(x, 3);
            for _ in 0..3 {
                d.record(x);
            }
            assert_eq!(bulk.sum.to_bits(), d.sum.to_bits(), "x={x}");
            assert_eq!(bulk.total, d.total, "x={x}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn record_n_is_bit_identical_to_repeated_record(
            history in proptest::collection::vec(
                prop_oneof![
                    (-50i64..500).prop_map(|v| v as f64),
                    -50.0f64..500.0,
                    (0i64..4).prop_map(|k| (1u64 << 53) as f64 - k as f64),
                ],
                0..6,
            ),
            x in prop_oneof![
                (-50i64..500).prop_map(|v| v as f64),
                -50.0f64..500.0,
                (0u8..4).prop_map(|k| [0.2, 0.1, 1.0 / 3.0, 0.5][k as usize]),
                (0i64..4).prop_map(|k| (1u64 << 52) as f64 + k as f64),
            ],
            n in 0u64..3000,
        ) {
            let mut d = Distribution::new(0.0, 400.0, 8);
            for v in history {
                d.record(v);
            }
            assert_record_n_matches_loop(&d, x, n);
        }
    }
}

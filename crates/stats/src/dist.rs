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
    /// `(hi - lo) / buckets.len()`, the f64 bucket width.
    width: f64,
    /// The layout's integer form, when it has one.
    int: Option<IntLayout>,
}

/// An integer bucket layout: `lo`, `hi` and the bucket width are integers
/// within ±2^53 and the span `hi - lo` is below 2^32. An integer
/// observation `x` in `[lo, hi)` then has the bucket `d / width` in
/// integer division, `d = x - lo`: `d` is exact in f64 too, and a
/// fractional quotient `d / width` below 2^32 lies at least `1 / width`
/// below the next integer, far more than rounding it to an f64 can move
/// it, so the truncated f64 quotient is the same bucket.
#[derive(Debug, Clone, Copy)]
struct IntLayout {
    lo: i64,
    hi: i64,
    width: u64,
    /// `width` is `1 << shift` when `recip` is 0.
    shift: u32,
    /// `ceil(2^64 / width)` for a width that is not a power of two: the
    /// high word of `recip * d` is `d / width` for every `d` and `width`
    /// below 2^32 (Lemire, Kaser and Kurz, "Faster remainder by direct
    /// computation", 2019).
    recip: u64,
}

impl IntLayout {
    fn of(lo: f64, hi: f64, width: f64) -> Option<Self> {
        let integral = |v: f64| v.abs() <= EXACT as f64 && v.fract() == 0.0;
        if !(integral(lo) && integral(hi) && integral(width) && width >= 1.0) {
            return None;
        }
        if hi - lo >= (1u64 << 32) as f64 {
            return None;
        }
        let width = width as u64;
        let (shift, recip) = if width.is_power_of_two() {
            (width.trailing_zeros(), 0)
        } else {
            (0, u64::MAX / width + 1)
        };
        Some(Self {
            lo: lo as i64,
            hi: hi as i64,
            width,
            shift,
            recip,
        })
    }

    /// The bucket of the integer `x`, for `lo <= x < hi`.
    #[inline]
    fn bucket(&self, x: i64) -> usize {
        let d = x.abs_diff(self.lo);
        let idx = if self.recip == 0 {
            d >> self.shift
        } else {
            ((u128::from(self.recip) * u128::from(d)) >> 64) as u64
        };
        idx as usize
    }
}

impl Distribution {
    /// Creates a distribution with `n` equal buckets spanning `[lo, hi)`.
    ///
    /// When `lo`, `hi` and the bucket width are integers and the span is
    /// below 2^32 (every simulator distribution), integer observations
    /// find their bucket by integer arithmetic instead of an f64 division,
    /// landing in the same bucket; other layouts and values take the f64
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0, "distribution needs at least one bucket");
        assert!(hi > lo, "distribution range must be non-empty");
        let width = (hi - lo) / n as f64;
        Self {
            lo,
            hi,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
            sum: 0.0,
            total: 0,
            width,
            int: IntLayout::of(lo, hi, width),
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
        let exact = n > 1
            && integer(x).is_some_and(|x| {
                sums_exactly(self.sum, u128::from(n) * u128::from(x.unsigned_abs()))
            });
        if exact {
            self.sum += n as f64 * x;
        } else {
            for _ in 0..n {
                self.sum += x;
            }
        }
        self.total += n;
        *self.slot(x) += n;
    }

    /// Records the `n` consecutive integers `first, first + 1, …,
    /// first + n - 1`, bit-for-bit as `n` calls of
    /// [`record`](Self::record) would.
    ///
    /// On an integer layout (see [`Distribution::new`]) whose run stays
    /// within 2^53, the underflow, overflow and bucket counts take the
    /// run's overlap with each range in one step. So does the running sum
    /// while the sum is an integer and `|sum| + first + … + (first + n - 1)
    /// <= 2^53`: every partial sum is then an exact integer. Otherwise the
    /// run is recorded one value at a time.
    pub fn record_run(&mut self, first: u64, n: u64) {
        let end = first.checked_add(n).filter(|&end| end <= EXACT);
        let (Some(layout), Some(end), true) = (self.int, end, n > 1) else {
            for i in 0..n {
                self.record((first + i) as f64);
            }
            return;
        };
        let (n128, first128) = (u128::from(n), u128::from(first));
        let added = n128 * first128 + n128 * (n128 - 1) / 2;
        if sums_exactly(self.sum, added) {
            self.sum += added as f64;
        } else {
            for i in 0..n {
                self.sum += (first + i) as f64;
            }
        }
        self.total += n;
        // Every value is at most 2^53, so the run fits `i64`.
        let (a, b) = (first as i64, end as i64);
        let (lo, hi) = (layout.lo, layout.hi);
        self.underflow += (b.min(lo) - a).max(0) as u64;
        self.overflow += (b - a.max(hi)).max(0) as u64;
        let (mut v, stop) = (a.max(lo), b.min(hi));
        while v < stop {
            let i = layout.bucket(v);
            let bucket_end = (lo + (i as i64 + 1) * layout.width as i64).min(stop);
            self.buckets[i] += (bucket_end - v) as u64;
            v = bucket_end;
        }
    }

    /// The count an observation of `x` lands in. Range checks come first,
    /// so the integer path only sees `lo <= x < hi`, where `x as i64`
    /// is exact (±2^63, NaN and the infinities never reach it: the first
    /// two are out of range and the round trip rejects the others).
    #[inline]
    fn slot(&mut self, x: f64) -> &mut u64 {
        if x < self.lo {
            &mut self.underflow
        } else if x >= self.hi {
            &mut self.overflow
        } else {
            let idx = match self.int {
                Some(layout) if x as i64 as f64 == x => layout.bucket(x as i64),
                _ => ((x - self.lo) / self.width) as usize,
            };
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

/// Below this magnitude every integer is an `f64`.
const EXACT: u64 = 1 << 53;

/// `v` as an integer, when it is one within ±2^53. Non-finite and huge
/// values fail the `as i64` round trip.
fn integer(v: f64) -> Option<i64> {
    (v as i64 as f64 == v && v.abs() <= EXACT as f64).then_some(v as i64)
}

/// Whether adding integers whose magnitudes total `added` to `sum`, in
/// any order, rounds nowhere: `sum` is an integer and no partial sum can
/// leave `[-2^53, 2^53]`.
fn sums_exactly(sum: f64, added: u128) -> bool {
    integer(sum).is_some_and(|s| u128::from(s.unsigned_abs()) + added <= u128::from(EXACT))
}

impl StatItem for Distribution {
    fn visit_item(&self, name: &str, v: &mut dyn StatVisitor) {
        v.scalar(format_args!("{name}::underflow"), self.underflow as f64);
        for (i, b) in self.buckets.iter().enumerate() {
            let lo = self.lo + self.width * i as f64;
            let hi = (lo + self.width - 1.0).max(lo);
            v.scalar(
                format_args!("{name}::{}-{}", lo as i64, hi as i64),
                *b as f64,
            );
        }
        v.scalar(format_args!("{name}::overflow"), self.overflow as f64);
        v.scalar(format_args!("{name}::total"), self.total as f64);
        v.scalar(format_args!("{name}::mean"), self.mean());
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
        fn visit(&self, v: &mut dyn StatVisitor) {
            self.0.visit_item("lat", v);
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

    /// The bits of a sum, with every NaN as the one NaN: arithmetic that
    /// makes a NaN leaves its sign and payload unspecified, and the
    /// optimizer may commute an addition's operands.
    fn sum_bits(sum: f64) -> u64 {
        if sum.is_nan() {
            f64::NAN.to_bits()
        } else {
            sum.to_bits()
        }
    }

    /// Every field two distributions hold, the sum by its bits.
    fn assert_same(a: &Distribution, b: &Distribution, ctx: &str) {
        assert_eq!(a.buckets, b.buckets, "buckets, {ctx}");
        assert_eq!(a.underflow, b.underflow, "underflow, {ctx}");
        assert_eq!(a.overflow, b.overflow, "overflow, {ctx}");
        assert_eq!(a.total, b.total, "total, {ctx}");
        assert_eq!(sum_bits(a.sum), sum_bits(b.sum), "sum, {ctx}");
    }

    /// Bucket layouts `(lo, hi, n)`: the simulator's bucket widths 1, 24,
    /// 8, 4, 50, 15, 16 and 32, non-powers of two over a negative and a
    /// positive `lo`, and three layouts that must keep the f64 path (a
    /// non-integer width, a non-integer `lo`, a span of 2^33).
    const LAYOUTS: [(f64, f64, usize); 13] = [
        (0.0, 9.0, 9),
        (0.0, 192.0, 8),
        (0.0, 64.0, 8),
        (0.0, 32.0, 8),
        (0.0, 400.0, 8),
        (0.0, 120.0, 8),
        (0.0, 128.0, 8),
        (0.0, 256.0, 8),
        (-21.0, 14.0, 5),
        (10.0, 49.0, 3),
        (0.0, 100.0, 3),
        (0.5, 8.5, 4),
        (0.0, 8_589_934_592.0, 2),
    ];

    /// The f64 bucket lookup every layout used before integer layouts, as
    /// an index into `[underflow, bucket 0, …, bucket n - 1, overflow]`.
    fn f64_slot(lo: f64, hi: f64, n: usize, x: f64) -> usize {
        if x < lo {
            0
        } else if x >= hi {
            n + 1
        } else {
            let width = (hi - lo) / n as f64;
            1 + (((x - lo) / width) as usize).min(n - 1)
        }
    }

    #[test]
    fn integer_layouts_are_detected() {
        for (i, &(lo, hi, n)) in LAYOUTS.iter().enumerate() {
            let int = Distribution::new(lo, hi, n).int.is_some();
            assert_eq!(int, i < 10, "layout ({lo}, {hi}, {n})");
        }
    }

    fn observation() -> impl Strategy<Value = f64> {
        let two63 = 2f64.powi(63);
        prop_oneof![
            (-300i64..700).prop_map(|v| v as f64),
            -300.0f64..700.0,
            (0usize..8).prop_map(move |k| {
                [
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    two63,
                    -two63,
                    -0.0,
                    (1u64 << 53) as f64,
                    1e300,
                ][k]
            }),
        ]
    }

    #[test]
    fn record_run_crosses_underflow_overflow_and_two_to_the_53() {
        let two53 = 1u64 << 53;
        for (lo, hi, n) in LAYOUTS {
            for (history, first, len) in [
                (vec![], 0, 600),
                (vec![3.0], 7, 1),
                (vec![], 12, 30),
                (vec![-4.5], 300, 200),
                // The sum stalls at 2^53 in the loop; one step would not.
                (vec![(two53 - 100) as f64], 0, 40),
                // Values past 2^53 round in the loop's `as f64`.
                (vec![], two53 - 5, 12),
            ] {
                let mut d = Distribution::new(lo, hi, n);
                for v in history {
                    d.record(v);
                }
                let mut run = d.clone();
                run.record_run(first, len);
                for i in 0..len {
                    d.record((first + i) as f64);
                }
                assert_same(
                    &run,
                    &d,
                    &format!("({lo}, {hi}, {n}) first={first} n={len}"),
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn integer_buckets_match_the_f64_lookup(
            layout in 0usize..LAYOUTS.len(),
            ops in proptest::collection::vec((observation(), 0u64..4), 1..24),
        ) {
            let (lo, hi, n) = LAYOUTS[layout];
            let mut d = Distribution::new(lo, hi, n);
            let mut counts = vec![0u64; n + 2];
            let mut sum = 0.0f64;
            for (x, k) in ops {
                // k == 0 records once through `record`, otherwise `record_n`.
                if k == 0 {
                    d.record(x);
                } else {
                    d.record_n(x, k);
                }
                for _ in 0..k.max(1) {
                    sum += x;
                }
                counts[f64_slot(lo, hi, n, x)] += k.max(1);
                let ctx = format!("layout ({lo}, {hi}, {n}), x={x}, k={k}");
                prop_assert_eq!(d.underflow, counts[0], "underflow, {}", ctx);
                prop_assert_eq!(&d.buckets[..], &counts[1..=n], "buckets, {}", ctx);
                prop_assert_eq!(d.overflow, counts[n + 1], "overflow, {}", ctx);
                prop_assert_eq!(sum_bits(d.sum), sum_bits(sum), "sum, {}", ctx);
            }
        }

        #[test]
        fn record_run_is_bit_identical_to_a_loop_of_record(
            layout in 0usize..LAYOUTS.len(),
            history in proptest::collection::vec(
                prop_oneof![
                    (-50i64..500).prop_map(|v| v as f64),
                    -50.0f64..500.0,
                    (0i64..4000).prop_map(|k| (1u64 << 53) as f64 - k as f64),
                ],
                0..4,
            ),
            first in prop_oneof![
                0u64..600,
                (0u64..700).prop_map(|k| (1u64 << 53) - k),
            ],
            n in 0u64..800,
        ) {
            let (lo, hi, buckets) = LAYOUTS[layout];
            let mut d = Distribution::new(lo, hi, buckets);
            for v in history {
                d.record(v);
            }
            let mut run = d.clone();
            run.record_run(first, n);
            for i in 0..n {
                d.record((first + i) as f64);
            }
            assert_same(&run, &d, &format!("layout {layout}, first={first} n={n}"));
        }

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

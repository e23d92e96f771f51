//! Property-based tests for the statistics substrate.

use proptest::prelude::*;
use uarch_stats::{
    stat_group, Counter, Distribution, Sampler, Snapshot, StatGroup, StatItem, StatVisitor,
};

stat_group! {
    /// Three-counter test group.
    pub struct Trio {
        /// a.
        pub a: Counter => "a",
        /// b.
        pub b: Counter => "b",
        /// c.
        pub c: Counter => "c",
    }
}

proptest! {
    #[test]
    fn sampler_deltas_sum_to_cumulative_totals(
        increments in proptest::collection::vec((0u64..1000, 0u64..1000, 0u64..1000), 1..20)
    ) {
        let mut g = Trio::default();
        let mut s = Sampler::new(&g, "t");
        let mut sums = [0.0f64; 3];
        for (da, db, dc) in &increments {
            g.a.add(*da);
            g.b.add(*db);
            g.c.add(*dc);
            let row = s.sample(&g);
            for (acc, v) in sums.iter_mut().zip(&row) {
                *acc += v;
            }
        }
        let snap = Snapshot::of(&g, "t");
        prop_assert_eq!(sums[0], snap.get("t.a").unwrap());
        prop_assert_eq!(sums[1], snap.get("t.b").unwrap());
        prop_assert_eq!(sums[2], snap.get("t.c").unwrap());
    }

    #[test]
    fn sampler_deltas_are_never_negative_for_counters(
        increments in proptest::collection::vec(0u64..10_000, 1..30)
    ) {
        let mut g = Trio::default();
        let mut s = Sampler::new(&g, "t");
        for inc in increments {
            g.a.add(inc);
            let row = s.sample(&g);
            prop_assert!(row.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn distribution_buckets_account_for_every_observation(
        values in proptest::collection::vec(-50.0f64..150.0, 0..200)
    ) {
        let mut d = Distribution::new(0.0, 100.0, 10);
        for &v in &values {
            d.record(v);
        }
        prop_assert_eq!(d.total(), values.len() as u64);

        struct Holder(Distribution);
        impl StatGroup for Holder {
            fn visit(&self, v: &mut dyn StatVisitor) {
                self.0.visit_item("d", v);
            }
        }
        let snap = Snapshot::of(&Holder(d), "x");
        // Sum of underflow + buckets + overflow equals total.
        let total = snap.get("x.d::total").unwrap();
        let sum: f64 = snap
            .names()
            .iter()
            .zip(snap.values())
            .filter(|(n, _)| !n.ends_with("::total") && !n.ends_with("::mean"))
            .map(|(_, v)| v)
            .sum();
        prop_assert_eq!(sum, total);
    }

    #[test]
    fn distribution_mean_matches_arithmetic_mean(
        values in proptest::collection::vec(0.0f64..100.0, 1..100)
    ) {
        let mut d = Distribution::new(0.0, 100.0, 4);
        for &v in &values {
            d.record(v);
        }
        let expect = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!((d.mean() - expect).abs() < 1e-9);
    }

    #[test]
    fn schema_order_is_stable_across_samples(
        rounds in 1usize..10
    ) {
        let mut g = Trio::default();
        let s0 = Snapshot::of(&g, "t");
        for _ in 0..rounds {
            g.b.inc();
            let s1 = Snapshot::of(&g, "t");
            prop_assert_eq!(s0.names(), s1.names());
        }
    }
}

//! Metric names, units and the one-line JSON result.
//!
//! The two lists below mirror `end_to_end` and `per_layer` in
//! `BENCHMARK.json`; `run.py --smoke` checks that every run prints exactly
//! these names with these units.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_insts_per_s", "1/s"),
    ("windows_per_s", "1/s"),
    ("cpu_us_per_window", "us"),
    ("latency_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. A workload that does not cross a
/// layer reports zero for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_ms", "ms"),
    ("sim_cpu.new_ms", "ms"),
    ("sim_cpu.host_ns_per_cycle", "ns"),
    ("sim_cpu.host_ns_per_cycle_2core", "ns"),
    ("sim_cpu.ipc", "insts/cycle"),
    ("sim_cpu.sim_cycles", "count"),
    ("sim_mem.l2_mpki", "1/kinst"),
    ("stats.walk_us_per_sample", "us"),
    ("stats.push_us_per_sample", "us"),
    ("stats.allocs_per_sample", "count"),
    ("core.read_row_ns", "ns"),
    ("core.open_window_ns", "ns"),
    ("core.encode_bits_ns", "ns"),
    ("core.close_window_ns", "ns"),
    ("mlkit.push_ns", "ns"),
    ("mlkit.score_rows_ns", "ns"),
    ("core.allocs_per_window", "count"),
    ("core.degraded_share", "share"),
    ("core.train_s", "s"),
    ("core.corpus_write_ms", "ms"),
    ("core.corpus_open_ms", "ms"),
    ("serviced.start_ms", "ms"),
    ("serviced.submit_ns", "ns"),
    ("serviced.busy_per_kwindow", "count"),
    ("serviced.windows_per_sweep", "count"),
    ("serviced.queue_p50_us", "us"),
    ("serviced.queue_p99_us", "us"),
    ("serviced.shard_busy_share", "share"),
    ("bench.client_work_share", "share"),
    ("serviced.drain_ms", "ms"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("serviced.rss_growth_mb", "MiB"),
    ("serviced.allocs_per_window", "count"),
    ("bench.latency_p50_ms", "ms"),
    ("bench.latency_p99_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (traces for `collect`, windows otherwise).
    pub attempted: u64,
    /// Operations that failed: shed or lost windows, mismatched
    /// verdicts, simulator errors, invariant violations.
    pub failed: u64,
    /// A check that is not a per-operation count failed (the golden
    /// corpus digest).
    pub check_failed: bool,
    /// Metric values by name; units come from the lists above.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run facts recorded beside the result: seed, corpus digest, …
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records a metric; `name` must be in one of the lists above.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Records a run fact.
    pub fn info(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    /// The info line and the result line. The result carries the
    /// end-to-end metrics (untraced) or the per-layer ones (traced);
    /// a layer the workload never crossed reads zero. A missing or
    /// non-finite end-to-end value marks the run incorrect.
    pub fn render(&self, traced: bool) -> (String, String) {
        let info = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{v}\""))
            .collect::<Vec<_>>()
            .join(",");
        let list = if traced { PER_LAYER } else { END_TO_END };
        let mut correct = self.attempted > 0 && self.failed == 0 && !self.check_failed;
        let metrics = list
            .iter()
            .map(|(name, unit)| {
                let v = match self.metrics.get(name) {
                    Some(v) if v.is_finite() => *v,
                    _ => {
                        correct &= traced;
                        0.0
                    }
                };
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect::<Vec<_>>()
            .join(",");
        (
            format!("{{\"info\":{{{info}}}}}"),
            format!(
                "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
                self.attempted,
                self.failed
            ),
        )
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`, which it sorts.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// The percentile of a repeated unit's times (a round, or one sample of
/// a simulated run) taken as its uncontended time.
///
/// On a shared 2-vCPU VM the neighbours' load slows the benchmark by up
/// to 1.9× in spells of 50 ms to minutes, and the share of a run spent in
/// them varies from run to run, so even a median moves with the host.
/// The host can only slow a unit, never speed it up, so the fastest
/// hundredth of identical units is the program's own speed; a unit
/// repeated fewer than a hundred times takes its fastest repetition.
pub const FAST_PERCENTILE: f64 = 1.0;

/// The uncontended time of identical units: their [`FAST_PERCENTILE`]th
/// percentile. Sorts `xs`.
pub fn uncontended(xs: &mut [f64]) -> f64 {
    percentile(xs, FAST_PERCENTILE)
}

/// Median of `xs`, which it sorts.
pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 50.0)
}

//! `collect`: the simulator and sampler at work, with no detection.
//!
//! One thread runs every one-core suite workload, then the eight
//! two-core scenarios, each on a fresh `Machine` sampled every 10K
//! machine-wide instructions into a `SampleTrace`, and starts over until
//! the time is up. The first pass runs 120K instructions per workload,
//! the golden-test shape; later passes run the first 20K again, so that
//! each of those samples repeats often enough within a run to find its
//! uncontended time. Every run's final snapshot must satisfy
//! `sim_cpu::stat_invariants()` (one-core machines) and every trace must
//! hold one row per 10K instructions. At the default seed the first
//! pass's one-core traces are the repository's golden quick corpus and
//! must hash to its digest.

use perspectron::{CollectedCorpus, LabeledTrace};

use crate::report::{median, percentile, uncontended, Outcome};
use crate::setup::{simulate, SimTotals, COLLECT_INSTS, DEFAULT_SEED, INTERVAL};
use crate::trace::{self, span};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Instructions per run after the first pass: short, so that a run
/// repeats every one of these samples many times.
const REPEAT_INSTS: u64 = 2 * INTERVAL;

/// FNV-1a over the whole quick corpus, as pinned by the repository's
/// golden-stat test (`crates/core/tests/golden_stats.rs`).
const GOLDEN_QUICK_CORPUS_FNV: u64 = 0x283f_0806_99ad_2562;

/// Runs the workload for `seconds` of simulation.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = std::time::Instant::now();
        let suite = span("workloads.build", workloads::full_suite);
        let scenarios = span("workloads.build", workloads::cross_core_suite);
        setups.push(t.elapsed().as_secs_f64());
        jobs = suite
            .into_iter()
            .map(|w| (w.name, w.class, w.family, vec![w.program]))
            .chain(
                scenarios
                    .into_iter()
                    .map(|s| (s.name, s.class, s.family, s.programs)),
            )
            .collect();
    }
    let build_ms = trace::total("workloads.build").total_ns as f64 / 1e6 / SETUP_REPS as f64;
    out.set("setup_s", median(&mut setups));

    let one_core = jobs.iter().take_while(|j| j.3.len() == 1).count();
    let repeated_rows = (REPEAT_INSTS / INTERVAL) as usize;
    let mut host = SimTotals::default();
    let mut first_pass = SimTotals::default();
    let mut golden: Vec<LabeledTrace> = Vec::with_capacity(one_core);
    let mut busy_ns = 0u64;
    // Every pass simulates the same first 20K instructions of each job,
    // so sample `r` of job `j` is one unit repeated once per pass:
    // `units[j][r]` holds its wall (ms) and CPU (µs) times, and its
    // uncontended time is what the rates are computed from.
    let mut units = vec![vec![(Vec::new(), Vec::new()); repeated_rows]; jobs.len()];
    let mut sample_ms = Vec::new();
    let mut pass = 0;
    'run: loop {
        let insts = if pass == 0 {
            COLLECT_INSTS
        } else {
            REPEAT_INSTS
        };
        let expected_rows = (insts / INTERVAL) as usize;
        for (i, (name, class, family, programs)) in jobs.iter().enumerate() {
            if busy_ns as f64 / 1e9 >= seconds {
                break 'run;
            }
            out.attempted += 1;
            let run = match simulate(name, *class, *family, programs, insts, seed) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("collect: {name}: {e}");
                    out.failed += 1;
                    continue;
                }
            };
            if run.violations > 0 || run.trace.trace.len() != expected_rows {
                eprintln!(
                    "collect: {name}: {} invariant violations, {} rows (want {expected_rows})",
                    run.violations,
                    run.trace.trace.len()
                );
                out.failed += 1;
            }
            busy_ns += run.new_ns + run.run_ns;
            for (unit, (&ms, &cpu_us)) in units[i]
                .iter_mut()
                .zip(run.sample_ms.iter().zip(&run.sample_cpu_us))
            {
                unit.0.push(ms);
                unit.1.push(cpu_us);
            }
            sample_ms.extend_from_slice(&run.sample_ms);
            host.add(&run);
            if pass == 0 {
                first_pass.add(&run);
                if i < one_core {
                    golden.push(run.trace);
                }
            }
        }
        pass += 1;
    }
    out.info("passes", pass);

    if golden.len() == one_core {
        let digest = corpus_fnv(&CollectedCorpus {
            traces: golden,
            sample_interval: INTERVAL,
        });
        out.info("corpus_fnv", format!("{digest:#018x}"));
        if seed == DEFAULT_SEED && digest != GOLDEN_QUICK_CORPUS_FNV {
            eprintln!("collect: corpus digest {digest:#018x} differs from the golden quick corpus");
            out.check_failed = true;
        }
    } else {
        out.info("corpus_fnv", "first pass incomplete");
    }

    // One repeated pass at uncontended speed: its samples, 10K
    // instructions each, over the sum of their uncontended times.
    let (mut unit_ms, mut cpu_us) = (Vec::new(), 0.0);
    for (wall, cpu) in units.iter_mut().flatten().filter(|u| !u.0.is_empty()) {
        unit_ms.push(uncontended(wall));
        cpu_us += uncontended(cpu);
    }
    let pass_s = unit_ms.iter().sum::<f64>() / 1e3;
    let samples = unit_ms.len() as f64;
    out.set("sim_insts_per_s", samples * INTERVAL as f64 / pass_s);
    out.set("windows_per_s", samples / pass_s);
    out.set("cpu_us_per_window", cpu_us / samples);
    out.set("latency_ms", median(&mut unit_ms));
    out.set("bench.latency_p50_ms", median(&mut sample_ms));
    out.set("bench.latency_p99_ms", percentile(&mut sample_ms, 99.0));
    out.info("latency_samples", sample_ms.len());

    out.set("workloads.build_ms", build_ms);
    host.report_host(out);
    first_pass.report_simulated(out);
}

/// FNV-1a over a corpus's bytes: schema names, per-trace labels,
/// instruction counts, raw row bits and marks — byte for byte the hash
/// of the golden-stat test.
fn corpus_fnv(corpus: &CollectedCorpus) -> u64 {
    struct Fnv(u64);
    impl Fnv {
        fn bytes(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn u64(&mut self, v: u64) {
            self.bytes(&v.to_le_bytes());
        }
        fn str(&mut self, s: &str) {
            self.bytes(s.as_bytes());
            self.bytes(&[0xff]);
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let schema = corpus.schema();
    h.u64(schema.len() as u64);
    for name in schema.names() {
        h.str(name);
    }
    for t in &corpus.traces {
        h.str(&t.name);
        h.str(&format!("{:?}/{:?}", t.class, t.family));
        for &insts in t.trace.instruction_counts() {
            h.u64(insts);
        }
        for &v in t.trace.flat_values() {
            h.u64(v.to_bits());
        }
        for m in &t.marks {
            h.str(&format!("{:?}", m.kind));
            h.u64(m.at_inst);
            h.u64(m.at_cycle);
        }
    }
    h.0
}

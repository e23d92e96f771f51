//! Inputs and set-up: seeds, the simulator runs that produce traces, and
//! the trained detector with its corpus file that the detection workloads
//! replay.

use std::path::{Path, PathBuf};
use std::time::Instant;

use perspectron::faults::mix;
use perspectron::trace::workload_seed;
use perspectron::{
    core_seed, CollectedCorpus, CorpusReader, FaultPlan, FaultSpec, LabeledTrace, PerSpectron,
};
use sim_cpu::{CoreConfig, Machine, SimError};
use sim_mem::HierarchyConfig;
use uarch_isa::Program;
use uarch_stats::{SampleSink, SampleTrace, Sampler, Snapshot};
use workloads::{Class, Family};

use crate::report::Outcome;
use crate::trace::{self, span};

/// The seed at which `collect` reproduces the golden quick corpus.
pub const DEFAULT_SEED: u64 = 0;
/// Sampling interval of every workload, in committed instructions.
pub const INTERVAL: u64 = 10_000;
/// Instructions per simulated run in `collect` (the golden-test shape).
pub const COLLECT_INSTS: u64 = 120_000;
/// Instructions per workload in the detector's training corpus: four
/// windows each, which keeps set-up near a second.
pub const TRAIN_INSTS: u64 = 40_000;
/// Stat walks timed per finished machine in the traced run.
const WALK_REPS: usize = 4;

/// Per-workload simulator noise seed. At [`DEFAULT_SEED`] this is the
/// repository's own name-derived seed, so the default corpus is the
/// golden one; other seeds re-key every workload.
pub fn noise_seed(name: &str, seed: u64) -> u64 {
    workload_seed(name) ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// A seeded 64-bit draw keyed by `(seed, salt)`.
pub fn draw(seed: u64, salt: u64) -> u64 {
    mix(seed ^ mix(salt))
}

/// One simulated run: a labelled trace plus what the benchmark measured
/// and checked around it.
pub struct SimRun {
    /// The collected trace.
    pub trace: LabeledTrace,
    /// Cores in the machine.
    pub cores: usize,
    /// Machine cycles simulated.
    pub cycles: u64,
    /// Instructions committed machine-wide.
    pub committed: u64,
    /// Shared-L2 misses at the end of the run.
    pub l2_misses: f64,
    /// Violated `sim_cpu::stat_invariants()` (one-core machines only).
    pub violations: usize,
    /// Host time in `Machine::try_new`, ns.
    pub new_ns: u64,
    /// Host time in `Machine::run_with_sink`, ns (includes the sink).
    pub run_ns: u64,
    /// Host time in the sink's `SampleTrace::push`, ns (traced only).
    pub push_ns: u64,
    /// Allocations inside `SampleTrace::push` (traced only).
    pub push_allocs: u64,
    /// Mean `Sampler::sample_into` time over the finished machine, ns
    /// (traced only).
    pub walk_ns: f64,
    /// Host time from one sample to the next, ms.
    pub sample_ms: Vec<f64>,
    /// CPU time of the simulating thread from one sample to the next, µs.
    pub sample_cpu_us: Vec<f64>,
}

/// The benchmark's sink: forwards every sample to `SampleTrace::push`
/// and records the host wall and thread CPU time between samples.
struct TimedSink {
    trace: SampleTrace,
    last: Instant,
    last_cpu: u64,
    sample_ms: Vec<f64>,
    sample_cpu_us: Vec<f64>,
    push_allocs: u64,
}

impl SampleSink for TimedSink {
    fn on_sample(&mut self, insts: u64, row: &[f64]) {
        let allocs = trace::allocs();
        span("stats.push", || self.trace.push(insts, row));
        self.push_allocs += trace::allocs() - allocs;
        let (now, cpu) = (Instant::now(), trace::thread_cpu_ns());
        self.sample_ms
            .push(now.duration_since(self.last).as_secs_f64() * 1e3);
        self.sample_cpu_us.push((cpu - self.last_cpu) as f64 / 1e3);
        (self.last, self.last_cpu) = (now, cpu);
    }
}

struct NullSink;

impl SampleSink for NullSink {
    fn on_sample(&mut self, _insts: u64, row: &[f64]) {
        std::hint::black_box(row);
    }
}

/// Runs `programs` (one per core) on a fresh [`Machine`] for `insts`
/// machine-wide instructions, sampling every [`INTERVAL`] into a
/// [`SampleTrace`]. Core 0 takes `noise_seed(name, seed)`, other cores a
/// re-key of it, as the repository's scenario collector does.
pub fn simulate(
    name: &str,
    class: Class,
    family: Family,
    programs: &[Program],
    insts: u64,
    seed: u64,
) -> Result<SimRun, SimError> {
    let t = Instant::now();
    let mut machine = span("sim_cpu.new", || {
        Machine::try_new(
            &CoreConfig::default(),
            &HierarchyConfig::default(),
            programs.to_vec(),
        )
    })?;
    let new_ns = t.elapsed().as_nanos() as u64;
    let base = noise_seed(name, seed);
    for i in 0..machine.n_cores() {
        machine.core_mut(i).set_noise_seed(core_seed(base, i));
    }
    let rows = (insts / INTERVAL) as usize;
    let mut sink = TimedSink {
        trace: SampleTrace::new(machine.stat_schema()),
        last: Instant::now(),
        last_cpu: trace::thread_cpu_ns(),
        sample_ms: Vec::with_capacity(rows),
        sample_cpu_us: Vec::with_capacity(rows),
        push_allocs: 0,
    };
    let push_before = trace::total("stats.push").total_ns;
    let t = Instant::now();
    sink.last = t;
    span("sim_cpu.run_with_sink", || {
        machine.run_with_sink(insts, INTERVAL, &mut sink)
    })?;
    let run_ns = t.elapsed().as_nanos() as u64;
    let push_ns = trace::total("stats.push").total_ns - push_before;

    let snap = Snapshot::of(&machine, "");
    let violations = if machine.n_cores() == 1 {
        uarch_stats::invariant::check_snapshot(&sim_cpu::stat_invariants(), &snap).len()
    } else {
        0
    };
    let mut walk_ns = 0.0;
    if trace::enabled() {
        let mut sampler = Sampler::new(&machine, "");
        let t = Instant::now();
        for _ in 0..WALK_REPS {
            span("stats.walk", || {
                sampler.sample_into(&machine, 0, &mut NullSink);
            });
        }
        walk_ns = t.elapsed().as_nanos() as f64 / WALK_REPS as f64;
    }
    Ok(SimRun {
        trace: LabeledTrace {
            name: name.to_string(),
            class,
            family,
            trace: sink.trace,
            marks: machine.core(0).marks().to_vec(),
        },
        cores: machine.n_cores(),
        cycles: machine.cycles(),
        committed: machine.total_committed(),
        l2_misses: snap.get("l2.overall_misses").unwrap_or(0.0),
        violations,
        new_ns,
        run_ns,
        push_ns,
        push_allocs: sink.push_allocs,
        walk_ns,
        sample_ms: sink.sample_ms,
        sample_cpu_us: sink.sample_cpu_us,
    })
}

/// `x / n`, or zero when nothing was counted.
fn per(x: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        x / n as f64
    }
}

/// Per-layer totals over a set of simulated runs.
#[derive(Debug, Default)]
pub struct SimTotals {
    runs: u64,
    new_ns: u64,
    samples: u64,
    push_ns: u64,
    push_allocs: u64,
    walk_ns: f64,
    /// `[one-core, two-core]`: host ns outside push and walk, cycles.
    host: [(f64, u64); 2],
    one_core_committed: u64,
    one_core_cycles: u64,
    cycles: u64,
    committed: u64,
    l2_misses: f64,
}

impl SimTotals {
    /// Folds one run in.
    pub fn add(&mut self, run: &SimRun) {
        let samples = run.trace.trace.len() as u64;
        self.runs += 1;
        self.new_ns += run.new_ns;
        self.samples += samples;
        self.push_ns += run.push_ns;
        self.push_allocs += run.push_allocs;
        self.walk_ns += run.walk_ns * samples as f64;
        let host = run.run_ns as f64 - run.push_ns as f64 - run.walk_ns * samples as f64;
        let side = &mut self.host[usize::from(run.cores > 1)];
        side.0 += host;
        side.1 += run.cycles;
        if run.cores == 1 {
            self.one_core_committed += run.committed;
            self.one_core_cycles += run.cycles;
        }
        self.cycles += run.cycles;
        self.committed += run.committed;
        self.l2_misses += run.l2_misses;
    }

    /// Host-time layer metrics: `sim_cpu.new_ms`, the host cost per
    /// simulated cycle, and the stat walk and push costs per sample.
    pub fn report_host(&self, out: &mut Outcome) {
        out.set("sim_cpu.new_ms", per(self.new_ns as f64 / 1e6, self.runs));
        out.set(
            "sim_cpu.host_ns_per_cycle",
            per(self.host[0].0, self.host[0].1),
        );
        out.set(
            "sim_cpu.host_ns_per_cycle_2core",
            per(self.host[1].0, self.host[1].1),
        );
        out.set(
            "stats.walk_us_per_sample",
            per(self.walk_ns / 1e3, self.samples),
        );
        out.set(
            "stats.push_us_per_sample",
            per(self.push_ns as f64 / 1e3, self.samples),
        );
        out.set(
            "stats.allocs_per_sample",
            per(self.push_allocs as f64, self.samples),
        );
    }

    /// Simulated-value metrics (`sim_cpu.ipc`, `sim_cpu.sim_cycles`,
    /// `sim_mem.l2_mpki`): functions of the inputs alone, so a host-only
    /// change must leave them exactly equal.
    pub fn report_simulated(&self, out: &mut Outcome) {
        out.set(
            "sim_cpu.ipc",
            per(self.one_core_committed as f64, self.one_core_cycles),
        );
        out.set("sim_cpu.sim_cycles", self.cycles as f64);
        out.set("sim_mem.l2_mpki", per(self.l2_misses * 1e3, self.committed));
    }
}

/// The fault spec `replay_paced` replays through: rare per-value
/// corruption and per-component dropout, so a minority of windows (4–14%,
/// depending on the seed) arrives degraded. The plan seed derives from
/// the workload seed.
pub fn paced_faults(seed: u64) -> FaultSpec {
    FaultSpec {
        seed: draw(seed, 0xfa17),
        component_dropout: 0.004,
        row_drop: 0.0,
        corruption: 0.0001,
        interval_jitter: 0,
    }
}

/// What a detection workload replays: the trained detector and the
/// corpus file it reads rows from. The file is removed on drop.
pub struct Fleet {
    /// The trained detector.
    pub detector: PerSpectron,
    /// The memory-mapped corpus file.
    pub reader: CorpusReader,
    /// Rows per trace.
    pub rows: Vec<usize>,
    /// Layer totals of the training corpus's simulated runs.
    pub sim: SimTotals,
    path: PathBuf,
}

impl Fleet {
    /// FNV-1a over the corpus file's bytes: the digest of what the
    /// workload replays.
    pub fn file_fnv(&self) -> u64 {
        let bytes = std::fs::read(&self.path).unwrap_or_default();
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Builds the programs, collects the one-core training corpus, trains
/// the detector on it, optionally faults the corpus, writes it to
/// `dir/name` and maps it back.
pub fn fleet(
    seed: u64,
    faults: Option<FaultSpec>,
    dir: &Path,
    name: &str,
) -> Result<Fleet, String> {
    let suite = span("workloads.build", workloads::full_suite);
    let mut traces = Vec::with_capacity(suite.len());
    let mut sim = SimTotals::default();
    for w in &suite {
        let run = simulate(
            &w.name,
            w.class,
            w.family,
            std::slice::from_ref(&w.program),
            TRAIN_INSTS,
            seed,
        )
        .map_err(|e| format!("{}: {e}", w.name))?;
        sim.add(&run);
        traces.push(run.trace);
    }
    let clean = CollectedCorpus {
        traces,
        sample_interval: INTERVAL,
    };
    let detector = span("core.train", || PerSpectron::train(&clean, 42));
    let corpus = match faults {
        Some(spec) => FaultPlan::new(spec, clean.schema()).fault_corpus(&clean),
        None => clean,
    };
    let path = dir.join(name);
    span("core.corpus_write", || {
        perspectron::write_corpus(&path, &corpus)
    })
    .map_err(|e| format!("write {}: {e}", path.display()))?;
    let reader = span("core.corpus_open", || CorpusReader::open(&path))
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    let rows = (0..reader.n_traces())
        .map(|t| reader.trace_meta(t).rows)
        .collect();
    Ok(Fleet {
        detector,
        reader,
        rows,
        sim,
        path,
    })
}

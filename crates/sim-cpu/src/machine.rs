//! The multi-core machine: N out-of-order cores sharing one uncore.
//!
//! A [`Machine`] interleaves per-core ticks in lockstep — every cycle each
//! non-halted core steps once, in a rotating order so no core gets a
//! standing first-access advantage on the shared L1↔L2 crossbar — and then
//! drains the uncore's snoop queue, back-invalidating lines that left the
//! shared L2 (or were requested exclusively) from the *other* cores'
//! private L1s. Cores keep their private L1 caches and their own
//! functional memory (architectural isolation), while all timing state
//! below L1 — the shared L2, both crossbars and the DRAM controller — is
//! one [`Uncore`] the machine owns by value and lends to each core's step
//! in turn. Cores tick sequentially, so a plain `&mut` borrow is all the
//! sharing needs, and an owned uncore keeps the machine `Send` for
//! parallel corpus collection.
//!
//! Tick-skipping stays correct across cores: the machine fast-forwards
//! only when *every* active core proves all of its stages stalled
//! (`Core::stall_plan`), jumping everyone to the earliest wake event and
//! crediting each core the exact per-cycle stall statistics the stepped
//! loop would have recorded. The credit is bulk (`Core::credit_stall_cycles`):
//! counters add the skip length and constant-valued distributions record
//! it in one step, so a skip costs about as much as one stepped cycle
//! however long it is. One busy core vetoes the skip for the whole
//! machine.
//!
//! The machine is the simulator's only driver — the only way to build or
//! step a [`Core`] — and a standalone program runs on a one-core machine.
//! A one-core uncore arms no snooping or arbiter accounting, the
//! statistic walk emits the historical flat layout (1159 names), and
//! tick-skipping only credits the stall statistics the stepped cycles
//! would have recorded. Multi-core machines namespace each core's
//! statistics under `core0.`, `core1.`, … while the shared uncore groups
//! stay unprefixed.

use std::sync::OnceLock;
use std::time::Instant;

use sim_mem::{HierarchyConfig, MemoryHierarchy, Uncore};
use uarch_isa::Program;
use uarch_stats::{SampleSink, Sampler, Schema, StatGroup, StatVisitor};

use crate::config::CoreConfig;
use crate::core::Core;
use crate::error::SimError;

/// Outcome of a [`Machine::run`] or [`Machine::run_with_sink`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Instructions committed in total, machine-wide.
    pub committed: u64,
    /// Machine cycles simulated in total.
    pub cycles: u64,
    /// Whether every program halted.
    pub halted: bool,
    /// Wall-clock throughput of this call: committed instructions per
    /// host second (0.0 when the call committed nothing or the clock
    /// resolution swallowed it).
    pub insts_per_sec: f64,
    /// Wall-clock throughput of this call: simulated cycles per host
    /// second.
    pub sim_cycles_per_sec: f64,
}

/// N out-of-order cores in lockstep around one shared uncore.
pub struct Machine {
    cores: Vec<Core>,
    uncore: Uncore,
    cycle: u64,
    /// The statistic schema, resolved on first use: the walk's names
    /// depend only on the number of cores, fixed at construction.
    schema: OnceLock<Schema>,
}

impl Machine {
    /// Builds a machine with one core per program, every core running the
    /// same configuration, all sharing the uncore described by `hcfg`
    /// (each core still gets private L1s from `hcfg.l1i`/`hcfg.l1d`).
    ///
    /// Cores are architecturally isolated — each gets its own functional
    /// memory image of its program — but share all timing state below the
    /// L1s, so same addresses across cores model shared read-only pages
    /// (Flush+Reload territory) and same-set-different-tag addresses
    /// contend for shared L2 ways (cross-core Prime+Probe).
    ///
    /// # Errors
    ///
    /// Fails when `programs` is empty, the core configuration is invalid,
    /// or the hierarchy configuration is degenerate.
    pub fn try_new(
        cfg: &CoreConfig,
        hcfg: &HierarchyConfig,
        programs: Vec<Program>,
    ) -> Result<Self, SimError> {
        Self::build(cfg, hcfg, programs.into_iter())
    }

    /// Builds a machine, panicking on configuration errors.
    ///
    /// # Panics
    ///
    /// Panics if [`Machine::try_new`] would return an error.
    pub fn new(cfg: &CoreConfig, hcfg: &HierarchyConfig, programs: Vec<Program>) -> Self {
        Self::try_new(cfg, hcfg, programs).expect("valid machine configuration")
    }

    /// Builds a one-core machine running `program` on the default memory
    /// hierarchy: how a standalone program runs.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`CoreConfig::validate`]).
    pub fn single_core(cfg: &CoreConfig, program: Program) -> Self {
        Self::build(cfg, &HierarchyConfig::default(), std::iter::once(program))
            .expect("valid machine configuration")
    }

    fn build(
        cfg: &CoreConfig,
        hcfg: &HierarchyConfig,
        programs: impl ExactSizeIterator<Item = Program>,
    ) -> Result<Self, SimError> {
        let n = programs.len();
        if n == 0 {
            return Err(SimError::InvalidConfig {
                param: "n_cores",
                value: 0,
                reason: "a machine needs at least one core",
            });
        }
        let uncore = Uncore::try_new(hcfg, n).map_err(SimError::Mem)?;
        let mut cores = Vec::with_capacity(n);
        for (i, program) in programs.enumerate() {
            let mem = MemoryHierarchy::try_new(hcfg.l1i.clone(), hcfg.l1d.clone(), i)
                .map_err(SimError::Mem)?;
            cores.push(Core::try_with_parts(cfg.clone(), program, mem)?);
        }
        Ok(Self {
            cores,
            uncore,
            cycle: 0,
            schema: OnceLock::new(),
        })
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// The cores, in id order.
    pub fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// Core `i`.
    pub fn core(&self, i: usize) -> &Core {
        &self.cores[i]
    }

    /// Mutable access to core `i` (per-core noise seeding, register
    /// probes).
    pub fn core_mut(&mut self, i: usize) -> &mut Core {
        &mut self.cores[i]
    }

    /// Machine cycles simulated so far (all active cores tick in
    /// lockstep at this cycle count; a halted core's clock freezes).
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Instructions committed across all cores.
    pub fn total_committed(&self) -> u64 {
        self.cores.iter().map(Core::committed_insts).sum()
    }

    /// Whether every core's program has halted.
    pub fn all_halted(&self) -> bool {
        self.cores.iter().all(Core::halted)
    }

    /// The shared uncore (L2/bus/DRAM probes).
    pub fn uncore(&self) -> &Uncore {
        &self.uncore
    }

    /// Applies CEASER-style cache index randomization to core `core`'s
    /// data side: its L1D and the shared L2 (see
    /// [`MemoryHierarchy::randomize_indexing`]).
    pub fn randomize_cache_indexing(&mut self, core: usize, key: u64) {
        self.cores[core]
            .mem_mut()
            .randomize_indexing(&mut self.uncore, key);
    }

    /// The machine's full statistic schema: the flat single-core layout
    /// for one core, `coreN.`-namespaced per-core banks plus unprefixed
    /// shared-uncore groups otherwise. Resolved once per machine; every
    /// call returns a clone sharing that storage.
    pub fn stat_schema(&self) -> Schema {
        self.schema.get_or_init(|| Schema::of(self, "")).clone()
    }

    /// The tightest cycle budget configured on any core (the machine
    /// watchdog: one runaway core must not hang collection).
    fn cycle_budget(&self) -> Option<u64> {
        self.cores
            .iter()
            .filter_map(|c| c.config().cycle_budget)
            .min()
    }

    /// Whether the fast path may skip stalled cycles: every core must opt
    /// in (reference scans step everything).
    fn tick_skip(&self) -> bool {
        self.cores
            .iter()
            .all(|c| c.config().tick_skip && !c.config().reference_scan)
    }

    /// Runs until every program halts or `max_insts` more instructions
    /// commit machine-wide. Returns a summary of total progress.
    ///
    /// The run stops early at a cycle cap of 40 cycles per requested
    /// instruction plus two million, or at the tightest configured
    /// [`CoreConfig::cycle_budget`]. When every core enables
    /// [`CoreConfig::tick_skip`] (the default), the loop jumps over
    /// stretches of cycles in which every active core is provably stalled
    /// — typically whole windows waiting on a DRAM fill — crediting the
    /// exact per-cycle stall statistics the stepped loop would have
    /// recorded.
    pub fn run(&mut self, max_insts: u64) -> RunSummary {
        let started = Instant::now();
        let committed_before = self.total_committed();
        let cycles_before = self.cycle;
        let target = committed_before.saturating_add(max_insts);
        let mut cycle_cap = self
            .cycle
            .saturating_add(max_insts.saturating_mul(40))
            .saturating_add(2_000_000);
        if let Some(budget) = self.cycle_budget() {
            cycle_cap = cycle_cap.min(budget);
        }
        let skip = self.tick_skip();
        let n = self.cores.len();
        while !self.all_halted() && self.total_committed() < target && self.cycle < cycle_cap {
            if skip {
                self.skip_stalled(cycle_cap);
                if self.cycle >= cycle_cap {
                    break;
                }
            }
            // Rotate the tick order so bus arbitration ties don't always
            // fall to core 0.
            for k in 0..n {
                let i = (self.cycle as usize + k) % n;
                if !self.cores[i].halted() {
                    self.cores[i].step(&mut self.uncore);
                }
            }
            if n > 1 {
                self.drain_snoops();
            }
            self.cycle += 1;
        }
        for core in &mut self.cores {
            core.flush_occupancies();
        }
        let secs = started.elapsed().as_secs_f64();
        let rate = |delta: u64| if secs > 0.0 { delta as f64 / secs } else { 0.0 };
        RunSummary {
            committed: self.total_committed(),
            cycles: self.cycle,
            halted: self.all_halted(),
            insts_per_sec: rate(self.total_committed() - committed_before),
            sim_cycles_per_sec: rate(self.cycle - cycles_before),
        }
    }

    /// Fast-forwards past cycles in which *every* active core is provably
    /// stalled. Any core that could make progress vetoes the whole skip;
    /// otherwise all active cores jump to the earliest wake event across
    /// the machine, each crediting, in bulk, its exact per-cycle stall
    /// statistics.
    ///
    /// The plans are not kept between the veto pass and the credit pass:
    /// a core's plan is a pure function of state the veto pass leaves
    /// alone, so recomputing it costs one analysis per successful skip and
    /// keeps the per-cycle check free of allocation.
    fn skip_stalled(&mut self, cycle_cap: u64) {
        let mut wake = cycle_cap;
        for core in self.cores.iter_mut().filter(|c| !c.halted()) {
            match core.stall_plan() {
                Some(plan) => wake = wake.min(plan.wake(cycle_cap)),
                None => return,
            }
        }
        if wake <= self.cycle {
            return;
        }
        for core in self.cores.iter_mut().filter(|c| !c.halted()) {
            let plan = core.stall_plan().expect("the veto pass found it stalled");
            core.credit_stall_cycles(&plan, wake);
        }
        self.cycle = wake;
    }

    /// Applies the uncore's queued back-invalidations to every core except
    /// the one whose request caused them, and records delivered snoops on
    /// the L1↔L2 crossbar's snoop filter. Runs after each lockstep tick
    /// round, so the queue never carries entries across a skip (stalled
    /// cores make no memory requests).
    fn drain_snoops(&mut self) {
        let pending = self.uncore.take_pending_invalidations();
        if pending.is_empty() {
            return;
        }
        let mut delivered = 0u64;
        for inv in &pending {
            for (i, core) in self.cores.iter_mut().enumerate() {
                if i == inv.src_core {
                    continue;
                }
                delivered += core.mem_mut().snoop_invalidate(inv.line_addr);
            }
        }
        if delivered > 0 {
            self.uncore.record_snoops(delivered);
        }
    }

    /// Runs until every program halts or `insts` more instructions commit
    /// machine-wide, emitting one stat-delta row to `sink` every
    /// `interval` *machine-wide* committed instructions — the paper's
    /// online sampling unit, observed as it happens instead of
    /// materialized after the run. Sampling boundaries sit on the
    /// aggregate commit count, so attacker and victim progress both
    /// advance the window.
    ///
    /// Boundaries and the sampler's baseline are taken from the machine's
    /// state at call entry, so on a machine that has already run the deltas
    /// cover exactly the instructions executed by this call. Each row is
    /// stamped with the machine-wide committed count at its sampling point.
    /// Sampling stops early if the programs halt or stall before the next
    /// boundary; a final partial window is never emitted.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ZeroSampleInterval`] when `interval` is zero,
    /// and [`SimError::CycleBudgetExceeded`] when the tightest configured
    /// per-core cycle budget runs out before the run halts or reaches its
    /// instruction target.
    pub fn run_with_sink(
        &mut self,
        insts: u64,
        interval: u64,
        sink: &mut dyn SampleSink,
    ) -> Result<RunSummary, SimError> {
        if interval == 0 {
            return Err(SimError::ZeroSampleInterval);
        }
        let started = Instant::now();
        let committed_before = self.total_committed();
        let cycles_before = self.cycle;
        let mut sampler = Sampler::with_schema(self.stat_schema(), &*self);
        let end = committed_before.saturating_add(insts);
        let mut next = committed_before.saturating_add(interval);
        let mut summary = RunSummary {
            committed: self.total_committed(),
            cycles: self.cycle,
            halted: self.all_halted(),
            insts_per_sec: 0.0,
            sim_cycles_per_sec: 0.0,
        };
        let mut cut_short = false;
        while next <= end {
            summary = self.run(next.saturating_sub(self.total_committed()));
            if self.all_halted() || self.total_committed() < next {
                // Programs ended, stalled, or hit the watchdog.
                cut_short = !self.all_halted();
                break;
            }
            sampler.sample_into(&*self, self.total_committed(), sink);
            next = next.saturating_add(interval);
        }
        if let Some(budget) = self.cycle_budget() {
            if cut_short && self.cycle >= budget {
                return Err(SimError::CycleBudgetExceeded {
                    budget,
                    cycles: self.cycle,
                    committed: self.total_committed(),
                });
            }
        }
        // Per-chunk rates from the inner `run` calls exclude sampling
        // overhead; report whole-call throughput instead.
        let secs = started.elapsed().as_secs_f64();
        if secs > 0.0 {
            summary.insts_per_sec = (self.total_committed() - committed_before) as f64 / secs;
            summary.sim_cycles_per_sec = (self.cycle - cycles_before) as f64 / secs;
        }
        Ok(summary)
    }
}

impl StatGroup for Machine {
    fn visit(&self, v: &mut dyn StatVisitor) {
        if self.cores.len() == 1 {
            // Standalone layout: the core's flat groups (which end at
            // the private L1s) followed by the uncore groups in their
            // historical positions — exactly the pinned 1159-name census.
            self.cores[0].visit(v);
        } else {
            for (i, core) in self.cores.iter().enumerate() {
                v.enter(format_args!("core{i}"));
                core.visit(v);
                v.leave();
            }
        }
        self.uncore.visit(v);
    }
}

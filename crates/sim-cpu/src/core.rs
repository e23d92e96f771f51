//! The out-of-order core: an 8-wide, speculative, register-renaming
//! pipeline with gem5-style statistics.
//!
//! The pipeline is cycle-driven and the [`Core`] is an *orchestrator*: the
//! stages themselves live in the crate-private `pipeline` module as
//! components that own their architectural state and statistics. Each
//! `Core::step` calls the inherent `tick` of commit, execute, issue,
//! rename/dispatch, decode and fetch for one cycle, wiring them together
//! through small ports (the front-end instruction queue that fetch fills,
//! decode advances over and rename drains, the issue→execute wakeup port,
//! and the squash request that commit, execute and issue may return,
//! applied by the squash walk before the next stage runs). Speculation is
//! real:
//! fetch follows the predictors, wrong-path instructions execute (and touch
//! the caches — the side-channel), and squash walks undo the rename map,
//! the call stack, the RAS and the global history.

use sim_mem::{MemoryHierarchy, Uncore};
use uarch_isa::{MarkKind, Program, Reg};
use uarch_stats::registry::ComponentId;
use uarch_stats::{Distribution, StatGroup, StatItem, StatVisitor};

use crate::config::CoreConfig;
use crate::decoded::DecodedProgram;
use crate::error::SimError;
use crate::pipeline::commit::{CommitPorts, CommitStage};
use crate::pipeline::decode::{DecodePorts, DecodeStage};
use crate::pipeline::execute::{ExecutePorts, ExecuteStage, FuWakeup};
use crate::pipeline::fetch::{FetchPorts, FetchStage};
use crate::pipeline::issue::{IssuePorts, IssueStage};
use crate::pipeline::rename::{RenamePorts, RenameStage};
use crate::pipeline::squash::{self, SquashPorts};
use crate::pipeline::{FrontEndQueue, Predictors, RegFile, SquashRequest, Window};
use crate::stats::{
    BPredStats, CommitStats, CpuStats, DecodeStats, FetchStats, IewStats, IqStats, RenameStats,
    RobStats, TlbStats,
};

/// First byte address of the kernel half of the address space; any data
/// access at or above it faults at commit (but — Meltdown — data is still
/// forwarded speculatively).
pub const KERNEL_SPACE_BASE: u64 = 0x8000_0000;

/// A committed simulator mark (gem5 `m5ops` analog).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkEvent {
    /// What the workload annotated.
    pub kind: MarkKind,
    /// Committed-instruction count when the mark committed.
    pub at_inst: u64,
    /// Cycle when the mark committed.
    pub at_cycle: u64,
}

/// A borrowed view of every statistic group of the core, assembled from
/// the stage components that own them.
///
/// Field names match the paper's component vocabulary (and the old
/// monolithic stats struct), so `core.stats().commit.branches` reads the
/// commit stage's counter regardless of which stage owns it.
#[derive(Debug, Clone, Copy)]
pub struct CoreStatsView<'a> {
    /// Fetch stage.
    pub fetch: &'a FetchStats,
    /// Decode stage.
    pub decode: &'a DecodeStats,
    /// Rename stage.
    pub rename: &'a RenameStats,
    /// Instruction queue.
    pub iq: &'a IqStats,
    /// Issue/execute/writeback (owns LSQ + memDep groups).
    pub iew: &'a IewStats,
    /// Commit stage.
    pub commit: &'a CommitStats,
    /// Reorder buffer.
    pub rob: &'a RobStats,
    /// Branch predictor.
    pub bpred: &'a BPredStats,
    /// Data TLB.
    pub dtb: &'a TlbStats,
    /// Instruction TLB.
    pub itb: &'a TlbStats,
    /// CPU-level counters.
    pub cpu: &'a CpuStats,
}

/// What a stalled commit stage would record each cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CommitStall {
    /// Empty ROB.
    Idle,
    /// Head not executed yet (already authorized if non-spec).
    HeadWait {
        /// Whether the waiting head is non-speculative.
        non_spec: bool,
    },
}

/// What a stalled rename stage would record each cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RenameStall {
    Idle,
    Serialize,
    RobFull,
    IqFull,
    LqFull,
    SqFull,
    RegsFull,
}

/// What a stalled fetch stage would record each cycle.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FetchStall {
    Idle,
    PendingTrap,
    SquashWait,
    Quiesce,
    ICache,
    QueueFullMisc,
    QueueFullBlocked,
}

/// A proof that every stage of a core is stalled this cycle, with the
/// per-stage classification needed to credit the exact stall statistics
/// the stepped loop would have recorded, and the earliest events that
/// could unstall anything. Produced by [`Core::stall_plan`]; consumed by
/// [`Core::credit_stall_cycles`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct StallPlan {
    commit: CommitStall,
    rename: RenameStall,
    fetch: FetchStall,
    decode_blocked: bool,
    /// Ready loads the issue stage turns away each cycle because the L1D
    /// MSHR pool is saturated, parked or not.
    mshr_blocked_loads: u64,
    next_completion: Option<u64>,
    fetch_wake: Option<u64>,
}

impl StallPlan {
    /// The earliest cycle at which anything can unstall: the next execute
    /// completion or a timed fetch stall expiring. Both `None` is a
    /// provable deadlock — the stepped loop would spin to its cycle cap,
    /// so the skip jumps there crediting the identical stall counters.
    pub(crate) fn wake(&self, cycle_cap: u64) -> u64 {
        match (self.next_completion, self.fetch_wake) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => cycle_cap,
        }
    }
}

/// A per-cycle occupancy awaiting its record: `cycles` consecutive cycles
/// at `value`. Occupancies seldom change from one cycle to the next, so
/// the run is recorded with one
/// [`record_n`](uarch_stats::Distribution::record_n) when a different
/// value breaks it, instead of one record per cycle. The distribution sees
/// the same values in the same order either way.
#[derive(Debug, Default, Clone, Copy)]
struct OccupancyRun {
    value: usize,
    cycles: u64,
}

impl OccupancyRun {
    /// Extends the run by `k` cycles at `value`, first recording the
    /// pending run into `dist` if `value` breaks it.
    fn push(&mut self, value: usize, k: u64, dist: &mut Distribution) {
        if value != self.value {
            self.flush(dist);
            self.value = value;
        }
        self.cycles += k;
    }

    fn flush(&mut self, dist: &mut Distribution) {
        if self.cycles > 0 {
            dist.record_n(self.value as f64, self.cycles);
            self.cycles = 0;
        }
    }
}

/// The ROB head's age awaiting its record: the `cycles` consecutive
/// integers from `first`. The age grows by one each cycle until the head
/// retires, so the run breaks only at a commit or squash and is recorded
/// with one [`record_run`](uarch_stats::Distribution::record_run).
#[derive(Debug, Default, Clone, Copy)]
struct AgeRun {
    first: u64,
    cycles: u64,
}

impl AgeRun {
    /// Extends the run by the `k` ages from `first`, first recording the
    /// pending run into `dist` if `first` does not continue it.
    fn push(&mut self, first: u64, k: u64, dist: &mut Distribution) {
        if self.first + self.cycles != first {
            self.flush(dist);
            self.first = first;
        }
        self.cycles += k;
    }

    fn flush(&mut self, dist: &mut Distribution) {
        if self.cycles > 0 {
            dist.record_run(self.first, self.cycles);
            self.cycles = 0;
        }
    }
}

/// The pending runs of every per-cycle occupancy distribution, recorded
/// when their values break and flushed whole by
/// [`Core::flush_occupancies`] before any statistic walk.
#[derive(Debug, Default)]
struct Occupancies {
    fetch_q: OccupancyRun,
    decode_q: OccupancyRun,
    rob: OccupancyRun,
    iq: OccupancyRun,
    lq: OccupancyRun,
    sq: OccupancyRun,
    head_age: AgeRun,
}

/// One out-of-order core plus its private memory slice (L1s, functional
/// memory).
///
/// Only [`Machine`](crate::machine::Machine) builds and steps a core,
/// lending it the shared uncore each cycle; it also drives tick-skipping
/// and sampling, and a standalone program runs on a one-core machine. The
/// core owns the shared machine resources (instruction window, register
/// file, predictors, memory) and the stage components; each cycle it lends
/// slices of that state, and the uncore, to the stages through their
/// ports.
pub struct Core {
    cfg: CoreConfig,
    program: Program,
    /// The program decoded once up front; fetch stamps instructions from
    /// this cache instead of re-decoding per fetched instruction.
    decoded: DecodedProgram,
    mem: MemoryHierarchy,

    // Pipeline stages (each owns its architectural state and stats).
    fetch: FetchStage,
    decode: DecodeStage,
    rename: RenameStage,
    issue: IssueStage,
    exec: ExecuteStage,
    commit: CommitStage,

    // Shared machine resources lent to the stages each cycle.
    window: Window,
    regs: RegFile,
    pred: Predictors,
    cpu: CpuStats,

    // The fetch and decode queues, as one buffer.
    front_end: FrontEndQueue,

    /// Occupancy samples not yet recorded into their distributions.
    occupancy: Occupancies,

    cycle: u64,
    committed: u64,
    halted: bool,
    marks: Vec<MarkEvent>,
}

impl Core {
    /// Builds a core around its private memory slice (L1s and functional
    /// memory); only the [`Machine`](crate::machine::Machine), which owns
    /// the uncore behind those L1s, builds cores. The program's data
    /// segments are installed into the slice's functional memory.
    pub(crate) fn try_with_parts(
        cfg: CoreConfig,
        program: Program,
        mut mem: MemoryHierarchy,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        for seg in program.segments() {
            mem.memory_mut().write_bytes(seg.base, &seg.data);
        }
        let decoded = DecodedProgram::new(&program);
        Ok(Self {
            fetch: FetchStage::new(&cfg),
            decode: DecodeStage::default(),
            rename: RenameStage::default(),
            issue: IssueStage::default(),
            exec: ExecuteStage::new(&cfg),
            commit: CommitStage::default(),
            window: Window::default(),
            regs: RegFile::new(cfg.phys_int_regs),
            pred: Predictors::new(&cfg),
            cpu: CpuStats::default(),
            front_end: FrontEndQueue::default(),
            occupancy: Occupancies::default(),
            cycle: 0,
            committed: 0,
            halted: false,
            marks: Vec::new(),
            cfg,
            program,
            decoded,
            mem,
        })
    }

    /// The core statistics, grouped by owning pipeline component.
    pub fn stats(&self) -> CoreStatsView<'_> {
        CoreStatsView {
            fetch: &self.fetch.stats,
            decode: &self.decode.stats,
            rename: &self.rename.stats,
            iq: &self.issue.stats,
            iew: &self.exec.stats,
            commit: &self.commit.stats,
            rob: &self.commit.rob,
            bpred: &self.pred.stats,
            dtb: &self.exec.dtb,
            itb: &self.fetch.itb,
            cpu: &self.cpu,
        }
    }

    /// The core's private memory slice (L1s, backing memory); the shared
    /// levels below are [`Machine::uncore`](crate::machine::Machine::uncore).
    pub fn mem(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// Mutable access to the private memory slice (the machine's snoop
    /// drain and cache-index randomization reach the L1s through this).
    pub(crate) fn mem_mut(&mut self) -> &mut MemoryHierarchy {
        &mut self.mem
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Committed instruction count.
    pub fn committed_insts(&self) -> u64 {
        self.committed
    }

    /// Cycles simulated so far.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Whether the program has halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Committed simulator marks, oldest first.
    pub fn marks(&self) -> &[MarkEvent] {
        &self.marks
    }

    /// Architectural value of register `r` (through the rename map).
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs.read_arch(r)
    }

    /// Enables branch-predictor noise injection: each conditional
    /// prediction is flipped with probability `p` — the §IV-G1 mitigation
    /// against predictor-mistraining attacks ("inject noise into the
    /// branch predictor ... so that it occasionally reverses its
    /// taken/not-taken prediction").
    pub fn set_bp_noise(&mut self, p: f64) {
        self.pred.bp_noise_ppm = (p.clamp(0.0, 1.0) * 1_000_000.0) as u32;
    }

    /// Reseeds the branch-predictor noise RNG. Seeding is deterministic:
    /// the same seed always reproduces the same flip sequence, so corpus
    /// collection can give every workload its own stable stream regardless
    /// of which thread runs it. A zero seed is remapped (xorshift sticks at
    /// zero).
    pub fn set_noise_seed(&mut self, seed: u64) {
        self.pred.noise_rng = if seed == 0 {
            0x9e37_79b9_7f4a_7c15
        } else {
            seed
        };
    }

    /// Advances the core one cycle.
    ///
    /// Stages tick oldest-first (commit → execute → issue → rename →
    /// decode → fetch), exactly as the monolithic core sequenced them. A
    /// stage that requests a squash has it applied by the squash walk
    /// before the next stage runs; a trap riding on a commit-stage squash
    /// is delivered to fetch right after the walk. `uncore` is the
    /// machine's, lent for the cycle.
    pub(crate) fn step(&mut self, uncore: &mut Uncore) {
        let req = self.commit.tick(CommitPorts {
            cfg: &self.cfg,
            program: &self.program,
            mem: &mut self.mem,
            uncore: &mut *uncore,
            window: &mut self.window,
            regs: &mut self.regs,
            rename: &mut self.rename,
            iew_stats: &mut self.exec.stats,
            cpu: &mut self.cpu,
            cycle: self.cycle,
            committed: &mut self.committed,
            halted: &mut self.halted,
            marks: &mut self.marks,
        });
        if let Some(req) = req {
            self.apply_squash(&req);
        }

        let req = self.exec.tick(ExecutePorts {
            window: &mut self.window,
            regs: &mut self.regs,
            pred: &mut self.pred,
            iq_stats: &mut self.issue.stats,
            cpu: &mut self.cpu,
            cycle: self.cycle,
            reference_scan: self.cfg.reference_scan,
        });
        if let Some(req) = req {
            self.apply_squash(&req);
        }

        let req = self.issue.tick(IssuePorts {
            exec: &mut self.exec,
            wake: FuWakeup {
                cfg: &self.cfg,
                program: &self.program,
                mem: &mut self.mem,
                uncore: &mut *uncore,
                window: &mut self.window,
                regs: &mut self.regs,
                cpu: &mut self.cpu,
                cycle: self.cycle,
            },
        });
        if let Some(req) = req {
            self.apply_squash(&req);
        }

        self.rename.tick(RenamePorts {
            cfg: &self.cfg,
            input: &mut self.front_end,
            window: &mut self.window,
            regs: &mut self.regs,
            fetch_stats: &mut self.fetch.stats,
            iq_stats: &mut self.issue.stats,
            iew_stats: &mut self.exec.stats,
            rob_stats: &mut self.commit.rob,
            cycle: self.cycle,
        });

        self.decode.tick(DecodePorts {
            cfg: &self.cfg,
            queue: &mut self.front_end,
        });

        self.fetch.tick(FetchPorts {
            cfg: &self.cfg,
            decoded: &self.decoded,
            mem: &mut self.mem,
            uncore,
            pred: &mut self.pred,
            cpu: &mut self.cpu,
            out: &mut self.front_end,
            quiesce: self.window.membars_in_flight > 0,
            halted: self.halted,
            cycle: self.cycle,
        });

        self.end_of_cycles(1);
    }

    /// Analyzes whether every stage is provably stalled this cycle.
    /// Returns the per-stage stall classification (and wake bounds) if so,
    /// or `None` when any stage could make progress. The only mutation is
    /// the stat-neutral eviction of stale ready-queue entries (the select
    /// loop removes them silently on first visit anyway).
    pub(crate) fn stall_plan(&mut self) -> Option<StallPlan> {
        // Commit: retirement must be provably stuck. An executed head
        // (committable, or a fault working through its recognition
        // timer) and a non-speculative head still awaiting its one-time
        // execution authorization both mutate state — no skip.
        let commit = match self.window.rob.front() {
            None => CommitStall::Idle,
            Some(h) if !h.executed && (!h.non_spec || h.can_exec_non_spec) => {
                CommitStall::HeadWait {
                    non_spec: h.non_spec,
                }
            }
            _ => return None,
        };

        // Execute: nothing may be due to complete this cycle.
        let next_completion = self.exec.next_completion(&self.window);
        if next_completion.is_some_and(|at| at <= self.cycle) {
            return None;
        }

        // Issue: every ready-queue entry must be stale or an eligible load
        // the select loop would turn away at a saturated L1D MSHR pool
        // (its memory port is free: nothing issues, and `mem_ports` is
        // validated positive). Any other live entry would issue or
        // record a blocked-on-a-unit statistic, so it vetoes the skip. A
        // turned-away load records the same three LSQ counters every
        // cycle, and that cannot change before the next completion: with
        // nothing issuing, committing or squashing, only a completion
        // lowers the in-flight count, and completions are wake events.
        // Every parked load is such a load while the pool is saturated;
        // once an MSHR frees, the next select releases them to issue.
        // Dropping stale entries here is stat-neutral (the select loop
        // removes them silently on first visit), and `retain` on the
        // taken-out queue keeps the per-step check allocation-free.
        let mshrs_full = self.window.mem_outstanding_count >= self.mem.l1d().config().mshrs;
        if !mshrs_full && !self.window.parked.is_empty() {
            return None;
        }
        let mut mshr_blocked_loads = self.window.parked.len() as u64;
        let mut stale = false;
        for &seq in &self.window.ready {
            match self.window.find(seq) {
                Some(d) if d.in_iq && !d.issued && !d.squashed => {
                    let turned_away = mshrs_full
                        && d.load
                        && (!d.non_spec || d.can_exec_non_spec)
                        && d.srcs.iter().flatten().all(|&r| self.regs.phys_ready[r]);
                    if !turned_away {
                        return None;
                    }
                    mshr_blocked_loads += 1;
                }
                _ => stale = true,
            }
        }
        if stale {
            let mut ready = std::mem::take(&mut self.window.ready);
            ready.retain(|&seq| {
                self.window
                    .find(seq)
                    .is_some_and(|d| d.in_iq && !d.issued && !d.squashed)
            });
            self.window.ready = ready;
        }

        // Rename: the stage must stall on its very first candidate, in
        // the exact order its tick checks admission.
        let rename = match self.front_end.next_decoded() {
            None => RenameStall::Idle,
            Some(front) => {
                if front.serializing && !self.window.rob.is_empty() {
                    RenameStall::Serialize
                } else if self.window.rob.len() >= self.cfg.rob_entries {
                    RenameStall::RobFull
                } else if self.window.iq_used >= self.cfg.iq_entries {
                    RenameStall::IqFull
                } else if front.load && self.window.lq_used >= self.cfg.lq_entries {
                    RenameStall::LqFull
                } else if front.store && self.window.sq_used >= self.cfg.sq_entries {
                    RenameStall::SqFull
                } else if front.arch_dest.is_some() && self.regs.free_list.is_empty() {
                    RenameStall::RegsFull
                } else {
                    return None;
                }
            }
        };

        // Decode: nothing to drain, or nowhere to put it.
        let decode_blocked = if self.front_end.fetched_len() == 0 {
            false
        } else if self.front_end.decoded_len() >= self.cfg.decode_queue {
            true
        } else {
            return None;
        };

        // Fetch: the stall cascade, in tick order. Timed stalls bound
        // the skip; an expired I-cache stall means fetch would resume.
        let mut fetch_wake: Option<u64> = None;
        let fetch = if self.halted || self.fetch.fetch_stopped {
            FetchStall::Idle
        } else if self.cycle < self.fetch.trap_pending_until {
            fetch_wake = Some(self.fetch.trap_pending_until);
            FetchStall::PendingTrap
        } else if self.cycle < self.fetch.fetch_resume_at {
            fetch_wake = Some(self.fetch.fetch_resume_at);
            FetchStall::SquashWait
        } else if self.window.membars_in_flight > 0 {
            FetchStall::Quiesce
        } else if self.fetch.icache_outstanding {
            if self.cycle < self.fetch.icache_stall_until {
                fetch_wake = Some(self.fetch.icache_stall_until);
                FetchStall::ICache
            } else {
                return None;
            }
        } else if self.front_end.fetched_len() >= self.cfg.fetch_queue {
            if self.front_end.decoded_len() >= self.cfg.decode_queue {
                FetchStall::QueueFullMisc
            } else {
                FetchStall::QueueFullBlocked
            }
        } else {
            return None;
        };

        Some(StallPlan {
            commit,
            rename,
            fetch,
            decode_blocked,
            mshr_blocked_loads,
            next_completion,
            fetch_wake,
        })
    }

    /// Credits, for every cycle up to (but excluding) `skip_to`, exactly
    /// the stall statistics the stepped loop would have recorded under
    /// `plan`, and advances the clock there.
    ///
    /// Nothing changes state inside a skip, so every stepped cycle would
    /// record the same thing: counters take the skip length `k` in one
    /// add, the per-cycle widths one
    /// [`record_n`](uarch_stats::Distribution::record_n), and the
    /// occupancies extend their pending runs by `k` in
    /// [`end_of_cycles`](Self::end_of_cycles). The work per skip is O(1)
    /// in `k` except for the static-energy steps, which `end_of_cycles`
    /// still walks cycle by cycle.
    pub(crate) fn credit_stall_cycles(&mut self, plan: &StallPlan, skip_to: u64) {
        let k = skip_to.saturating_sub(self.cycle);
        match plan.commit {
            CommitStall::Idle => self.commit.stats.idle_cycles.add(k),
            CommitStall::HeadWait { non_spec } => {
                if non_spec {
                    self.commit.stats.non_spec_stalls.add(k);
                }
            }
        }
        self.commit.stats.committed_per_cycle.record_n(0.0, k);

        let lsq = &mut self.exec.stats.lsq;
        lsq.rescheduled_loads.add(plan.mshr_blocked_loads * k);
        lsq.blocked_loads.add(plan.mshr_blocked_loads * k);
        lsq.cache_blocked.add(plan.mshr_blocked_loads * k);
        self.issue.stats.issued_per_cycle.record_n(0.0, k);
        self.issue.stats.empty_issue_cycles.add(k);
        self.exec.stats.idle_cycles.add(k);

        let rename = &mut self.rename.stats;
        match plan.rename {
            RenameStall::Idle => rename.idle_cycles.add(k),
            RenameStall::Serialize => {
                rename.serialize_stall_cycles.add(k);
                self.fetch.stats.pending_drain_cycles.add(k);
            }
            RenameStall::RobFull => {
                rename.rob_full_events.add(k);
                rename.block_cycles.add(k);
            }
            RenameStall::IqFull => {
                rename.iq_full_events.add(k);
                rename.block_cycles.add(k);
            }
            RenameStall::LqFull => {
                rename.lq_full_events.add(k);
                rename.block_cycles.add(k);
            }
            RenameStall::SqFull => {
                rename.sq_full_events.add(k);
                rename.block_cycles.add(k);
            }
            RenameStall::RegsFull => {
                rename.full_registers_events.add(k);
                rename.block_cycles.add(k);
            }
        }

        if plan.decode_blocked {
            self.decode.stats.blocked_cycles.add(k);
        } else {
            self.decode.stats.idle_cycles.add(k);
        }

        let fetch = &mut self.fetch.stats;
        match plan.fetch {
            FetchStall::Idle => fetch.idle_cycles.add(k),
            FetchStall::PendingTrap => fetch.pending_trap_stall_cycles.add(k),
            FetchStall::SquashWait => fetch.squash_cycles.add(k),
            FetchStall::Quiesce => {
                fetch.pending_quiesce_stall_cycles.add(k);
                self.cpu.quiesce_cycles.add(k);
            }
            FetchStall::ICache => fetch.icache_stall_cycles.add(k),
            FetchStall::QueueFullMisc => fetch.misc_stall_cycles.add(k),
            FetchStall::QueueFullBlocked => fetch.blocked_cycles.add(k),
        }

        self.end_of_cycles(k);
    }

    /// Applies a stage's squash request through the squash walk, then
    /// delivers any trap riding on it to fetch (squash walk first, trap
    /// redirect second — the commit stage's original ordering).
    fn apply_squash(&mut self, req: &SquashRequest) {
        let mut ports = SquashPorts {
            cfg: &self.cfg,
            window: &mut self.window,
            regs: &mut self.regs,
            fetch: &mut self.fetch,
            decode: &mut self.decode,
            rename: &mut self.rename,
            issue: &mut self.issue,
            exec: &mut self.exec,
            commit: &mut self.commit,
            cpu: &mut self.cpu,
            front_end: &mut self.front_end,
            cycle: self.cycle,
        };
        squash::apply(req, &mut ports);
        if let Some(trap) = req.trap {
            let pending_until = self.cycle + self.cfg.trap_latency;
            if self.fetch.take_trap(trap.handler, pending_until) {
                self.halted = true;
            }
        }
    }

    // ------------------------------------------------------------------
    // Housekeeping
    // ------------------------------------------------------------------

    /// Per-cycle housekeeping for `k` consecutive cycles over which no
    /// pipeline state changes: the end of one stepped cycle (`k == 1`) or
    /// a whole tick-skip. Occupancies are constant over such a run and the
    /// ROB head's age grows by one each cycle, so each extends its pending
    /// run (see [`OccupancyRun`]), recorded when its value breaks or at
    /// [`flush_occupancies`](Self::flush_occupancies); under
    /// `CoreConfig::reference_scan` every run is recorded at once, as the
    /// original core recorded each cycle. Only the `+0.2` static-energy
    /// steps still walk the cycles one by one: they round differently at
    /// every magnitude. The six stages' energy sums receive identical
    /// steps from zero, so they are always equal and one walk serves all
    /// six.
    fn end_of_cycles(&mut self, k: u64) {
        self.cpu.num_cycles.add(k);
        let occ = &mut self.occupancy;
        let (fetched, decoded) = (self.front_end.fetched_len(), self.front_end.decoded_len());
        occ.fetch_q
            .push(fetched, k, &mut self.fetch.stats.queue_occupancy);
        occ.decode_q
            .push(decoded, k, &mut self.decode.stats.queue_occupancy);
        let before = self.fetch.stats.power.static_energy.value();
        let mut after = before;
        for _ in 0..k {
            after += 0.2;
        }
        for e in [
            &mut self.fetch.stats.power,
            &mut self.decode.stats.power,
            &mut self.rename.stats.power,
            &mut self.issue.stats.power,
            &mut self.exec.stats.power,
            &mut self.commit.stats.power,
        ] {
            debug_assert_eq!(e.static_energy.value().to_bits(), before.to_bits());
            e.static_energy.set(after);
        }
        occ.rob
            .push(self.window.rob.len(), k, &mut self.commit.rob.occupancy);
        if let Some(head) = self.window.rob.front() {
            // Rename stamps the current cycle, so the head was dispatched
            // by now and its age over the `k` cycles counts up from here.
            debug_assert!(head.dispatch_cycle <= self.cycle);
            occ.head_age.push(
                self.cycle - head.dispatch_cycle,
                k,
                &mut self.commit.rob.head_age,
            );
            self.cpu.busy_cycles.add(k);
        } else {
            self.cpu.idle_cycles.add(k);
        }
        occ.iq
            .push(self.window.iq_used, k, &mut self.issue.stats.occupancy);
        let lsq = &mut self.exec.stats.lsq;
        occ.lq.push(self.window.lq_used, k, &mut lsq.lq_occupancy);
        occ.sq.push(self.window.sq_used, k, &mut lsq.sq_occupancy);
        if self.cfg.reference_scan {
            self.flush_occupancies();
        }
        self.cycle += k;
    }

    /// Records every pending occupancy run into its distribution. The
    /// machine calls this at the end of each run, so no statistic walk
    /// ever sees a distribution missing cycles.
    pub(crate) fn flush_occupancies(&mut self) {
        let occ = &mut self.occupancy;
        occ.fetch_q.flush(&mut self.fetch.stats.queue_occupancy);
        occ.decode_q.flush(&mut self.decode.stats.queue_occupancy);
        occ.rob.flush(&mut self.commit.rob.occupancy);
        occ.head_age.flush(&mut self.commit.rob.head_age);
        occ.iq.flush(&mut self.issue.stats.occupancy);
        occ.lq.flush(&mut self.exec.stats.lsq.lq_occupancy);
        occ.sq.flush(&mut self.exec.stats.lsq.sq_occupancy);
    }
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("program", &self.program.name())
            .field("cycle", &self.cycle)
            .field("committed", &self.committed)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

impl StatGroup for Core {
    fn visit(&self, v: &mut dyn StatVisitor) {
        // The flat-name layout is pinned by the 1159-stat census and the
        // golden snapshot: groups appear in the legacy order (which
        // interleaves the TLBs after branchPred rather than following
        // stage ownership), with every scope named by the component
        // registry.
        use ComponentId::*;
        self.fetch.stats.visit_item(Fetch.prefix(), v);
        self.decode.stats.visit_item(Decode.prefix(), v);
        self.rename.stats.visit_item(Rename.prefix(), v);
        self.issue.stats.visit_item(Iq.prefix(), v);
        self.exec.stats.visit_item(Iew.prefix(), v);
        // gem5 (and the paper's Table I) also exposes the LSQ and memDep
        // groups at top level (`lsq.squashedLoads`, `memDep.conflictingStores`)
        // in addition to the nested `iew.lsq.thread0.*` names; emit both.
        let iew_aliases = Iew.alias_prefixes();
        self.exec.stats.lsq.visit_item(iew_aliases[0], v);
        self.exec.stats.mem_dep.visit_item(iew_aliases[1], v);
        self.commit.stats.visit_item(Commit.prefix(), v);
        self.commit.rob.visit_item(Rob.prefix(), v);
        self.pred.stats.visit_item(BranchPred.prefix(), v);
        self.exec.dtb.visit_item(Dtb.prefix(), v);
        self.fetch.itb.visit_item(Itb.prefix(), v);
        // Table I spells the data TLB both `dtb` and `dtlb`; emit the alias
        // so either name resolves (they are perfectly correlated features,
        // which is exactly the paper's replicated-feature premise).
        self.exec.dtb.visit_item(Dtb.alias_prefixes()[0], v);
        self.cpu.visit(v);
        self.mem.visit(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use sim_mem::HierarchyConfig;
    use uarch_isa::Assembler;

    fn run_program(a: Assembler, max: u64) -> Machine {
        let p = a.finish().expect("assembles");
        let mut m = Machine::single_core(&CoreConfig::default(), p);
        m.run(max);
        m
    }

    #[test]
    fn straight_line_arithmetic_commits() {
        let mut a = Assembler::new("t");
        a.li(Reg::R1, 5);
        a.li(Reg::R2, 7);
        a.add(Reg::R3, Reg::R1, Reg::R2);
        a.mul(Reg::R4, Reg::R3, Reg::R3);
        a.halt();
        let m = run_program(a, 100);
        let core = m.core(0);
        assert!(core.halted());
        assert_eq!(core.reg(Reg::R3), 12);
        assert_eq!(core.reg(Reg::R4), 144);
    }

    #[test]
    fn loop_with_branches_computes_sum() {
        let mut a = Assembler::new("t");
        a.li(Reg::R1, 0); // sum
        a.li(Reg::R2, 1); // i
        a.li(Reg::R3, 11); // limit
        let top = a.label();
        a.bind(top);
        a.add(Reg::R1, Reg::R1, Reg::R2);
        a.addi(Reg::R2, Reg::R2, 1);
        a.blt(Reg::R2, Reg::R3, top);
        a.halt();
        let m = run_program(a, 1000);
        let core = m.core(0);
        assert!(core.halted());
        assert_eq!(core.reg(Reg::R1), 55);
        assert!(core.stats().commit.branches.value() >= 10);
    }

    #[test]
    fn loads_and_stores_round_trip_through_memory() {
        let mut a = Assembler::new("t");
        a.data(0x1000, vec![0u8; 64]);
        a.li(Reg::R1, 0x1000);
        a.li(Reg::R2, 0xabcd);
        a.store(Reg::R2, Reg::R1, 8);
        a.load(Reg::R3, Reg::R1, 8);
        a.halt();
        let m = run_program(a, 100);
        let core = m.core(0);
        assert_eq!(core.reg(Reg::R3), 0xabcd);
        assert_eq!(core.mem().memory().read(0x1008, 8), 0xabcd);
    }

    #[test]
    fn store_to_load_forwarding_is_counted() {
        let mut a = Assembler::new("t");
        a.li(Reg::R1, 0x2000);
        a.li(Reg::R2, 99);
        a.store(Reg::R2, Reg::R1, 0);
        a.load(Reg::R3, Reg::R1, 0);
        a.halt();
        let m = run_program(a, 100);
        let core = m.core(0);
        assert_eq!(core.reg(Reg::R3), 99);
        assert!(core.stats().iew.lsq.forw_loads.value() >= 1);
    }

    #[test]
    fn call_and_return_execute_correctly() {
        let mut a = Assembler::new("t");
        let f = a.label();
        let end = a.label();
        a.li(Reg::R1, 1);
        a.call(f);
        a.addi(Reg::R1, Reg::R1, 10); // after return
        a.jmp(end);
        a.bind(f);
        a.addi(Reg::R1, Reg::R1, 100);
        a.ret();
        a.bind(end);
        a.halt();
        let m = run_program(a, 100);
        let core = m.core(0);
        assert_eq!(core.reg(Reg::R1), 111);
        assert!(core.stats().commit.function_calls.value() >= 1);
    }

    #[test]
    fn mistrained_branch_speculatively_touches_cache() {
        // The essence of SpectreV1: train a bounds check, then flip it; the
        // wrong-path load must install its line in the cache.
        let mut a = Assembler::new("t");
        a.data(0x3000, vec![0u8; 8]); // in-bounds data
        let secret_line: u64 = 0x7_0000;
        a.li(Reg::R10, secret_line as i64);
        a.li(Reg::R2, 0); // index
        a.li(Reg::R3, 100); // bound (loop limit)
        let top = a.label();
        let skip = a.label();
        a.bind(top);
        // Bounds check: index < 90 → safe access. Trained taken 90 times,
        // then suddenly not.
        a.li(Reg::R4, 90);
        a.bge(Reg::R2, Reg::R4, skip); // not-taken while training
        a.li(Reg::R5, 0x3000);
        a.load(Reg::R6, Reg::R5, 0);
        a.bind(skip);
        // On the "attack" iterations the branch above is taken; fetch
        // mispredicts (trained not-taken) and speculatively runs the load
        // below the check... but this simple test only verifies
        // mispredictions occurred and the pipeline recovered.
        a.addi(Reg::R2, Reg::R2, 1);
        a.blt(Reg::R2, Reg::R3, top);
        a.load(Reg::R7, Reg::R10, 0); // architectural touch for sanity
        a.halt();
        let m = run_program(a, 10_000);
        let core = m.core(0);
        assert!(core.halted());
        assert_eq!(core.reg(Reg::R2), 100);
        assert!(
            core.stats().iew.branch_mispredicts.value() >= 1,
            "flipping a trained branch must mispredict"
        );
        assert!(core.stats().commit.squashed_insts.value() > 0);
    }

    #[test]
    fn meltdown_load_faults_at_commit_but_forwards_speculatively() {
        let mut a = Assembler::new("t");
        a.kernel_data(KERNEL_SPACE_BASE, vec![0x42]);
        a.data(0x1000, vec![0u8; 4096]);
        let handler = a.label();
        a.on_fault(handler);
        a.li(Reg::R1, KERNEL_SPACE_BASE as i64);
        a.loadb(Reg::R2, Reg::R1, 0); // faulting kernel load
                                      // Dependent access: index into user array by the secret.
        a.shli(Reg::R3, Reg::R2, 6);
        a.li(Reg::R4, 0x1000);
        a.add(Reg::R4, Reg::R4, Reg::R3);
        a.loadb(Reg::R5, Reg::R4, 0);
        a.halt(); // never reached: fault redirects
        a.bind(handler);
        a.li(Reg::R20, 1);
        a.halt();
        let m = run_program(a, 1000);
        let core = m.core(0);
        assert!(core.halted());
        assert_eq!(core.reg(Reg::R20), 1, "fault handler ran");
        assert_eq!(core.stats().commit.faults.value(), 1);
        // The dependent line (0x1000 + 0x42*64) was touched speculatively.
        assert!(
            core.mem().l1d().probe(0x1000 + 0x42 * 64).is_some()
                || m.uncore().l2().probe(0x1000 + 0x42 * 64).is_some(),
            "Meltdown window must leave a cache footprint"
        );
    }

    #[test]
    fn rdcycle_measures_flush_timing_difference() {
        // Flush+Flush's primitive: flushing a cached line takes longer than
        // flushing an uncached one.
        let mut a = Assembler::new("t");
        a.data(0x5000, vec![1u8; 64]);
        a.li(Reg::R1, 0x5000);
        a.load(Reg::R2, Reg::R1, 0); // cache it
        a.fence();
        a.rdcycle(Reg::R10);
        a.flush(Reg::R1, 0); // flush cached line
        a.fence();
        a.rdcycle(Reg::R11);
        a.flush(Reg::R1, 0); // flush absent line
        a.fence();
        a.rdcycle(Reg::R12);
        a.halt();
        let m = run_program(a, 1000);
        let core = m.core(0);
        let t_cached = core.reg(Reg::R11) - core.reg(Reg::R10);
        let t_absent = core.reg(Reg::R12) - core.reg(Reg::R11);
        assert!(
            t_cached > t_absent,
            "flush of cached line ({t_cached}) must take longer than absent ({t_absent})"
        );
    }

    #[test]
    fn spectre_rsb_setret_diverts_return() {
        let mut a = Assembler::new("t");
        let f = a.label();
        let gadget = a.label();
        let end = a.label();
        a.la(Reg::R9, end);
        a.call(f);
        a.bind(gadget); // fall-through after call = RAS prediction target
        a.li(Reg::R8, 777); // speculative gadget (also architectural if reached)
        a.bind(end);
        a.halt();
        a.bind(f);
        a.set_ret(Reg::R9); // replace return address with `end`
        a.ret(); // architecturally returns to end; RAS predicts gadget
        let m = run_program(a, 1000);
        let core = m.core(0);
        assert!(core.halted());
        assert!(
            core.stats().bpred.ras_incorrect.value() >= 1,
            "tampered return address must mispredict the RAS"
        );
        assert_eq!(
            core.reg(Reg::R8),
            0,
            "gadget must not commit architecturally"
        );
    }

    #[test]
    fn serializing_rdcycle_drains_and_counts() {
        let mut a = Assembler::new("t");
        a.li(Reg::R1, 1000);
        let top = a.label();
        a.bind(top);
        a.subi(Reg::R1, Reg::R1, 1);
        a.bnez(Reg::R1, top);
        a.rdcycle(Reg::R2);
        a.halt();
        let m = run_program(a, 10_000);
        let core = m.core(0);
        assert!(core.reg(Reg::R2) > 0);
        assert!(core.stats().rename.temp_serializing_insts.value() >= 1);
    }

    #[test]
    fn membar_quiesces_fetch() {
        let mut a = Assembler::new("t");
        for _ in 0..4 {
            a.membar();
            // Enough work after each barrier that fetch is still active
            // while the membar is in flight.
            for _ in 0..24 {
                a.addi(Reg::R1, Reg::R1, 1);
            }
        }
        a.halt();
        let m = run_program(a, 100);
        let core = m.core(0);
        assert!(core.stats().fetch.pending_quiesce_stall_cycles.value() > 0);
        assert_eq!(core.stats().commit.membars.value(), 4);
    }

    #[test]
    fn machine_exposes_the_papers_1159_statistics() {
        let mut a = Assembler::new("census");
        a.halt();
        let machine = Machine::single_core(&CoreConfig::default(), a.finish().unwrap());
        let snap = uarch_stats::Snapshot::of(&machine, "");
        assert_eq!(
            snap.len(),
            1159,
            "the machine must expose exactly the paper's 1159 counters"
        );
    }

    #[test]
    fn stats_snapshot_includes_core_and_memory() {
        let mut a = Assembler::new("t");
        a.li(Reg::R1, 0x1000);
        a.load(Reg::R2, Reg::R1, 0);
        a.halt();
        let m = run_program(a, 100);
        let snap = uarch_stats::Snapshot::of(&m, "");
        assert!(snap.get("fetch.SquashCycles").is_some());
        assert!(snap.get("dcache.ReadReq_misses").is_some());
        assert!(snap.get("numCycles").unwrap() > 0.0);
    }

    #[test]
    fn invalid_config_is_reported_not_panicked() {
        let mut a = Assembler::new("t");
        a.halt();
        let p = a.finish().unwrap();
        let cfg = CoreConfig {
            fetch_width: 0,
            ..CoreConfig::default()
        };
        let Err(err) = Machine::try_new(&cfg, &HierarchyConfig::default(), vec![p]) else {
            panic!("a zero fetch width must be rejected");
        };
        assert!(matches!(err, SimError::InvalidConfig { .. }));
    }

    #[test]
    fn zero_functional_units_of_any_pool_are_rejected() {
        // A pool with no units would leave its op class ready but never
        // issued, vetoing every tick-skip until the cycle cap.
        let program = || {
            let mut a = Assembler::new("t");
            a.halt();
            a.finish().unwrap()
        };
        for name in ["int_mult_units", "fp_units", "simd_units"] {
            let mut cfg = CoreConfig::default();
            *match name {
                "int_mult_units" => &mut cfg.int_mult_units,
                "fp_units" => &mut cfg.fp_units,
                _ => &mut cfg.simd_units,
            } = 0;
            let Err(err) = Machine::try_new(&cfg, &HierarchyConfig::default(), vec![program()])
            else {
                panic!("{name} = 0 must be rejected");
            };
            assert!(
                matches!(err, SimError::InvalidConfig { param, .. } if param == name),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn stall_plan_skips_loads_blocked_on_saturated_mshrs() {
        // Sixteen independent cold-line loads behind a serializing read:
        // more than the L1D's MSHRs, so part of each burst waits at issue
        // while every other stage stalls behind it.
        let program = workloads::probes::mshr_bound();
        let hcfg = HierarchyConfig::default();
        let mut uncore = Uncore::try_new(&hcfg, 1).expect("uncore builds");
        let mem = MemoryHierarchy::try_new(hcfg.l1i, hcfg.l1d, 0).expect("L1s build");
        let mut core =
            Core::try_with_parts(CoreConfig::default(), program, mem).expect("valid configuration");
        let mut most_blocked = 0;
        while !core.halted() && core.cycles() < 100_000 {
            if let Some(plan) = core.stall_plan() {
                most_blocked = most_blocked.max(plan.mshr_blocked_loads);
            }
            core.step(&mut uncore);
        }
        assert!(core.halted(), "the program must run to completion");
        assert!(
            most_blocked > 0,
            "a stalled cycle with MSHR-blocked loads must still plan a skip"
        );
    }
}

//! The fetch stage: instruction supply, branch prediction, I-TLB and
//! I-cache timing, trap redirect delivery.

use sim_mem::{AccessOutcome, MemoryHierarchy, Uncore};
use uarch_isa::Inst;

use crate::config::CoreConfig;
use crate::decoded::DecodedProgram;
use crate::dyninst::DynInst;
use crate::stats::{CpuStats, FetchStats, TlbStats};
use crate::tlb::Tlb;

use super::{FrontEndQueue, Predictors};

/// The fetch stage.
///
/// Owns the speculative pc, the sequence-number allocator, the I-TLB, the
/// fetch-side stall machinery (I-cache misses, squash penalty, pending
/// traps) and the `fetch` / `itb` statistic groups.
#[derive(Debug)]
pub struct FetchStage {
    pub(crate) pc: usize,
    pub(crate) next_seq: u64,
    pub(crate) fetch_stopped: bool,
    pub(crate) fetch_resume_at: u64,
    pub(crate) icache_outstanding: bool,
    pub(crate) icache_stall_until: u64,
    pub(crate) current_fetch_line: Option<u64>,
    pub(crate) trap_pending_until: u64,
    pub(crate) trap_redirect: usize,
    pub(crate) itlb: Tlb,
    pub(crate) stats: FetchStats,
    pub(crate) itb: TlbStats,
}

/// Fetch's view of the machine for one tick.
pub struct FetchPorts<'a> {
    pub(crate) cfg: &'a CoreConfig,
    /// The program, decoded once at core construction.
    pub(crate) decoded: &'a DecodedProgram,
    pub(crate) mem: &'a mut MemoryHierarchy,
    pub(crate) uncore: &'a mut Uncore,
    pub(crate) pred: &'a mut Predictors,
    pub(crate) cpu: &'a mut CpuStats,
    /// The front-end queue fetch appends to; its decoded share is the
    /// back-pressure signal from rename.
    pub(crate) out: &'a mut FrontEndQueue,
    /// A memory barrier is in flight: fetch must quiesce.
    pub(crate) quiesce: bool,
    pub(crate) halted: bool,
    pub(crate) cycle: u64,
}

impl FetchStage {
    pub(crate) fn new(cfg: &CoreConfig) -> Self {
        Self {
            pc: 0,
            next_seq: 1,
            fetch_stopped: false,
            fetch_resume_at: 0,
            icache_outstanding: false,
            icache_stall_until: 0,
            current_fetch_line: None,
            trap_pending_until: 0,
            trap_redirect: 0,
            itlb: Tlb::new(cfg.itlb_entries, 20),
            stats: FetchStats::default(),
            itb: TlbStats::default(),
        }
    }

    /// Delivers a trap recognized at commit: stalls fetch for the trap
    /// latency and redirects to the handler (or reports that the machine
    /// must halt when there is none). Must run *after* the accompanying
    /// squash walk, mirroring the commit stage's original ordering.
    pub(crate) fn take_trap(&mut self, handler: Option<usize>, pending_until: u64) -> bool {
        self.trap_pending_until = pending_until;
        let halt = match handler {
            Some(h) => {
                self.trap_redirect = h;
                self.fetch_stopped = false;
                false
            }
            None => true,
        };
        self.pc = self.trap_redirect;
        halt
    }

    /// Advances fetch one cycle.
    pub(crate) fn tick(&mut self, p: FetchPorts<'_>) {
        if p.halted || self.fetch_stopped {
            self.stats.idle_cycles.inc();
            return;
        }
        if p.cycle < self.trap_pending_until {
            self.stats.pending_trap_stall_cycles.inc();
            return;
        }
        if p.cycle < self.fetch_resume_at {
            self.stats.squash_cycles.inc();
            return;
        }
        if p.quiesce {
            self.stats.pending_quiesce_stall_cycles.inc();
            p.cpu.quiesce_cycles.inc();
            return;
        }
        if self.icache_outstanding {
            if p.cycle < self.icache_stall_until {
                self.stats.icache_stall_cycles.inc();
                return;
            }
            self.icache_outstanding = false;
        }
        if p.out.fetched_len() >= p.cfg.fetch_queue {
            if p.out.decoded_len() >= p.cfg.decode_queue {
                self.stats.misc_stall_cycles.inc();
            } else {
                self.stats.blocked_cycles.inc();
            }
            return;
        }

        let mut fetched = 0usize;
        while fetched < p.cfg.fetch_width && p.out.fetched_len() < p.cfg.fetch_queue {
            // I-cache access on line crossings.
            let byte_addr = p.cfg.icode_base + self.pc as u64 * p.cfg.inst_bytes;
            let line = byte_addr / 64;
            if self.current_fetch_line != Some(line) {
                let (itlb_lat, itlb_miss) = self.itlb.access(byte_addr);
                self.itb.rd_accesses.inc();
                if itlb_miss {
                    self.itb.rd_misses.inc();
                    self.itb.walk_cycles.add(itlb_lat);
                } else {
                    self.itb.rd_hits.inc();
                }
                let (lat, outcome) = p.mem.fetch(p.uncore, byte_addr, p.cycle);
                self.current_fetch_line = Some(line);
                self.stats.cache_lines.inc();
                if outcome != AccessOutcome::L1Hit || itlb_lat > 0 {
                    self.icache_outstanding = true;
                    self.icache_stall_until = p.cycle + lat + itlb_lat;
                    break;
                }
            }

            let dec = p.decoded.fetch(self.pc);
            let inst = dec.inst;
            // Built in the queue, then finished in place.
            let d = p
                .out
                .push_fetched(DynInst::from_decoded(self.next_seq, self.pc, dec));
            d.fetch_cycle = p.cycle;
            self.next_seq += 1;
            self.stats.insts.inc();
            self.stats.power.dynamic_energy.add(0.8);
            if dec.load {
                p.cpu.num_load_insts.inc();
            } else if dec.store {
                p.cpu.num_store_insts.inc();
            } else if dec.ctrl {
                p.cpu.num_branches.inc();
            }
            if let Some(k) = dec.ctrl_kind {
                self.stats.branch_kind.inc(k);
                p.pred.stats.lookup_kind.inc(k);
            }
            fetched += 1;

            // Branch prediction.
            let (ras_tos, ras_top) = p.pred.ras.checkpoint();
            let mut next_pc = self.pc + 1;
            if dec.ctrl {
                self.stats.branches.inc();
                p.pred.stats.lookups.inc();
                match inst {
                    Inst::Branch { target, .. } => {
                        let (mut taken, mut cp) = p.pred.bp.predict(self.pc);
                        if p.pred.noise_flip() {
                            taken = !taken;
                        }
                        cp.ras_tos = ras_tos;
                        cp.ras_top = ras_top;
                        d.checkpoint = cp;
                        d.predicted_taken = taken;
                        p.pred.stats.cond_predicted.inc();
                        p.pred.stats.btb_lookups.inc();
                        if p.pred.btb.lookup(self.pc).is_some() {
                            p.pred.stats.btb_hits.inc();
                        }
                        if taken {
                            self.stats.predicted_branches.inc();
                            next_pc = target;
                        }
                    }
                    Inst::Jump { target } => {
                        d.predicted_taken = true;
                        d.checkpoint = p.pred.checkpoint(ras_tos, ras_top);
                        next_pc = target;
                    }
                    Inst::Call { target } => {
                        d.predicted_taken = true;
                        d.checkpoint = p.pred.checkpoint(ras_tos, ras_top);
                        p.pred.ras.push(self.pc + 1);
                        next_pc = target;
                    }
                    Inst::JumpInd { .. } | Inst::CallInd { .. } => {
                        d.predicted_taken = true;
                        d.checkpoint = p.pred.checkpoint(ras_tos, ras_top);
                        p.pred.stats.indirect_lookups.inc();
                        p.pred.stats.btb_lookups.inc();
                        if let Some(t) = p.pred.btb.lookup(self.pc) {
                            p.pred.stats.indirect_hits.inc();
                            p.pred.stats.btb_hits.inc();
                            next_pc = t;
                        }
                        if matches!(inst, Inst::CallInd { .. }) {
                            p.pred.ras.push(self.pc + 1);
                        }
                    }
                    Inst::Ret => {
                        d.predicted_taken = true;
                        d.checkpoint = p.pred.checkpoint(ras_tos, ras_top);
                        p.pred.stats.ras_used.inc();
                        next_pc = p.pred.ras.pop();
                    }
                    _ => unreachable!("is_control covers all control insts"),
                }
                d.predicted_target = next_pc;
            }

            self.pc = next_pc;
            if matches!(inst, Inst::Halt) {
                self.fetch_stopped = true;
                p.cpu.num_fetch_suspends.inc();
                break;
            }
        }
        self.stats.nisn_dist.record(fetched as f64);
        if fetched > 0 {
            self.stats.cycles.inc();
        }
    }
}

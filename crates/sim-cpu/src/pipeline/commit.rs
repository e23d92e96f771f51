//! The commit stage: in-order retirement, fault recognition and trap
//! delivery, rename-map and call-stack retirement.

use sim_mem::{MemoryHierarchy, Uncore};
use uarch_isa::{Inst, OpClass, Program};

use crate::config::CoreConfig;
use crate::core::MarkEvent;
use crate::stats::{CommitStats, CpuStats, IewStats, RobStats};

use super::rename::RenameStage;
use super::{RegFile, SquashRequest, TrapRequest, Window};

/// The commit stage. Owns the fault-recognition timer and the `commit`
/// and `rob` statistic groups.
#[derive(Debug, Default)]
pub struct CommitStage {
    pub(crate) fault_recognized_at: Option<u64>,
    pub(crate) stats: CommitStats,
    pub(crate) rob: RobStats,
}

/// Commit's view of the machine for one tick.
pub struct CommitPorts<'a> {
    pub(crate) cfg: &'a CoreConfig,
    pub(crate) program: &'a Program,
    pub(crate) mem: &'a mut MemoryHierarchy,
    pub(crate) uncore: &'a mut Uncore,
    pub(crate) window: &'a mut Window,
    pub(crate) regs: &'a mut RegFile,
    /// Rename retirement port: committed mappings and call-stack history.
    pub(crate) rename: &'a mut RenameStage,
    pub(crate) iew_stats: &'a mut IewStats,
    pub(crate) cpu: &'a mut CpuStats,
    pub(crate) cycle: u64,
    pub(crate) committed: &'a mut u64,
    pub(crate) halted: &'a mut bool,
    pub(crate) marks: &'a mut Vec<MarkEvent>,
}

impl CommitStage {
    /// Retires up to `commit_width` instructions; a fault at the head
    /// returns the squash (and trap) that delivers it.
    pub(crate) fn tick(&mut self, p: CommitPorts<'_>) -> Option<SquashRequest> {
        let mut committed_this_cycle = 0u64;
        for _ in 0..p.cfg.commit_width {
            let Some(head) = p.window.rob.front() else {
                self.stats.idle_cycles.inc();
                break;
            };
            if !head.executed {
                if head.non_spec {
                    self.stats.non_spec_stalls.inc();
                    if !head.can_exec_non_spec {
                        let seq = head.seq;
                        let d = p.window.inst_mut(seq);
                        d.can_exec_non_spec = true;
                        // Authorization is the wakeup event non-speculative
                        // instructions wait for: if the sources are already
                        // ready, join the ready queue now (otherwise the
                        // source-completion wakeup will, seeing the flag).
                        if !p.cfg.reference_scan {
                            let srcs = d.srcs;
                            if srcs.iter().flatten().all(|&r| p.regs.phys_ready[r]) {
                                p.window.enqueue_ready(seq);
                            }
                        }
                    }
                }
                break;
            }

            let head = p.window.rob.front().expect("checked above");
            if head.fault {
                // Exception recognition takes a few cycles; dependents of the
                // faulting instruction keep executing speculatively in that
                // window (the Meltdown window).
                match self.fault_recognized_at {
                    None => {
                        self.fault_recognized_at = Some(p.cycle + p.cfg.fault_recognition_delay);
                        break;
                    }
                    Some(at) if p.cycle < at => break,
                    Some(_) => self.fault_recognized_at = None,
                }
                self.stats.faults.inc();
                p.cpu.traps.inc();
                let seq = head.seq;
                let handler = p.program.fault_handler();
                // The squash walk and the trap delivery both happen in the
                // orchestrator, in that order, exactly as the monolithic
                // commit performed them inline. The per-cycle commit-width
                // distribution is intentionally NOT recorded on this path
                // (the original returned early before recording it).
                return Some(SquashRequest {
                    after: seq.wrapping_sub(1),
                    redirect: None,
                    trap: Some(TrapRequest { handler }),
                });
            }

            let head = p.window.rob.pop_front().expect("checked above");
            committed_this_cycle += 1;
            *p.committed += 1;
            self.stats.committed_insts.inc();
            self.stats.committed_ops.inc();
            self.rob.reads.inc();
            let class = head.class;
            self.stats.op_class.inc(class);
            match class {
                OpClass::IntAlu | OpClass::IntMult | OpClass::IntDiv => self.stats.int_insts.inc(),
                OpClass::FloatAdd
                | OpClass::FloatMult
                | OpClass::FloatDiv
                | OpClass::FloatSqrt
                | OpClass::FloatCvt => self.stats.fp_insts.inc(),
                _ => {}
            }

            match head.inst {
                Inst::Load { .. } => {
                    self.stats.loads.inc();
                    self.stats.refs.inc();
                    p.window.lq_used -= 1;
                }
                Inst::Store { rs: _, width, .. } => {
                    self.stats.committed_stores.inc();
                    self.stats.refs.inc();
                    p.iew_stats
                        .lsq
                        .store_lifetime
                        .record(p.cycle.saturating_sub(head.dispatch_cycle) as f64);
                    p.window.sq_used -= 1;
                    let addr = head.eff_addr.expect("store executed");
                    p.mem
                        .store(p.uncore, addr, width.bytes(), head.result, p.cycle);
                }
                Inst::Flush { .. } => {
                    self.stats.refs.inc();
                }
                Inst::Membar => {
                    self.stats.membars.inc();
                    p.window.membars_in_flight -= 1;
                }
                Inst::Call { .. } | Inst::CallInd { .. } => {
                    self.stats.function_calls.inc();
                }
                Inst::Mark(kind) => {
                    p.marks.push(MarkEvent {
                        kind,
                        at_inst: *p.committed,
                        at_cycle: p.cycle,
                    });
                }
                Inst::Halt => {
                    *p.halted = true;
                }
                _ => {}
            }

            if head.is_ctrl() {
                self.stats.branches.inc();
                if let Some(k) = head.ctrl_kind {
                    self.stats.control_kind.inc(k);
                }
                if head.mispredicted {
                    self.stats.branch_mispredicts.inc();
                }
            }
            self.stats
                .commit_latency
                .record(p.cycle.saturating_sub(head.dispatch_cycle) as f64);
            self.stats.power.dynamic_energy.add(1.0);

            // Retire the rename mapping.
            while let Some(h) = p.regs.history.front() {
                if h.seq != head.seq {
                    break;
                }
                let h = p.regs.history.pop_front().expect("checked");
                p.regs.free_list.push_back(h.old_phys);
                p.rename.stats.committed_maps.inc();
            }
            while let Some(&(seq, _)) = p.rename.call_hist.front() {
                if seq != head.seq {
                    break;
                }
                p.rename.call_hist.pop_front();
            }

            if *p.halted {
                break;
            }
        }
        self.stats
            .committed_per_cycle
            .record(committed_this_cycle as f64);
        None
    }
}

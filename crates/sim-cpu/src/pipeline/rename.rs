//! The rename/dispatch stage: register renaming, resource admission,
//! speculative call-stack maintenance, dispatch into the window.

use std::collections::VecDeque;

use uarch_isa::Inst;

use crate::config::CoreConfig;
use crate::stats::{FetchStats, IewStats, IqStats, RenameStats, RobStats};

use super::{FrontEndQueue, HistEntry, RegFile, Window};

/// One undoable speculative call-stack operation, tagged with the
/// renaming instruction's sequence number.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CallOp {
    Push,
    Pop(usize),
    Replace(usize),
}

/// The rename/dispatch stage.
///
/// Owns the architectural call stack (maintained speculatively here,
/// rolled back by `squash::apply`) and the `rename` statistic group.
#[derive(Debug, Default)]
pub struct RenameStage {
    pub(crate) call_stack: Vec<usize>,
    pub(crate) call_hist: VecDeque<(u64, CallOp)>,
    pub(crate) stats: RenameStats,
}

/// Rename's view of the machine for one tick.
pub struct RenamePorts<'a> {
    pub(crate) cfg: &'a CoreConfig,
    /// The front-end queue, whose decoded instructions rename takes.
    pub(crate) input: &'a mut FrontEndQueue,
    pub(crate) window: &'a mut Window,
    pub(crate) regs: &'a mut RegFile,
    /// Fetch's drain counter (serializing instructions stall fetch too).
    pub(crate) fetch_stats: &'a mut FetchStats,
    pub(crate) iq_stats: &'a mut IqStats,
    pub(crate) iew_stats: &'a mut IewStats,
    pub(crate) rob_stats: &'a mut RobStats,
    pub(crate) cycle: u64,
}

impl RenameStage {
    /// Advances rename/dispatch one cycle.
    pub(crate) fn tick(&mut self, p: RenamePorts<'_>) {
        let mut renamed = 0usize;
        while renamed < p.cfg.rename_width {
            let Some(front) = p.input.next_decoded() else {
                if renamed == 0 {
                    self.stats.idle_cycles.inc();
                }
                break;
            };
            let inst = front.inst;
            let serializing = front.serializing;
            let is_load = front.load;
            let is_store = front.store;
            let has_dest = front.arch_dest.is_some();
            let non_speculative = front.non_speculative;

            // Serializing instructions drain the window first.
            if serializing && !p.window.rob.is_empty() {
                self.stats.serialize_stall_cycles.inc();
                p.fetch_stats.pending_drain_cycles.inc();
                break;
            }

            // Resource checks.
            if p.window.rob.len() >= p.cfg.rob_entries {
                self.stats.rob_full_events.inc();
                self.stats.block_cycles.inc();
                break;
            }
            if p.window.iq_used >= p.cfg.iq_entries {
                self.stats.iq_full_events.inc();
                self.stats.block_cycles.inc();
                break;
            }
            if is_load && p.window.lq_used >= p.cfg.lq_entries {
                self.stats.lq_full_events.inc();
                self.stats.block_cycles.inc();
                break;
            }
            if is_store && p.window.sq_used >= p.cfg.sq_entries {
                self.stats.sq_full_events.inc();
                self.stats.block_cycles.inc();
                break;
            }
            if has_dest && p.regs.free_list.is_empty() {
                self.stats.full_registers_events.inc();
                self.stats.block_cycles.inc();
                break;
            }

            // The instruction moves once, into the ROB, and is renamed
            // and dispatched in place there.
            let d = p.input.take_decoded().expect("checked");
            p.window.rob.push_back(d);
            let d = p.window.rob.back_mut().expect("just pushed");
            d.dispatch_cycle = p.cycle;
            renamed += 1;
            self.stats.renamed_insts.inc();
            self.stats.power.dynamic_energy.add(0.9);
            p.rob_stats.writes.inc();

            if serializing {
                if matches!(inst, Inst::RdCycle { .. }) {
                    self.stats.temp_serializing_insts.inc();
                } else {
                    self.stats.serializing_insts.inc();
                }
            }

            // Rename sources.
            let (s0, s1) = d.arch_srcs;
            for (slot, src) in [s0, s1].into_iter().enumerate() {
                if let Some(r) = src {
                    d.srcs[slot] = Some(p.regs.map_table[r.index()]);
                    self.stats.rename_lookups.inc();
                }
            }
            // Rename destination.
            if let Some(rd) = d.arch_dest {
                let new_phys = p.regs.free_list.pop_front().expect("checked non-empty");
                let old_phys = p.regs.map_table[rd.index()];
                p.regs.history.push_back(HistEntry {
                    seq: d.seq,
                    arch: rd.index(),
                    new_phys,
                    old_phys,
                });
                p.regs.map_table[rd.index()] = new_phys;
                p.regs.phys_ready[new_phys] = false;
                // A freshly allocated register starts a new lifetime; any
                // wakeup waiters recorded against its previous one are dead.
                p.regs.dependents[new_phys].clear();
                d.dest_phys = Some(new_phys);
                d.old_phys = Some(old_phys);
                self.stats.renamed_operands.inc();
            }

            // Architectural call-stack maintenance.
            match inst {
                Inst::Call { .. } | Inst::CallInd { .. } => {
                    self.call_stack.push(d.fall_through);
                    self.call_hist.push_back((d.seq, CallOp::Push));
                }
                Inst::Ret => {
                    let target = self.call_stack.pop().unwrap_or(d.fall_through);
                    self.call_hist.push_back((d.seq, CallOp::Pop(target)));
                    d.actual_target = target;
                }
                Inst::SetRet { base } => {
                    // Serialized: the register is architecturally visible.
                    let val = p.regs.phys_regs[p.regs.map_table[base.index()]] as usize;
                    if let Some(top) = self.call_stack.last_mut() {
                        let old = *top;
                        *top = val;
                        self.call_hist.push_back((d.seq, CallOp::Replace(old)));
                    }
                }
                _ => {}
            }

            // Dispatch.
            d.in_iq = true;
            p.window.iq_used += 1;
            p.iq_stats.insts_added.inc();
            p.iew_stats.dispatched_insts.inc();
            if non_speculative {
                d.non_spec = true;
                p.iq_stats.non_spec_insts_added.inc();
                p.iew_stats.disp_non_spec_insts.inc();
            }
            if is_load {
                p.window.lq_used += 1;
                p.iew_stats.disp_load_insts.inc();
                p.iew_stats.lsq.inserted_loads.inc();
                p.iew_stats.mem_dep.inserted_loads.inc();
            }
            if is_store {
                p.window.sq_used += 1;
                p.iew_stats.disp_store_insts.inc();
                p.iew_stats.lsq.inserted_stores.inc();
                p.iew_stats.mem_dep.inserted_stores.inc();
            }
            if matches!(inst, Inst::Membar) {
                p.window.membars_in_flight += 1;
            }

            // Wakeup registration: waiters index themselves under each
            // unready source; source-ready instructions go straight to
            // the ready queue (non-speculative ones wait for commit's
            // authorization instead).
            if !p.cfg.reference_scan {
                let mut all_ready = true;
                for src in d.srcs.iter().flatten() {
                    if !p.regs.phys_ready[*src] {
                        p.regs.dependents[*src].push(d.seq);
                        all_ready = false;
                    }
                }
                if all_ready && !d.non_spec {
                    let seq = d.seq;
                    p.window.enqueue_ready(seq);
                }
            }
        }
        if renamed > 0 {
            self.stats.run_cycles.inc();
        }
    }
}

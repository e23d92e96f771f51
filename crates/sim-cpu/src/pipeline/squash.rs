//! The squash unit: rolls the machine back past a mispredicted branch, a
//! memory-order violation or a fault.
//!
//! Squashing is event-driven rather than cycle-driven: the orchestrator
//! calls [`apply`] with a stage's [`SquashRequest`] between stage ticks,
//! exactly where the monolithic core performed the walk inline. The ports
//! struct spells out the squash blast radius — every stage's statistics,
//! the window, the rename map and the front-end — which is precisely the
//! paper's point: squash footprints are *invariant* because they appear
//! across so many components at once.

use uarch_isa::Inst;

use crate::config::CoreConfig;
use crate::stats::CpuStats;

use super::commit::CommitStage;
use super::decode::DecodeStage;
use super::execute::ExecuteStage;
use super::fetch::FetchStage;
use super::issue::IssueStage;
use super::rename::{CallOp, RenameStage};
use super::{FrontEndQueue, RegFile, SquashRequest, Window};

/// The squash blast radius: everything a rollback touches.
pub struct SquashPorts<'a> {
    pub(crate) cfg: &'a CoreConfig,
    pub(crate) window: &'a mut Window,
    pub(crate) regs: &'a mut RegFile,
    pub(crate) fetch: &'a mut FetchStage,
    pub(crate) decode: &'a mut DecodeStage,
    pub(crate) rename: &'a mut RenameStage,
    pub(crate) issue: &'a mut IssueStage,
    pub(crate) exec: &'a mut ExecuteStage,
    pub(crate) commit: &'a mut CommitStage,
    pub(crate) cpu: &'a mut CpuStats,
    pub(crate) front_end: &'a mut FrontEndQueue,
    pub(crate) cycle: u64,
}

/// Squashes every instruction with `seq > req.after`, redirecting fetch
/// to `req.redirect` (or leaving the trap redirect to the caller when
/// `None`). Stateless: every squash is fully described by its request and
/// applied against the shared machine state.
pub(crate) fn apply(req: &SquashRequest, p: &mut SquashPorts<'_>) {
    let after = req.after;
    p.cpu.squash_events.inc();

    // Wrong-path entries still in the front-end queue.
    let dropped = p.front_end.clear();
    p.decode.stats.squashed_insts.add(dropped as u64);

    // Parked loads are credited without a visit, so none may outlive
    // its instruction.
    let parked = &mut p.window.parked;
    parked.truncate(parked.partition_point(|&seq| seq <= after));

    // Walk the ROB from the back.
    while let Some(back) = p.window.rob.back() {
        if back.seq <= after {
            break;
        }
        let d = p.window.rob.pop_back().expect("checked non-empty");
        p.commit.stats.squashed_insts.inc();
        p.issue.stats.squashed_insts_examined.inc();
        p.issue
            .stats
            .squashed_operands_examined
            .add(d.srcs.iter().flatten().count() as u64);
        if d.in_iq {
            p.window.iq_used -= 1;
            if d.non_spec {
                p.issue.stats.squashed_non_spec_removed.inc();
            }
        }
        if d.issued && !d.executed {
            p.issue.stats.squashed_insts_issued.inc();
        }
        if d.executed || d.issued {
            p.exec.stats.exec_squashed_insts.inc();
        } else {
            p.exec.stats.disp_squashed_insts.inc();
        }
        if d.is_load() {
            p.window.lq_used -= 1;
            p.exec.stats.lsq.squashed_loads.inc();
            if d.mem_outstanding {
                p.exec.stats.lsq.ignored_responses.inc();
                p.window.mem_outstanding_count -= 1;
            }
        }
        if d.is_store() {
            p.window.sq_used -= 1;
            p.exec.stats.lsq.squashed_stores.inc();
        }
        if matches!(d.inst, Inst::Membar) {
            p.window.membars_in_flight -= 1;
        }
    }

    // Undo rename mappings.
    while let Some(h) = p.regs.history.back() {
        if h.seq <= after {
            break;
        }
        let h = p.regs.history.pop_back().expect("checked");
        p.regs.map_table[h.arch] = h.old_phys;
        p.regs.free_list.push_front(h.new_phys);
        p.rename.stats.undone_maps.inc();
    }

    // Undo call-stack operations.
    while let Some(&(seq, op)) = p.rename.call_hist.back() {
        if seq <= after {
            break;
        }
        p.rename.call_hist.pop_back();
        match op {
            CallOp::Push => {
                p.rename.call_stack.pop();
            }
            CallOp::Pop(v) => p.rename.call_stack.push(v),
            CallOp::Replace(old) => {
                if let Some(top) = p.rename.call_stack.last_mut() {
                    *top = old;
                }
            }
        }
    }

    // Front-end redirect.
    if p.fetch.icache_outstanding {
        p.fetch.stats.icache_squashes.inc();
        p.fetch.icache_outstanding = false;
    }
    p.fetch.current_fetch_line = None;
    p.fetch.fetch_stopped = false;
    if let Some(pc) = req.redirect {
        p.fetch.pc = pc;
    }
    p.fetch.fetch_resume_at = p.cycle + p.cfg.squash_penalty;
    p.decode.stats.squash_cycles.add(p.cfg.squash_penalty);
    p.rename.stats.squash_cycles.add(p.cfg.squash_penalty);
    p.exec.stats.squash_cycles.add(p.cfg.squash_penalty);
    p.exec.stats.block_cycles.inc();
}

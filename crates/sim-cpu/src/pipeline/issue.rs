//! The issue stage: wakeup/select over the instruction queue, functional
//! unit arbitration, and dispatch into execute through the
//! [`FuWakeup`] port.
//!
//! Two select implementations share one set of statistics:
//!
//! * the **ready-queue path** (default) selects oldest-first from the one
//!   age-ordered ready queue the wakeup network maintains
//!   (`Window::ready`, a sorted `Vec` of sequence numbers across every
//!   functional-unit pool) — cost proportional to the number of ready
//!   instructions, not the window size, with no per-cycle merge or sort
//!   and no allocation;
//! * the **reference scan** (`CoreConfig::reference_scan`) walks the whole
//!   window every cycle, exactly as the original core did.
//!
//! The two are bit-identical in every statistic: the full scan produces
//! *zero* side effects for instructions that are not ready (every skip
//! happens before any stat fires), so visiting only the ready ones in
//! sequence order is the same computation.

use uarch_isa::OpClass;

use crate::decoded::fu_pool;
use crate::stats::IqStats;

use super::execute::{ExecuteStage, FuWakeup};
use super::SquashRequest;

/// The issue stage. Owns the `iq` statistic group; the instructions it
/// schedules live in the shared window.
#[derive(Debug, Default)]
pub struct IssueStage {
    pub(crate) stats: IqStats,
}

/// Issue's view of the machine for one tick: the execute stage it wakes
/// up, and the machine resources the functional units touch.
pub struct IssuePorts<'a> {
    pub(crate) exec: &'a mut ExecuteStage,
    pub(crate) wake: FuWakeup<'a>,
}

impl IssueStage {
    /// Shared per-cycle epilogue: issue-count statistics and the memory
    /// order violation squash, identical for both select paths.
    fn epilogue(
        &mut self,
        exec: &mut ExecuteStage,
        issued_this_cycle: usize,
        violation: Option<(u64, usize)>,
    ) -> Option<SquashRequest> {
        self.stats.insts_issued.add(issued_this_cycle as u64);
        self.stats.issued_per_cycle.record(issued_this_cycle as f64);
        if issued_this_cycle == 0 {
            self.stats.empty_issue_cycles.inc();
            exec.stats.idle_cycles.inc();
        }

        if let Some((load_seq, load_pc)) = violation {
            // Memory order violation: squash from the conflicting load
            // (the rollback point and the redirect pc MUST come from the
            // same scan, or instructions between them are silently lost).
            exec.stats.mem_order_violation_events.inc();
            exec.stats.lsq.mem_order_violation.inc();
            exec.stats.mem_dep.conflicting_stores.inc();
            exec.stats.mem_dep.conflicting_loads.inc();
            return Some(SquashRequest {
                after: load_seq - 1,
                redirect: Some(load_pc),
                trap: None,
            });
        }
        None
    }

    /// Ready-queue select: candidates come from the age-ordered ready
    /// queue, oldest first. Entries are validated lazily (a squashed
    /// instruction's sequence number may linger until first visited) and
    /// stay queued across cycles while blocked on a functional unit or a
    /// saturated MSHR pool, so the per-cycle blocked statistics repeat
    /// exactly as the full scan reports them. One in-place `retain` pass
    /// drops the stale and the issued entries.
    fn tick_ready_queues(&mut self, mut p: IssuePorts<'_>) -> Option<SquashRequest> {
        let w = &mut p.wake;
        let mut fu_avail = [
            w.cfg.int_alu_units,
            w.cfg.int_mult_units,
            w.cfg.fp_units,
            w.cfg.simd_units,
            w.cfg.mem_ports,
        ];
        let mut issued_this_cycle = 0usize;
        let mut violation: Option<(u64, usize)> = None;

        // Issue never enqueues, so the queue can leave the window while
        // the functional units borrow it.
        let mut ready = std::mem::take(&mut w.window.ready);
        ready.retain(|&seq| {
            if violation.is_some() || issued_this_cycle >= w.cfg.issue_width {
                return true;
            }
            let (class, pool, is_load, dispatch) = match w.window.find(seq) {
                Some(d) if d.in_iq && !d.issued && !d.squashed => {
                    if d.non_spec && !d.can_exec_non_spec {
                        return true;
                    }
                    if !d.srcs.iter().flatten().all(|&r| w.regs.phys_ready[r]) {
                        return true;
                    }
                    (d.class, d.pool, d.load, d.dispatch_cycle)
                }
                // Stale entry: squashed or retired since enqueue.
                _ => return false,
            };
            if class != OpClass::NoOpClass && class != OpClass::IntAlu && fu_avail[pool] == 0 {
                self.stats.fu_full.inc(class);
                return true;
            }
            // Loads blocked by a saturated L1D MSHR pool reschedule.
            if is_load && w.window.mem_outstanding_count >= w.mem.l1d().config().mshrs {
                p.exec.stats.lsq.rescheduled_loads.inc();
                p.exec.stats.lsq.blocked_loads.inc();
                p.exec.stats.lsq.cache_blocked.inc();
                return true;
            }

            if class != OpClass::NoOpClass && fu_avail[pool] > 0 {
                fu_avail[pool] -= 1;
                if fu_avail[pool] == 0 {
                    self.stats.fu_busy.inc(class);
                }
            }
            issued_this_cycle += 1;
            violation = p.exec.execute_at_issue(seq, w);
            // Per-issue bookkeeping lives here (the IQ owns it). Only
            // rename writes `dispatch_cycle`, so the value read at select
            // is the one issue would read now.
            self.stats.issued_inst_type.inc(class);
            self.stats
                .issue_delay
                .record(w.cycle.saturating_sub(dispatch) as f64);
            self.stats.power.dynamic_energy.add(1.1);
            false
        });
        w.window.ready = ready;

        self.epilogue(p.exec, issued_this_cycle, violation)
    }

    /// Reference select: the original full-window scan, kept verbatim for
    /// `CoreConfig::reference_scan` equivalence runs.
    fn tick_reference(&mut self, mut p: IssuePorts<'_>) -> Option<SquashRequest> {
        let w = &mut p.wake;
        let mut fu_avail = [
            w.cfg.int_alu_units,
            w.cfg.int_mult_units,
            w.cfg.fp_units,
            w.cfg.simd_units,
            w.cfg.mem_ports,
        ];
        let mut issued_this_cycle = 0usize;
        let mut violation: Option<(u64, usize)> = None;

        // Gather candidates (oldest first).
        let seqs: Vec<u64> = w.window.rob.iter().map(|d| d.seq).collect();
        for seq in seqs {
            if issued_this_cycle >= w.cfg.issue_width {
                break;
            }
            let (ready, class) = {
                let d = w.window.inst_of(seq);
                if !d.in_iq || d.issued || d.squashed {
                    continue;
                }
                if d.non_spec && !d.can_exec_non_spec {
                    continue;
                }
                let srcs_ready = d.srcs.iter().flatten().all(|&r| w.regs.phys_ready[r]);
                (srcs_ready, d.class)
            };
            if !ready {
                continue;
            }
            let pool = fu_pool(class);
            if class != OpClass::NoOpClass && class != OpClass::IntAlu && fu_avail[pool] == 0 {
                self.stats.fu_full.inc(class);
                continue;
            }
            if matches!(
                class,
                OpClass::MemRead
                    | OpClass::MemWrite
                    | OpClass::FloatMemRead
                    | OpClass::FloatMemWrite
            ) && fu_avail[4] == 0
            {
                self.stats.fu_full.inc(class);
                continue;
            }
            // Loads blocked by a saturated L1D MSHR pool reschedule.
            if w.window.inst_of(seq).is_load() {
                let outstanding = w
                    .window
                    .rob
                    .iter()
                    .filter(|d| d.mem_outstanding && !d.squashed)
                    .count();
                if outstanding >= w.mem.l1d().config().mshrs {
                    p.exec.stats.lsq.rescheduled_loads.inc();
                    p.exec.stats.lsq.blocked_loads.inc();
                    p.exec.stats.lsq.cache_blocked.inc();
                    continue;
                }
            }

            if class != OpClass::NoOpClass {
                let pool = if matches!(
                    class,
                    OpClass::MemRead
                        | OpClass::MemWrite
                        | OpClass::FloatMemRead
                        | OpClass::FloatMemWrite
                ) {
                    4
                } else {
                    pool
                };
                if fu_avail[pool] > 0 {
                    fu_avail[pool] -= 1;
                    if fu_avail[pool] == 0 {
                        self.stats.fu_busy.inc(class);
                    }
                }
            }
            issued_this_cycle += 1;
            let v = p.exec.execute_at_issue(seq, w);
            // Per-issue bookkeeping lives here (the IQ owns it).
            self.stats.issued_inst_type.inc(class);
            let dispatch = w.window.inst_of(seq).dispatch_cycle;
            self.stats
                .issue_delay
                .record(w.cycle.saturating_sub(dispatch) as f64);
            self.stats.power.dynamic_energy.add(1.1);
            if let Some(v) = v {
                violation = Some(v);
                break;
            }
        }

        self.epilogue(p.exec, issued_this_cycle, violation)
    }

    /// Selects and issues up to `issue_width` ready instructions; a memory
    /// order violation returns the squash that replays the load.
    pub(crate) fn tick(&mut self, p: IssuePorts<'_>) -> Option<SquashRequest> {
        if p.wake.cfg.reference_scan {
            self.tick_reference(p)
        } else {
            self.tick_ready_queues(p)
        }
    }
}

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
//!   and no allocation. Loads turned away at a saturated L1D MSHR pool
//!   leave the queue for `Window::parked`; while the pool stays
//!   saturated, each select credits them in bulk with what visiting them
//!   would record, and the first select with a free MSHR releases them;
//! * the **reference scan** (`CoreConfig::reference_scan`) walks the whole
//!   window every cycle, exactly as the original core did.
//!
//! The two are bit-identical in every statistic: the full scan produces
//! *zero* side effects for instructions that are not ready (every skip
//! happens before any stat fires), so visiting only the ready ones in
//! sequence order is the same computation; and a parked load's visit
//! depends only on where the pass stopped and where the memory ports ran
//! out, which two binary searches over the sorted parked list recover.

use uarch_isa::OpClass;

use crate::decoded::fu_pool;
use crate::stats::IqStats;

use super::execute::{ExecuteStage, FuWakeup};
#[cfg(debug_assertions)]
use super::RegFile;
use super::{SquashRequest, Window};

/// The issue stage. Owns the `iq` statistic group; the instructions it
/// schedules live in the shared window.
#[derive(Debug, Default)]
pub struct IssueStage {
    pub(crate) stats: IqStats,
    /// Scratch for the loads a pass parks, merged into `Window::parked`
    /// after it; reused across cycles to keep the select allocation-free.
    parking: Vec<u64>,
}

/// The memory ports' slot in the select's free-unit counts (the pool
/// [`fu_pool`] gives every memory op class).
const MEM_POOL: usize = 4;

/// Checks what the select relies on when it credits parked loads without
/// visiting them: the list is strictly increasing, every entry is a live
/// load waiting in the IQ that would issue but for the MSHR pool, and the
/// release step has left it empty unless the pool is saturated.
#[cfg(debug_assertions)]
fn assert_parked_invariant(window: &Window, regs: &RegFile, mshrs: usize) {
    assert!(
        window.parked.windows(2).all(|p| p[0] < p[1]),
        "parked loads must be sorted and unique: {:?}",
        window.parked
    );
    for &seq in &window.parked {
        let d = window.find(seq).expect("a parked load is in the window");
        assert!(
            d.load && d.in_iq && !d.issued && !d.squashed,
            "parked seq {seq} must be a queued, unissued, live load"
        );
        assert!(
            (!d.non_spec || d.can_exec_non_spec)
                && d.srcs.iter().flatten().all(|&r| regs.phys_ready[r]),
            "parked seq {seq} must be ready to issue"
        );
    }
    assert!(
        window.parked.is_empty() || window.mem_outstanding_count >= mshrs,
        "parked loads must be released once an MSHR frees"
    );
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
    /// stay queued across cycles while blocked on a functional unit, so
    /// the per-cycle blocked statistics repeat exactly as the full scan
    /// reports them. One in-place `retain` pass drops the stale and the
    /// issued entries and takes out the loads a saturated MSHR pool turns
    /// away, which join `Window::parked` after the pass.
    ///
    /// Parked loads are not visited. The pool cannot drain during a pass
    /// (only completions free an MSHR), so while it stays saturated each
    /// parked load the pass would have reached records what it recorded
    /// when parked: the three blocked-load counters, or `fu_full` for its
    /// class once the memory ports are used up. [`Self::credit_parked`]
    /// adds those in bulk from where the pass ended and where its ports
    /// ran out. The pass starts by releasing every parked load into the
    /// ready queue if an MSHR is free.
    fn tick_ready_queues(&mut self, mut p: IssuePorts<'_>) -> Option<SquashRequest> {
        let w = &mut p.wake;
        let mshrs = w.mem.l1d().config().mshrs;
        if w.window.mem_outstanding_count < mshrs {
            w.window.release_parked();
        }
        #[cfg(debug_assertions)]
        assert_parked_invariant(w.window, w.regs, mshrs);
        let mut fu_avail = [
            w.cfg.int_alu_units,
            w.cfg.int_mult_units,
            w.cfg.fp_units,
            w.cfg.simd_units,
            w.cfg.mem_ports,
        ];
        let mut issued_this_cycle = 0usize;
        let mut violation: Option<(u64, usize)> = None;
        // The issue that ends the pass (filling the issue width, which
        // is validated positive, or raising a violation), and the one
        // that took the last memory port.
        let mut cutoff: Option<u64> = None;
        let mut ports_out_at: Option<u64> = None;
        let parking = &mut self.parking;
        parking.clear();

        // Issue never enqueues, so the queue can leave the window while
        // the functional units borrow it.
        let mut ready = std::mem::take(&mut w.window.ready);
        ready.retain(|&seq| {
            if cutoff.is_some() {
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
            if is_load && w.window.mem_outstanding_count >= mshrs {
                p.exec.stats.lsq.rescheduled_loads.inc();
                p.exec.stats.lsq.blocked_loads.inc();
                p.exec.stats.lsq.cache_blocked.inc();
                parking.push(seq);
                return false;
            }

            if class != OpClass::NoOpClass && fu_avail[pool] > 0 {
                fu_avail[pool] -= 1;
                if fu_avail[pool] == 0 {
                    self.stats.fu_busy.inc(class);
                    if pool == MEM_POOL {
                        ports_out_at = Some(seq);
                    }
                }
            }
            issued_this_cycle += 1;
            violation = p.exec.execute_at_issue(seq, w);
            if violation.is_some() || issued_this_cycle >= w.cfg.issue_width {
                cutoff = Some(seq);
            }
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
        self.credit_parked(p.exec, w.window, cutoff, ports_out_at);
        w.window.park(&self.parking);

        self.epilogue(p.exec, issued_this_cycle, violation)
    }

    /// Credits the loads parked before this pass with what visiting them
    /// would have recorded: nothing past the `cutoff` issue, where the
    /// pass stopped; `fu_full` for their class past `ports_out_at`, where
    /// the memory ports ran out; the three blocked-load counters before
    /// both. A non-empty list means the pool was saturated all pass.
    fn credit_parked(
        &mut self,
        exec: &mut ExecuteStage,
        window: &Window,
        cutoff: Option<u64>,
        ports_out_at: Option<u64>,
    ) {
        let parked = &window.parked;
        if parked.is_empty() {
            return;
        }
        let visited = cutoff.map_or(parked.len(), |c| parked.partition_point(|&s| s < c));
        let ported =
            ports_out_at.map_or(visited, |c| parked[..visited].partition_point(|&s| s < c));
        let blocked = ported as u64;
        exec.stats.lsq.rescheduled_loads.add(blocked);
        exec.stats.lsq.blocked_loads.add(blocked);
        exec.stats.lsq.cache_blocked.add(blocked);
        for &seq in &parked[ported..visited] {
            self.stats.fu_full.inc(window.inst_of(seq).class);
        }
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

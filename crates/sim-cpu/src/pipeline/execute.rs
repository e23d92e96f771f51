//! The execute/writeback stage: functional-unit evaluation at issue
//! (through the [`FuWakeup`] port), completion and writeback, branch
//! resolution and predictor repair.
//!
//! Completion is event-driven on the fast path: issue pushes each
//! instruction's `(ready_cycle, seq)` onto a min-heap and the tick pops
//! the entries due this cycle, instead of scanning the whole window.
//! Stale entries (squashed instructions) are dropped lazily when popped.
//! `CoreConfig::reference_scan` keeps the original full scan available.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sim_mem::{AccessOutcome, MemoryHierarchy, Uncore};
use uarch_isa::{AluOp, FaluOp, Inst, OpClass, Program};

use crate::config::CoreConfig;
use crate::core::KERNEL_SPACE_BASE;
use crate::stats::{CpuStats, IewStats, IqStats, TlbStats};
use crate::tlb::Tlb;

use super::{Predictors, RegFile, SquashRequest, Window};

/// The execute/writeback stage.
///
/// Owns the D-TLB and the `iew` statistic group (including its `lsq` and
/// `memDep` sub-units, also published under their top-level aliases) plus
/// the `dtb`/`dtlb` TLB counters.
#[derive(Debug)]
pub struct ExecuteStage {
    pub(crate) dtlb: Tlb,
    pub(crate) stats: IewStats,
    pub(crate) dtb: TlbStats,
    /// Pending completions `(ready_cycle, seq)`, min-ordered. Fed at issue,
    /// drained by the tick; unused under `CoreConfig::reference_scan`.
    pub(crate) completions: BinaryHeap<Reverse<(u64, u64)>>,
    /// Scratch for the sequence numbers completing this tick, reused
    /// across cycles to keep the hot loop allocation-free.
    due: Vec<u64>,
}

/// Execute's view of the machine for the completion tick.
pub struct ExecutePorts<'a> {
    pub(crate) window: &'a mut Window,
    pub(crate) regs: &'a mut RegFile,
    pub(crate) pred: &'a mut Predictors,
    pub(crate) iq_stats: &'a mut IqStats,
    pub(crate) cpu: &'a mut CpuStats,
    pub(crate) cycle: u64,
    pub(crate) reference_scan: bool,
}

/// The issue → execute wakeup port: everything a functional unit touches
/// when an instruction is evaluated at issue time.
pub struct FuWakeup<'a> {
    pub(crate) cfg: &'a CoreConfig,
    pub(crate) program: &'a Program,
    pub(crate) mem: &'a mut MemoryHierarchy,
    pub(crate) uncore: &'a mut Uncore,
    pub(crate) window: &'a mut Window,
    pub(crate) regs: &'a mut RegFile,
    pub(crate) cpu: &'a mut CpuStats,
    pub(crate) cycle: u64,
}

impl ExecuteStage {
    pub(crate) fn new(cfg: &CoreConfig) -> Self {
        Self {
            dtlb: Tlb::new(cfg.dtlb_entries, 20),
            stats: IewStats::default(),
            dtb: TlbStats::default(),
            completions: BinaryHeap::new(),
            due: Vec::new(),
        }
    }

    /// The earliest cycle at which a pending completion becomes due, after
    /// discarding stale (squashed) heap entries. Used by the core's
    /// tick-skip to bound how far the clock may jump.
    pub(crate) fn next_completion(&mut self, window: &Window) -> Option<u64> {
        while let Some(&Reverse((ready, seq))) = self.completions.peek() {
            match window.find(seq) {
                Some(d) if d.issued && !d.executed && !d.squashed => return Some(ready),
                _ => {
                    self.completions.pop();
                }
            }
        }
        None
    }

    pub(crate) fn exec_latency(class: OpClass) -> u64 {
        match class {
            OpClass::NoOpClass => 1,
            OpClass::IntAlu => 1,
            OpClass::IntMult => 3,
            OpClass::IntDiv => 12,
            OpClass::FloatAdd => 4,
            OpClass::FloatMult => 5,
            OpClass::FloatDiv => 12,
            OpClass::FloatSqrt => 16,
            OpClass::FloatCvt => 3,
            OpClass::SimdAdd | OpClass::SimdMult | OpClass::SimdCvt => 2,
            OpClass::MemRead | OpClass::FloatMemRead => 1,
            OpClass::MemWrite | OpClass::FloatMemWrite => 1,
        }
    }

    /// Computes an instruction's result as it issues; returns a detected
    /// memory-order violation `(load_seq, load_pc)` if one occurred.
    pub(crate) fn execute_at_issue(
        &mut self,
        seq: u64,
        w: &mut FuWakeup<'_>,
    ) -> Option<(u64, usize)> {
        let at = w.window.position(seq).expect("seq in rob");
        let (inst, class, srcs, fall_through, renamed_target) = {
            let d = &w.window.rob[at];
            (d.inst, d.class, d.srcs, d.fall_through, d.actual_target)
        };
        let v = |i: usize| -> u64 { srcs[i].map(|p| w.regs.phys_regs[p]).unwrap_or(0) };
        let base_lat = Self::exec_latency(class);
        let mut ready = w.cycle + base_lat;
        let mut result = 0u64;
        let mut eff_addr = None;
        let mut mem_size = 0u64;
        let mut fault = false;
        let mut forwarded = false;
        let mut mem_outstanding = false;
        let mut actual_taken = false;
        let mut actual_target = fall_through;
        let mut violation = None;
        let mut fwd_youngest_out: Option<u64> = None;

        w.cpu
            .int_regfile_reads
            .add(srcs.iter().flatten().count() as u64);

        match inst {
            Inst::Li { imm, .. } => result = imm as u64,
            Inst::Alu { op, .. } => {
                result = alu_compute(op, v(0), v(1));
                w.cpu.int_alu_accesses.inc();
            }
            Inst::AluI { op, imm, .. } => {
                result = alu_compute(op, v(0), imm as u64);
                w.cpu.int_alu_accesses.inc();
            }
            Inst::Falu { op, .. } => {
                result = falu_compute(op, v(0), v(1));
                w.cpu.fp_alu_accesses.inc();
            }
            Inst::Load { offset, width, .. } => {
                let addr = v(0).wrapping_add(offset as u64);
                eff_addr = Some(addr);
                mem_size = width.bytes();
                self.stats.mem_dep.lookups.inc();
                let (tlb_lat, tlb_miss) = self.dtlb.access(addr);
                self.dtb.rd_accesses.inc();
                if tlb_miss {
                    self.dtb.rd_misses.inc();
                    self.dtb.walk_cycles.add(tlb_lat);
                } else {
                    self.dtb.rd_hits.inc();
                }
                fault = addr >= KERNEL_SPACE_BASE || w.program.is_kernel_addr(addr);
                // Store-to-load forwarding: merge, byte by byte, the
                // youngest older in-flight store covering each loaded byte
                // over the memory image (uncommitted stores are only
                // visible in the store queue, not in memory). One pass
                // over the older instructions in program order leaves the
                // youngest covering store in each byte's slot.
                let mut covering: [Option<(u64, u64, u64)>; 8] = [None; 8];
                for st in w.window.rob.range(..at) {
                    if !st.is_store() || !st.issued || st.squashed {
                        continue;
                    }
                    let Some(sa) = st.eff_addr else { continue };
                    for (k, slot) in covering.iter_mut().enumerate().take(mem_size as usize) {
                        let b_addr = addr + k as u64;
                        if sa <= b_addr && b_addr < sa + st.mem_size {
                            *slot = Some((st.seq, sa, st.result));
                        }
                    }
                }
                let covering = &covering[..mem_size as usize];
                let any_fwd = covering.iter().any(Option::is_some);
                let all_fwd = covering.iter().all(Option::is_some);
                // The violation-check exemption is only sound when EVERY
                // byte came from the store queue; the oldest contributor
                // bounds which later-resolving stores can be ignored.
                fwd_youngest_out = if all_fwd {
                    covering
                        .iter()
                        .flatten()
                        .map(|&(st_seq, _, _)| st_seq)
                        .min()
                } else {
                    None
                };
                if any_fwd {
                    // Only a merge reads the memory image here; a load no
                    // store covers takes its value from the timed load.
                    result = covering.iter().enumerate().fold(0u64, |v, (k, slot)| {
                        let b_addr = addr + k as u64;
                        let byte = match *slot {
                            Some((_, sa, data)) => (data >> ((b_addr - sa) * 8)) as u8,
                            None => w.mem.memory().read_byte(b_addr),
                        };
                        v | (byte as u64) << (8 * k)
                    });
                    if all_fwd {
                        // Cleanly satisfied by the store queue.
                        forwarded = true;
                        ready = w.cycle + 2 + tlb_lat;
                        self.stats.lsq.forw_loads.inc();
                        self.stats.lsq.forw_distance.record(1.0);
                    } else {
                        // Partial overlap: merge and replay more slowly.
                        ready = w.cycle + 10 + tlb_lat;
                        self.stats.lsq.rescheduled_loads.inc();
                    }
                } else {
                    let res = w.mem.load(w.uncore, addr, mem_size, w.cycle + tlb_lat);
                    result = res.value;
                    ready = w.cycle + base_lat + tlb_lat + res.latency;
                    mem_outstanding = res.outcome != AccessOutcome::L1Hit;
                    self.stats.lsq.load_latency.record((ready - w.cycle) as f64);
                }
            }
            Inst::Store { offset, width, .. } => {
                let addr = v(0).wrapping_add(offset as u64);
                eff_addr = Some(addr);
                mem_size = width.bytes();
                result = v(1); // store data
                let (tlb_lat, tlb_miss) = self.dtlb.access(addr);
                self.dtb.wr_accesses.inc();
                if tlb_miss {
                    self.dtb.wr_misses.inc();
                    self.dtb.walk_cycles.add(tlb_lat);
                } else {
                    self.dtb.wr_hits.inc();
                }
                ready = w.cycle + base_lat + tlb_lat;
                fault = addr >= KERNEL_SPACE_BASE || w.program.is_kernel_addr(addr);
                // Memory-order violation: the oldest younger load that
                // already executed against this address.
                violation = w
                    .window
                    .rob
                    .range(at + 1..)
                    .find(|l| {
                        l.is_load()
                            && l.issued
                            && !l.squashed
                            // A load whose bytes all came from a store
                            // younger than this one cannot have read stale
                            // data; anything else (memory bytes, or bytes
                            // from an older store) must replay.
                            && l.fwd_youngest_seq.is_none_or(|f| f < seq)
                            && l.eff_addr.is_some_and(|la| {
                                la < addr + mem_size && addr < la + l.mem_size
                            })
                    })
                    .map(|l| (l.seq, l.pc));
            }
            Inst::Branch { cond, .. } => {
                actual_taken = cond.eval(v(0), v(1));
                actual_target = if actual_taken {
                    branch_target(inst)
                } else {
                    fall_through
                };
            }
            Inst::Jump { target } => {
                actual_taken = true;
                actual_target = target;
            }
            Inst::JumpInd { .. } => {
                actual_taken = true;
                actual_target = v(0) as usize;
                ready = w.cycle + 3; // indirect target resolution
            }
            Inst::Call { target } => {
                actual_taken = true;
                actual_target = target;
            }
            Inst::CallInd { .. } => {
                actual_taken = true;
                actual_target = v(0) as usize;
                ready = w.cycle + 3;
            }
            Inst::Ret => {
                actual_taken = true;
                actual_target = renamed_target; // resolved at rename
                ready = w.cycle + 8; // return address stack-memory read
            }
            Inst::SetRet { .. } => {
                // Effect applied at rename; execution is a no-op.
            }
            Inst::Flush { offset, .. } => {
                let addr = v(0).wrapping_add(offset as u64);
                eff_addr = Some(addr);
                let lat = w.mem.flush_line(w.uncore, addr, w.cycle);
                self.stats.flush_latency.record(lat as f64);
                ready = w.cycle + lat;
            }
            Inst::Fence => {
                ready = w.cycle + 1;
            }
            Inst::Membar => {
                ready = w.cycle + w.cfg.membar_drain;
            }
            Inst::RdCycle { .. } => {
                result = w.cycle;
                w.cpu.misc_regfile_reads.inc();
                w.cpu.misc_regfile_writes.inc();
            }
            Inst::Mark(_) | Inst::Nop | Inst::Halt => {}
        }

        {
            let now = w.cycle;
            let di = &mut w.window.rob[at];
            di.issued = true;
            di.issue_cycle = now;
            di.in_iq = false;
            di.result = result;
            di.ready_cycle = ready;
            di.eff_addr = eff_addr;
            di.mem_size = mem_size;
            di.fault = fault;
            di.forwarded = forwarded;
            di.fwd_youngest_seq = fwd_youngest_out;
            di.mem_outstanding = mem_outstanding;
            di.actual_taken = actual_taken;
            if !matches!(di.inst, Inst::Ret) {
                di.actual_target = actual_target;
            }
        }
        if mem_outstanding {
            w.window.mem_outstanding_count += 1;
        }
        if !w.cfg.reference_scan {
            self.completions.push(Reverse((ready, seq)));
        }
        w.window.iq_used -= 1;
        violation
    }

    /// Resolves one control instruction, updating predictor state; returns
    /// the squash request on a misprediction.
    fn resolve_branch(
        &mut self,
        seq: u64,
        mispredict: bool,
        p: &mut ExecutePorts<'_>,
    ) -> Option<SquashRequest> {
        let (inst, pc, taken, pred_taken, cp, actual_target) = {
            let d = p.window.inst_of(seq);
            (
                d.inst,
                d.pc,
                d.actual_taken,
                d.predicted_taken,
                d.checkpoint,
                d.actual_target,
            )
        };
        self.stats.exec_branches.inc();
        {
            let fetched_at = p.window.inst_of(seq).fetch_cycle;
            self.stats
                .resolution_delay
                .record(p.cycle.saturating_sub(fetched_at) as f64);
        }

        match inst {
            Inst::Branch { .. } => {
                p.pred.bp.update(pc, taken, pred_taken, &cp);
                p.pred.stats.updates.inc();
                if mispredict {
                    p.pred.stats.cond_incorrect.inc();
                    if pred_taken {
                        self.stats.predicted_taken_incorrect.inc();
                    } else {
                        self.stats.predicted_not_taken_incorrect.inc();
                    }
                }
                if taken {
                    p.pred.btb.update(pc, actual_target);
                }
            }
            Inst::JumpInd { .. } | Inst::CallInd { .. } => {
                if mispredict {
                    p.pred.stats.indirect_mispredicted.inc();
                }
                p.pred.btb.update(pc, actual_target);
            }
            Inst::Ret if mispredict => {
                p.pred.stats.ras_incorrect.inc();
            }
            Inst::Jump { .. } | Inst::Call { .. } => {
                p.pred.btb.update(pc, actual_target);
            }
            _ => {}
        }

        if mispredict {
            {
                let d = p.window.inst_mut(seq);
                d.mispredicted = true;
            }
            self.stats.branch_mispredicts.inc();
            // Repair speculative predictor state.
            if matches!(inst, Inst::Branch { .. }) {
                // bp.update already repaired the GHR.
            } else {
                p.pred.bp.restore_ghr(cp.ghr);
            }
            p.pred.ras.restore(cp.ras_tos, cp.ras_top);
            // Re-apply this instruction's own RAS operation.
            match inst {
                Inst::Call { .. } | Inst::CallInd { .. } => p.pred.ras.push(pc + 1),
                Inst::Ret => {
                    let _ = p.pred.ras.pop();
                }
                _ => {}
            }
            return Some(SquashRequest {
                after: seq,
                redirect: Some(actual_target),
                trap: None,
            });
        }
        None
    }

    /// Completes and writes back the instructions due this cycle; a
    /// mispredicted branch returns the squash that redirects fetch.
    pub(crate) fn tick(&mut self, mut p: ExecutePorts<'_>) -> Option<SquashRequest> {
        // Collect completions this cycle: pop everything due from the
        // min-heap (fast path) or scan the window (reference), then process
        // in sequence order — the order the reference scan visits them.
        self.due.clear();
        if p.reference_scan {
            for d in &p.window.rob {
                if d.issued && !d.executed && !d.squashed && d.ready_cycle <= p.cycle {
                    self.due.push(d.seq);
                }
            }
        } else {
            while let Some(&Reverse((ready, _))) = self.completions.peek() {
                if ready > p.cycle {
                    break;
                }
                let Reverse((_, seq)) = self.completions.pop().expect("peeked");
                // Lazy validation: squashed instructions leave stale entries.
                if let Some(d) = p.window.find(seq) {
                    if d.issued && !d.executed && !d.squashed {
                        self.due.push(seq);
                    }
                }
            }
            self.due.sort_unstable();
        }
        for i in 0..self.due.len() {
            let seq = self.due[i];
            let (dest, result, is_ctrl, is_load, was_outstanding) = {
                let d = p.window.inst_mut(seq);
                d.executed = true;
                let was = d.mem_outstanding;
                d.mem_outstanding = false;
                (d.dest_phys, d.result, d.is_ctrl(), d.is_load(), was)
            };
            if was_outstanding {
                p.window.mem_outstanding_count -= 1;
            }
            if let Some(phys) = dest {
                p.regs.phys_regs[phys] = result;
                p.regs.phys_ready[phys] = true;
                p.cpu.int_regfile_writes.inc();
                if !p.reference_scan {
                    // Wakeup network: re-check every instruction waiting on
                    // this register; the fully-ready ones join the ready
                    // queue (non-speculative ones wait for commit's
                    // authorization instead). The list is drained in
                    // place so its capacity survives for the register's
                    // next producer.
                    let regs = &mut *p.regs;
                    for &wseq in &regs.dependents[phys] {
                        let Some(d) = p.window.find(wseq) else {
                            continue;
                        };
                        if !d.in_iq || d.issued || d.squashed {
                            continue;
                        }
                        if (d.non_spec && !d.can_exec_non_spec)
                            || !d.srcs.iter().flatten().all(|&r| regs.phys_ready[r])
                        {
                            continue;
                        }
                        p.window.enqueue_ready(wseq);
                    }
                    regs.dependents[phys].clear();
                }
            }
            self.stats.executed_insts.inc();
            self.stats.power.dynamic_energy.add(1.4);
            {
                let class = p.window.inst_of(seq).class;
                p.iq_stats.executed_class.inc(class);
            }
            if is_load {
                self.stats.executed_load_insts.inc();
            }
            if is_ctrl {
                // Resolve at most one control instruction per cycle (the
                // oldest); younger ones will re-resolve after any squash.
                let mispredict = {
                    let d = p.window.inst_of(seq);
                    d.predicted_target != d.actual_target
                        || (matches!(d.inst, Inst::Branch { .. })
                            && d.predicted_taken != d.actual_taken)
                };
                let req = self.resolve_branch(seq, mispredict, &mut p);
                if req.is_some() {
                    // Squash requested; stop processing younger completions
                    // (the orchestrator squashes them before issue runs).
                    // The unprocessed tail goes back on the heap; entries
                    // the squash kills validate out when next popped.
                    if !p.reference_scan {
                        for k in i + 1..self.due.len() {
                            self.completions.push(Reverse((p.cycle, self.due[k])));
                        }
                    }
                    return req;
                }
            }
        }
        None
    }
}

pub(crate) fn branch_target(inst: Inst) -> usize {
    match inst {
        Inst::Branch { target, .. } => target,
        _ => unreachable!("only conditional branches"),
    }
}

pub(crate) fn alu_compute(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                u64::MAX
            } else {
                ((a as i64).wrapping_div(b as i64)) as u64
            }
        }
        AluOp::Rem => {
            if b == 0 {
                a
            } else {
                ((a as i64).wrapping_rem(b as i64)) as u64
            }
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl(b as u32 & 63),
        AluOp::Shr => a.wrapping_shr(b as u32 & 63),
        AluOp::Sar => ((a as i64).wrapping_shr(b as u32 & 63)) as u64,
        AluOp::Slt => ((a as i64) < (b as i64)) as u64,
        AluOp::Sltu => (a < b) as u64,
    }
}

pub(crate) fn falu_compute(op: FaluOp, a: u64, b: u64) -> u64 {
    let fa = f64::from_bits(a);
    let fb = f64::from_bits(b);
    match op {
        FaluOp::FAdd => (fa + fb).to_bits(),
        FaluOp::FSub => (fa - fb).to_bits(),
        FaluOp::FMul => (fa * fb).to_bits(),
        FaluOp::FDiv => (fa / fb).to_bits(),
        FaluOp::FSqrt => fa.abs().sqrt().to_bits(),
        FaluOp::FCvtIf => (a as i64 as f64).to_bits(),
        FaluOp::FCvtFi => fa as i64 as u64,
        FaluOp::VAdd | FaluOp::VMul | FaluOp::VCvt => {
            let mut out = 0u64;
            for lane in 0..4 {
                let la = (a >> (16 * lane)) as u16;
                let lb = (b >> (16 * lane)) as u16;
                let r = match op {
                    FaluOp::VAdd => la.wrapping_add(lb),
                    FaluOp::VMul => la.wrapping_mul(lb),
                    _ => la.min(255),
                };
                out |= (r as u64) << (16 * lane);
            }
            out
        }
    }
}

//! The pipeline stages as first-class components.
//!
//! Each stage module owns its architectural state and its statistics and
//! has an inherent `tick` taking its ports struct; the
//! [`Core`](crate::Core) is only an orchestrator that calls the six ticks
//! in order and wires the stages together:
//!
//! * fetch → decode → rename through one [`FrontEndQueue`] (a field of
//!   the core): fetch appends, decode advances a boundary over it, and
//!   rename takes decoded instructions off the front,
//! * issue → execute through the [`FuWakeup`](execute::FuWakeup) port
//!   (functional-unit wakeup at issue),
//! * commit/execute/issue → squash through the [`SquashRequest`] their
//!   ticks return, applied by [`squash::apply`] before the next stage
//!   runs. Decode, rename and fetch never squash.
//!
//! Cross-stage *resources* — the instruction window, the physical register
//! file, the predictors — are shared structs the orchestrator lends to each
//! stage for the duration of its tick, so every stage's footprint is spelled
//! out in its ports struct instead of hiding behind `&mut self` on one
//! monolithic core.

use std::collections::VecDeque;

use uarch_isa::{Inst, Reg};

use crate::bpred::{Btb, PredCheckpoint, Ras, TournamentPredictor};
use crate::config::CoreConfig;
use crate::dyninst::DynInst;
use crate::stats::{BPredStats, CtrlKind};

pub mod commit;
pub mod decode;
pub mod execute;
pub mod fetch;
pub mod issue;
pub mod rename;
pub mod squash;

/// A squash demand raised by a stage tick.
///
/// `after` is the last sequence number to survive; everything younger is
/// rolled back. `redirect` is the corrected fetch pc (`None` leaves the pc
/// to the trap path). `trap` carries commit's fault delivery, applied by
/// the orchestrator after the squash walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SquashRequest {
    /// Last surviving sequence number.
    pub after: u64,
    /// Corrected fetch pc, if the squashing stage resolved one.
    pub redirect: Option<usize>,
    /// Fault delivery accompanying the squash (commit only).
    pub trap: Option<TrapRequest>,
}

/// Commit's fault-delivery half of a [`SquashRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrapRequest {
    /// Fault handler entry point; `None` halts the machine.
    pub handler: Option<usize>,
}

/// One undoable rename-map update (new mapping for `arch`, displacing
/// `old_phys`), tagged with the renaming instruction's sequence number.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HistEntry {
    pub(crate) seq: u64,
    pub(crate) arch: usize,
    pub(crate) new_phys: usize,
    pub(crate) old_phys: usize,
}

/// The physical register file and rename map, shared by rename (allocate),
/// issue/execute (read/write), commit (retire) and squash (roll back).
#[derive(Debug)]
pub struct RegFile {
    pub(crate) map_table: [usize; Reg::COUNT],
    pub(crate) free_list: VecDeque<usize>,
    pub(crate) phys_regs: Vec<u64>,
    pub(crate) phys_ready: Vec<bool>,
    pub(crate) history: VecDeque<HistEntry>,
    /// Reverse dependency index for the wakeup network: per physical
    /// register, the sequence numbers of in-window instructions waiting on
    /// it. Rename appends a waiter per unready source; execute drains the
    /// list when the register's value completes. Entries are validated
    /// lazily against the window (stale sequence numbers are dropped), and
    /// the list is cleared when its register is re-allocated.
    pub(crate) dependents: Vec<Vec<u64>>,
}

impl RegFile {
    pub(crate) fn new(phys: usize) -> Self {
        let mut map_table = [0usize; Reg::COUNT];
        for (i, m) in map_table.iter_mut().enumerate() {
            *m = i;
        }
        Self {
            map_table,
            free_list: (Reg::COUNT..phys).collect(),
            phys_regs: vec![0; phys],
            phys_ready: vec![true; phys],
            history: VecDeque::new(),
            dependents: vec![Vec::new(); phys],
        }
    }

    /// Architectural value of register `r` (through the rename map).
    pub fn read_arch(&self, r: Reg) -> u64 {
        self.phys_regs[self.map_table[r.index()]]
    }
}

/// The instruction window: the ROB plus the occupancy counters of the
/// queues that back-pressure rename (IQ, LQ, SQ), the in-flight
/// memory-barrier count that quiesces fetch, and the issue stage's
/// scheduling lists: the ready queue and the loads parked at a saturated
/// MSHR pool.
#[derive(Debug, Default)]
pub struct Window {
    pub(crate) rob: VecDeque<DynInst>,
    pub(crate) iq_used: usize,
    pub(crate) lq_used: usize,
    pub(crate) sq_used: usize,
    pub(crate) membars_in_flight: usize,
    /// The age-ordered ready queue: the sequence numbers of queued
    /// instructions whose sources are all ready, strictly increasing (no
    /// duplicates), across every functional-unit pool. An entry's pool is
    /// its instruction's [`DynInst::pool`]. Maintained by the wakeup
    /// network (rename dispatch, execute completion, commit's
    /// non-speculative authorization) through [`Window::enqueue_ready`];
    /// consumed oldest-first by the select in issue, which removes what
    /// it issues and parks what a saturated MSHR pool turns away. Entries
    /// of squashed instructions go stale and are dropped lazily. Unused
    /// under `CoreConfig::reference_scan`.
    pub(crate) ready: Vec<u64>,
    /// The parked loads: ready loads the select turned away at a
    /// saturated L1D MSHR pool, strictly increasing, disjoint from
    /// `ready`. While the pool stays saturated a parked load would only
    /// repeat its blocked statistics, so the select credits them in bulk
    /// instead of visiting each; it releases every parked load back into
    /// `ready` once an MSHR frees. Squash truncates the list, so every
    /// entry is a live, source-ready load in the IQ. Unused under
    /// `CoreConfig::reference_scan`.
    pub(crate) parked: Vec<u64>,
    /// Instructions in the window with a memory response in flight
    /// (`DynInst::mem_outstanding`), maintained incrementally so issue's
    /// MSHR back-pressure check is O(1) instead of a window scan.
    pub(crate) mem_outstanding_count: usize,
}

impl Window {
    /// The ROB index holding `seq`, if it is in the window.
    ///
    /// Fetch numbers instructions one apart and squashes only cut the
    /// ROB's tail, so the ROB is strictly increasing in `seq`. Of the
    /// `gaps = back.seq - front.seq + 1 - len` numbers missing from it,
    /// some `g` are older than `seq`, which then sits at index
    /// `seq - front.seq - g`. The first probe takes `g = 0`, exact unless
    /// a squash left a gap older than `seq`. The second takes
    /// `g = gaps`, exact for every `seq` in the run of consecutive
    /// numbers that ends at the back. Only a `seq` between two gaps (or
    /// in one) misses both, and is binary-searched between the two
    /// probed slots.
    pub(crate) fn position(&self, seq: u64) -> Option<usize> {
        let front = self.rob.front()?.seq;
        let offset = usize::try_from(seq.checked_sub(front)?).ok()?;
        let holds = |i: usize| self.rob.get(i).is_some_and(|d| d.seq == seq);
        if holds(offset) {
            return Some(offset);
        }
        let back = self.rob.back()?.seq;
        if seq > back {
            return None;
        }
        // `seq <= back` keeps `offset - gaps` within the ROB.
        let gaps = usize::try_from(back - front).ok()? + 1 - self.rob.len();
        let mut lo = offset.saturating_sub(gaps);
        if holds(lo) {
            return Some(lo);
        }
        let mut hi = offset.min(self.rob.len());
        lo += 1;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.rob[mid].seq.cmp(&seq) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    pub(crate) fn inst_of(&self, seq: u64) -> &DynInst {
        &self.rob[self.position(seq).expect("seq in rob")]
    }

    pub(crate) fn inst_mut(&mut self, seq: u64) -> &mut DynInst {
        let i = self.position(seq).expect("seq in rob");
        &mut self.rob[i]
    }

    /// Non-panicking lookup, for lazily validating wakeup-network entries
    /// whose instruction may have been squashed or retired since enqueue.
    pub(crate) fn find(&self, seq: u64) -> Option<&DynInst> {
        self.position(seq).map(|i| &self.rob[i])
    }

    /// Adds `seq` to the ready queue, keeping it sorted and free of
    /// duplicates (a waiter listed twice under one register wakes twice).
    /// Dispatch enqueues the youngest instruction, so the common case is
    /// an append.
    pub(crate) fn enqueue_ready(&mut self, seq: u64) {
        match self.ready.last() {
            Some(&last) if last >= seq => {
                if let Err(at) = self.ready.binary_search(&seq) {
                    self.ready.insert(at, seq);
                }
            }
            _ => self.ready.push(seq),
        }
    }

    /// Moves every parked load back into the ready queue.
    pub(crate) fn release_parked(&mut self) {
        merge_sorted(&mut self.ready, &self.parked);
        self.parked.clear();
    }

    /// Parks the loads `seqs` (sorted, none already parked or ready).
    pub(crate) fn park(&mut self, seqs: &[u64]) {
        merge_sorted(&mut self.parked, seqs);
    }
}

/// Merges the sorted `src` into the sorted `dst` in place, back to front:
/// linear, and allocation-free once `dst` has the capacity. The two must
/// be disjoint; the result is strictly increasing.
fn merge_sorted(dst: &mut Vec<u64>, src: &[u64]) {
    let (mut i, mut j) = (dst.len(), src.len());
    dst.resize(i + j, 0);
    let mut k = dst.len();
    while j > 0 {
        k -= 1;
        if i > 0 && dst[i - 1] > src[j - 1] {
            i -= 1;
            dst[k] = dst[i];
        } else {
            j -= 1;
            dst[k] = src[j];
        }
    }
    debug_assert!(dst.windows(2).all(|p| p[0] < p[1]), "merged lists overlap");
}

/// The front-end instruction queue: fetched instructions in program order,
/// the oldest `decoded` of which decode has passed on to rename.
///
/// It holds both of the pipeline's front-end queues in one buffer — the
/// fetch queue is the undecoded tail, the decode queue the decoded head —
/// so an instruction is written once by fetch and moved once, by rename
/// into the ROB. Decode only moves the boundary.
#[derive(Debug, Default)]
pub(crate) struct FrontEndQueue {
    insts: VecDeque<DynInst>,
    decoded: usize,
}

impl FrontEndQueue {
    /// Occupancy of the fetch queue: fetched, not yet decoded.
    pub(crate) fn fetched_len(&self) -> usize {
        self.insts.len() - self.decoded
    }

    /// Occupancy of the decode queue: decoded, not yet renamed.
    pub(crate) fn decoded_len(&self) -> usize {
        self.decoded
    }

    /// Appends a fetched instruction, returning it for fetch to finish.
    pub(crate) fn push_fetched(&mut self, d: DynInst) -> &mut DynInst {
        self.insts.push_back(d);
        self.insts.back_mut().expect("just pushed")
    }

    /// The oldest undecoded instruction.
    pub(crate) fn next_fetched(&self) -> Option<&DynInst> {
        self.insts.get(self.decoded)
    }

    /// Moves the oldest undecoded instruction into the decode queue.
    pub(crate) fn decode_next(&mut self) {
        debug_assert!(self.decoded < self.insts.len(), "nothing to decode");
        self.decoded += 1;
    }

    /// The oldest decoded instruction: rename's next candidate.
    pub(crate) fn next_decoded(&self) -> Option<&DynInst> {
        self.insts.front().filter(|_| self.decoded > 0)
    }

    /// Takes the oldest decoded instruction out for rename.
    pub(crate) fn take_decoded(&mut self) -> Option<DynInst> {
        if self.decoded == 0 {
            return None;
        }
        self.decoded -= 1;
        self.insts.pop_front()
    }

    /// Drops every queued instruction (a squash), returning how many.
    pub(crate) fn clear(&mut self) -> usize {
        let n = self.insts.len();
        self.insts.clear();
        self.decoded = 0;
        n
    }
}

/// The branch-prediction machinery: tournament predictor, BTB and RAS,
/// plus the deterministic mistraining-noise source (§IV-G1) and the
/// `branchPred` statistics.
#[derive(Debug)]
pub struct Predictors {
    pub(crate) bp: TournamentPredictor,
    pub(crate) btb: Btb,
    pub(crate) ras: Ras,
    pub(crate) bp_noise_ppm: u32,
    pub(crate) noise_rng: u64,
    pub(crate) stats: BPredStats,
}

impl Predictors {
    pub(crate) fn new(cfg: &CoreConfig) -> Self {
        Self {
            bp: TournamentPredictor::new(
                cfg.local_predictor_size,
                cfg.global_predictor_size,
                cfg.choice_predictor_size,
            ),
            btb: Btb::new(cfg.btb_entries),
            ras: Ras::new(cfg.ras_entries),
            bp_noise_ppm: 0,
            noise_rng: 0x243f_6a88_85a3_08d3,
            stats: BPredStats::default(),
        }
    }

    /// Draws one noise decision: whether to flip the next conditional
    /// prediction (xorshift64*, deterministic per seed).
    pub(crate) fn noise_flip(&mut self) -> bool {
        if self.bp_noise_ppm == 0 {
            return false;
        }
        self.noise_rng ^= self.noise_rng << 13;
        self.noise_rng ^= self.noise_rng >> 7;
        self.noise_rng ^= self.noise_rng << 17;
        (self.noise_rng % 1_000_000) < self.bp_noise_ppm as u64
    }

    /// A predictor checkpoint capturing the current GHR alongside the
    /// caller's RAS coordinates, for squash recovery.
    pub(crate) fn checkpoint(&self, ras_tos: usize, ras_top: usize) -> PredCheckpoint {
        PredCheckpoint {
            ghr: self.bp.ghr(),
            ras_tos,
            ras_top,
            local_idx: 0,
            global_idx: 0,
            choice_idx: 0,
        }
    }
}

pub(crate) fn ctrl_kind(inst: Inst) -> Option<CtrlKind> {
    match inst {
        Inst::Branch { .. } => Some(CtrlKind::CondBranch),
        Inst::Jump { .. } => Some(CtrlKind::Jump),
        Inst::JumpInd { .. } => Some(CtrlKind::JumpIndirect),
        Inst::Call { .. } => Some(CtrlKind::Call),
        Inst::CallInd { .. } => Some(CtrlKind::CallIndirect),
        Inst::Ret => Some(CtrlKind::Return),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_lookup_agrees(w: &Window) {
        let front = w.rob.front().expect("non-empty").seq;
        let back = w.rob.back().expect("non-empty").seq;
        for seq in front.saturating_sub(2)..=back + 2 {
            let want = w.rob.binary_search_by_key(&seq, |d| d.seq).ok();
            assert_eq!(w.position(seq), want, "seq {seq}");
            assert_eq!(w.find(seq).map(|d| d.seq), want.map(|_| seq), "seq {seq}");
        }
    }

    #[test]
    fn position_agrees_with_binary_search_across_gaps_and_wrap() {
        let nop = |s| DynInst::new(s, 0, Inst::Nop);
        // Retiring a prefix and refilling wraps the deque's storage; the
        // refill follows post-squash gaps on both sides of the seam.
        let mut w = Window {
            rob: VecDeque::with_capacity(16),
            ..Window::default()
        };
        w.rob.extend((1..=12).map(nop));
        w.rob.drain(..9);
        w.rob.extend([13, 14, 20, 21, 22, 30, 41, 42].map(nop));
        let (head, tail) = w.rob.as_slices();
        assert!(!head.is_empty() && !tail.is_empty(), "the ROB must wrap");
        assert_lookup_agrees(&w);

        for seqs in [
            vec![5, 6, 7],
            vec![5, 9, 10, 11, 40],
            vec![100, 150, 151, 300],
            // Two or more gaps: the second probe hits the run at the back
            // (60..=64), misses between the gaps (20..=22, 40) and sends
            // those to the binary search.
            vec![10, 11, 20, 21, 22, 40, 60, 61, 62, 63, 64],
            vec![1, 3, 5, 7, 8, 9],
            vec![2, 4, 5, 9, 10, 30, 31, 32, 33],
        ] {
            let w = Window {
                rob: seqs.into_iter().map(nop).collect(),
                ..Window::default()
            };
            assert_lookup_agrees(&w);
        }
        assert_eq!(Window::default().position(1), None);
    }

    #[test]
    fn merge_sorted_interleaves_disjoint_runs() {
        for (dst, src, want) in [
            (vec![], vec![3, 5], vec![3, 5]),
            (vec![3, 5], vec![], vec![3, 5]),
            (vec![1, 4, 9], vec![2, 3, 10], vec![1, 2, 3, 4, 9, 10]),
            (vec![7, 8], vec![1, 2], vec![1, 2, 7, 8]),
            (vec![1, 2], vec![7, 8], vec![1, 2, 7, 8]),
        ] {
            let mut merged = dst.clone();
            merge_sorted(&mut merged, &src);
            assert_eq!(merged, want, "{dst:?} + {src:?}");
        }
    }
}

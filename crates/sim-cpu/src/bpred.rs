//! Branch prediction: tournament direction predictor, branch target buffer,
//! return address stack.
//!
//! Speculative state (global history, RAS top) is checkpointed per branch
//! and restored on squash, so mistraining the structures — the heart of the
//! Spectre family — behaves like real hardware.

/// Saved predictor state for one in-flight control instruction, restored on
/// squash.
#[derive(Debug, Clone, Copy, Default)]
pub struct PredCheckpoint {
    /// Global history register before this branch's speculative update.
    pub ghr: u64,
    /// RAS top-of-stack index before this instruction.
    pub ras_tos: usize,
    /// RAS entry value that `ras_tos` pointed at.
    pub ras_top: usize,
    /// Index into the local predictor used.
    pub local_idx: usize,
    /// Index into the global predictor used.
    pub global_idx: usize,
    /// Index into the choice predictor used.
    pub choice_idx: usize,
}

/// Tournament (local/global/chooser) conditional branch direction predictor.
#[derive(Debug)]
pub struct TournamentPredictor {
    local_hist: Vec<u16>,
    local_ctrs: Vec<u8>,
    global_ctrs: Vec<u8>,
    choice_ctrs: Vec<u8>,
    ghr: u64,
    local_hist_bits: u32,
}

impl TournamentPredictor {
    /// Creates a predictor with the given table sizes (each rounded to a
    /// power of two by the caller's choice of sizes).
    pub fn new(local_size: usize, global_size: usize, choice_size: usize) -> Self {
        Self {
            local_hist: vec![0; local_size],
            local_ctrs: vec![3; local_size], // 3-bit, weakly not-taken
            global_ctrs: vec![1; global_size],
            choice_ctrs: vec![1; choice_size],
            ghr: 0,
            local_hist_bits: (local_size.trailing_zeros()).min(10),
        }
    }

    /// Current global history register (checkpointed by callers).
    pub fn ghr(&self) -> u64 {
        self.ghr
    }

    /// Restores the global history register after a squash.
    pub fn restore_ghr(&mut self, ghr: u64) {
        self.ghr = ghr;
    }

    /// Predicts the direction of the conditional branch at `pc`, updating
    /// speculative history. Returns the prediction and the checkpoint the
    /// core stores with the instruction.
    pub fn predict(&mut self, pc: usize) -> (bool, PredCheckpoint) {
        let lsize = self.local_hist.len();
        let lh_idx = pc % lsize;
        let hist = (self.local_hist[lh_idx] as usize) & (lsize - 1);
        let local_idx = hist % self.local_ctrs.len();
        let local_taken = self.local_ctrs[local_idx] >= 4;

        let gsize = self.global_ctrs.len();
        let global_idx = ((self.ghr as usize) ^ pc) & (gsize - 1);
        let global_taken = self.global_ctrs[global_idx] >= 2;

        let csize = self.choice_ctrs.len();
        let choice_idx = (self.ghr as usize) & (csize - 1);
        let used_global = self.choice_ctrs[choice_idx] >= 2;

        let taken = if used_global {
            global_taken
        } else {
            local_taken
        };
        let cp = PredCheckpoint {
            ghr: self.ghr,
            ras_tos: 0,
            ras_top: 0,
            local_idx,
            global_idx,
            choice_idx,
        };
        // Speculatively update the global history.
        self.ghr = (self.ghr << 1) | taken as u64;
        (taken, cp)
    }

    /// Trains the tables with the resolved outcome.
    pub fn update(&mut self, pc: usize, taken: bool, predicted: bool, cp: &PredCheckpoint) {
        let local_correct = (self.local_ctrs[cp.local_idx] >= 4) == taken;
        let global_correct = (self.global_ctrs[cp.global_idx] >= 2) == taken;

        // Chooser trains toward whichever component was right.
        if local_correct != global_correct {
            let c = &mut self.choice_ctrs[cp.choice_idx];
            if global_correct {
                *c = (*c + 1).min(3);
            } else {
                *c = c.saturating_sub(1);
            }
        }

        let lc = &mut self.local_ctrs[cp.local_idx];
        if taken {
            *lc = (*lc + 1).min(7);
        } else {
            *lc = lc.saturating_sub(1);
        }
        let gc = &mut self.global_ctrs[cp.global_idx];
        if taken {
            *gc = (*gc + 1).min(3);
        } else {
            *gc = gc.saturating_sub(1);
        }

        // Update the local history with the true outcome.
        let lsize = self.local_hist.len();
        let lh_idx = pc % lsize;
        let mask = (1u16 << self.local_hist_bits) - 1;
        self.local_hist[lh_idx] = ((self.local_hist[lh_idx] << 1) | taken as u16) & mask;

        // Repair the speculative global history if the prediction was wrong:
        // the checkpointed value has the pre-branch history.
        if predicted != taken {
            self.ghr = (cp.ghr << 1) | taken as u64;
        }
    }
}

/// Direct-mapped branch target buffer.
#[derive(Debug)]
pub struct Btb {
    entries: Vec<Option<(usize, usize)>>, // (pc tag, target)
}

impl Btb {
    /// Creates a BTB with `size` entries.
    pub fn new(size: usize) -> Self {
        Self {
            entries: vec![None; size],
        }
    }

    /// Looks up the predicted target for `pc`.
    pub fn lookup(&self, pc: usize) -> Option<usize> {
        match self.entries[pc % self.entries.len()] {
            Some((tag, target)) if tag == pc => Some(target),
            _ => None,
        }
    }

    /// Installs or updates the target for `pc`.
    pub fn update(&mut self, pc: usize, target: usize) {
        let len = self.entries.len();
        self.entries[pc % len] = Some((pc, target));
    }
}

/// Fixed-depth return address stack with squash restore.
#[derive(Debug)]
pub struct Ras {
    stack: Vec<usize>,
    tos: usize,
}

impl Ras {
    /// Creates a RAS with `entries` slots.
    pub fn new(entries: usize) -> Self {
        Self {
            stack: vec![0; entries],
            tos: 0,
        }
    }

    /// Current top-of-stack index and value (for checkpoints).
    pub fn checkpoint(&self) -> (usize, usize) {
        (self.tos, self.stack[self.tos])
    }

    /// Restores a checkpoint taken before a squashed instruction.
    pub fn restore(&mut self, tos: usize, top: usize) {
        self.tos = tos;
        self.stack[self.tos] = top;
    }

    /// Pushes a return address (wrapping like real hardware, overwriting the
    /// oldest entry when full — the behavior SpectreRSB exploits).
    pub fn push(&mut self, ret_addr: usize) {
        self.tos = (self.tos + 1) % self.stack.len();
        self.stack[self.tos] = ret_addr;
    }

    /// Pops the predicted return address.
    pub fn pop(&mut self) -> usize {
        let v = self.stack[self.tos];
        self.tos = (self.tos + self.stack.len() - 1) % self.stack.len();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tournament_learns_always_taken() {
        let mut p = TournamentPredictor::new(256, 1024, 1024);
        let pc = 100;
        for _ in 0..16 {
            let (pred, cp) = p.predict(pc);
            p.update(pc, true, pred, &cp);
        }
        let (pred, _) = p.predict(pc);
        assert!(pred, "should have learned taken");
    }

    #[test]
    fn tournament_learns_alternating_via_local_history() {
        let mut p = TournamentPredictor::new(256, 1024, 1024);
        let pc = 7;
        let mut outcome = false;
        let mut correct = 0;
        for i in 0..200 {
            let (pred, cp) = p.predict(pc);
            if i >= 100 && pred == outcome {
                correct += 1;
            }
            p.update(pc, outcome, pred, &cp);
            outcome = !outcome;
        }
        assert!(
            correct > 80,
            "local history should capture alternation: {correct}/100"
        );
    }

    #[test]
    fn mistraining_then_flip_causes_mispredict() {
        // The SpectreV1 pattern: train taken, then the out-of-bounds access
        // goes the other way and the predictor follows its training.
        let mut p = TournamentPredictor::new(256, 1024, 1024);
        let pc = 40;
        for _ in 0..32 {
            let (pred, cp) = p.predict(pc);
            p.update(pc, true, pred, &cp);
        }
        let (pred, _) = p.predict(pc);
        assert!(pred, "mistrained predictor must predict taken");
    }

    #[test]
    fn btb_lookup_miss_then_hit() {
        let mut b = Btb::new(64);
        assert_eq!(b.lookup(5), None);
        b.update(5, 42);
        assert_eq!(b.lookup(5), Some(42));
        // Aliasing entry replaces.
        b.update(5 + 64, 99);
        assert_eq!(b.lookup(5), None);
        assert_eq!(b.lookup(5 + 64), Some(99));
    }

    #[test]
    fn ras_push_pop_round_trips() {
        let mut r = Ras::new(4);
        r.push(10);
        r.push(20);
        assert_eq!(r.pop(), 20);
        assert_eq!(r.pop(), 10);
    }

    #[test]
    fn ras_wraps_and_clobbers_oldest() {
        // Push 5 into a 4-deep stack: the oldest is clobbered — the
        // underflow/overflow behavior SpectreRSB leans on.
        let mut r = Ras::new(4);
        for v in 1..=5 {
            r.push(v * 100);
        }
        assert_eq!(r.pop(), 500);
        assert_eq!(r.pop(), 400);
        assert_eq!(r.pop(), 300);
        assert_eq!(r.pop(), 200);
        // Wrapped: does not return 100.
        assert_ne!(r.pop(), 100);
    }

    #[test]
    fn ras_restore_undoes_speculative_pop() {
        let mut r = Ras::new(4);
        r.push(111);
        let (tos, top) = r.checkpoint();
        assert_eq!(r.pop(), 111);
        r.restore(tos, top);
        assert_eq!(r.pop(), 111);
    }

    #[test]
    fn ghr_restore_repairs_wrong_path_history() {
        let mut p = TournamentPredictor::new(256, 1024, 1024);
        let before = p.ghr();
        let (pred, cp) = p.predict(123);
        assert_ne!(
            p.ghr(),
            before << 1 | (!pred as u64),
            "ghr speculatively updated"
        );
        p.restore_ghr(cp.ghr);
        assert_eq!(p.ghr(), before);
    }
}

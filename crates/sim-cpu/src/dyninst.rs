//! In-flight (dynamic) instruction state.

use uarch_isa::{Inst, OpClass, Reg};

use crate::bpred::PredCheckpoint;
use crate::decoded::DecodedInst;
use crate::stats::CtrlKind;

/// A dynamic instruction traveling through the pipeline.
///
/// Lives in the core's instruction window (the ROB) from rename to commit;
/// the fetch and decode queues hold partially-initialized entries.
#[derive(Debug, Clone)]
pub struct DynInst {
    /// Global sequence number (program order).
    pub seq: u64,
    /// Instruction index in the program.
    pub pc: usize,
    /// The static instruction.
    pub inst: Inst,
    /// Fall-through pc (`pc + 1`).
    pub fall_through: usize,

    // ---- decode (cached static properties; see [`crate::decoded`]) ----
    /// Op class of `inst`.
    pub class: OpClass,
    /// Functional-unit pool index for `class`.
    pub pool: usize,
    /// Control-flow kind, if this is a control instruction.
    pub ctrl_kind: Option<CtrlKind>,
    /// Any control-flow instruction.
    pub ctrl: bool,
    /// A load (backing flag for [`DynInst::is_load`]).
    pub load: bool,
    /// A store (backing flag for [`DynInst::is_store`]).
    pub store: bool,
    /// Rename must drain the window before dispatching this.
    pub serializing: bool,
    /// Static non-speculative flag (rename copies it into `non_spec`).
    pub non_speculative: bool,
    /// Destination architectural register, if written.
    pub arch_dest: Option<Reg>,
    /// Source architectural registers (up to two).
    pub arch_srcs: (Option<Reg>, Option<Reg>),

    // ---- rename ----
    /// Physical destination register, if any.
    pub dest_phys: Option<usize>,
    /// Previous mapping of the destination architectural register.
    pub old_phys: Option<usize>,
    /// Physical source registers.
    pub srcs: [Option<usize>; 2],

    // ---- pipeline state ----
    /// Waiting in the instruction queue.
    pub in_iq: bool,
    /// Sent to a functional unit.
    pub issued: bool,
    /// Result produced / control resolved.
    pub executed: bool,
    /// Cycle at which the result becomes available.
    pub ready_cycle: u64,
    /// Squashed on a wrong path.
    pub squashed: bool,
    /// Must wait for commit's signal before executing.
    pub non_spec: bool,
    /// Commit has authorized a non-speculative execution.
    pub can_exec_non_spec: bool,
    /// Computed result value (destination register or store data).
    pub result: u64,

    // ---- control flow ----
    /// Predicted taken at fetch.
    pub predicted_taken: bool,
    /// Predicted next pc.
    pub predicted_target: usize,
    /// Resolved next pc (set at rename for returns, at execute otherwise).
    pub actual_target: usize,
    /// Resolved direction.
    pub actual_taken: bool,
    /// The prediction was wrong (set at execute).
    pub mispredicted: bool,
    /// Predictor state checkpoint for squash recovery.
    pub checkpoint: PredCheckpoint,

    // ---- memory ----
    /// Effective address once computed.
    pub eff_addr: Option<u64>,
    /// Access size in bytes.
    pub mem_size: u64,
    /// A memory response is still in flight.
    pub mem_outstanding: bool,
    /// The access faulted (privilege violation — delivered at commit).
    pub fault: bool,
    /// The load was satisfied by store-to-load forwarding.
    pub forwarded: bool,
    /// Oldest store sequence number that contributed forwarded bytes, set
    /// only when every loaded byte came from the store queue. Violation
    /// checks use this: a store resolving later squashes the load unless
    /// all of the load's bytes provably came from younger stores.
    pub fwd_youngest_seq: Option<u64>,
    /// Cycle this instruction was fetched.
    pub fetch_cycle: u64,
    /// Cycle this instruction was dispatched into the window.
    pub dispatch_cycle: u64,
    /// Cycle this instruction issued.
    pub issue_cycle: u64,
}

impl DynInst {
    /// Creates a fresh dynamic instruction, decoding `inst` on the spot
    /// (the fetch stage uses [`DynInst::from_decoded`] instead).
    #[cfg(test)]
    pub fn new(seq: u64, pc: usize, inst: Inst) -> Self {
        Self::from_decoded(seq, pc, &DecodedInst::decode(inst))
    }

    /// Creates a fresh dynamic instruction from a pre-decoded entry,
    /// copying the cached static properties instead of re-deriving them.
    pub fn from_decoded(seq: u64, pc: usize, dec: &DecodedInst) -> Self {
        Self {
            seq,
            pc,
            inst: dec.inst,
            fall_through: pc + 1,
            class: dec.class,
            pool: dec.pool,
            ctrl_kind: dec.ctrl_kind,
            ctrl: dec.ctrl,
            load: dec.load,
            store: dec.store,
            serializing: dec.serializing,
            non_speculative: dec.non_speculative,
            arch_dest: dec.dest,
            arch_srcs: dec.sources,
            dest_phys: None,
            old_phys: None,
            srcs: [None, None],
            in_iq: false,
            issued: false,
            executed: false,
            ready_cycle: u64::MAX,
            squashed: false,
            non_spec: false,
            can_exec_non_spec: false,
            result: 0,
            predicted_taken: false,
            predicted_target: pc + 1,
            actual_target: pc + 1,
            actual_taken: false,
            mispredicted: false,
            checkpoint: PredCheckpoint::default(),
            eff_addr: None,
            mem_size: 0,
            mem_outstanding: false,
            fault: false,
            forwarded: false,
            fwd_youngest_seq: None,
            fetch_cycle: 0,
            dispatch_cycle: 0,
            issue_cycle: 0,
        }
    }

    /// Whether this is a load.
    pub fn is_load(&self) -> bool {
        self.load
    }

    /// Whether this is a store.
    pub fn is_store(&self) -> bool {
        self.store
    }

    /// Whether this is a control-flow instruction.
    pub fn is_ctrl(&self) -> bool {
        self.ctrl
    }
}

//! The core's gem5-style statistics inventory.
//!
//! Every pipeline stage owns a stat group; the paper's Table I feature names
//! (`fetch.SquashCycles`, `rename.UndoneMaps`, `iq.fu_full::IntAlu`,
//! `commit.NonSpecStalls`, `branchPred.RASInCorrect`, ...) map one-to-one
//! onto fields here.

use uarch_isa::OpClass;
use uarch_stats::{stat_group, Counter, Distribution, Scalar, StatKey, VectorStat};

/// Control-flow instruction kinds (for per-kind predictor and commit
/// statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum CtrlKind {
    CondBranch,
    Jump,
    JumpIndirect,
    Call,
    CallIndirect,
    Return,
}

impl CtrlKind {
    /// All control kinds in stat order.
    pub const ALL: [CtrlKind; 6] = [
        CtrlKind::CondBranch,
        CtrlKind::Jump,
        CtrlKind::JumpIndirect,
        CtrlKind::Call,
        CtrlKind::CallIndirect,
        CtrlKind::Return,
    ];
}

impl StatKey for CtrlKind {
    const COUNT: usize = 6;

    fn index(self) -> usize {
        CtrlKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind in ALL")
    }

    fn label(i: usize) -> &'static str {
        [
            "CondBranch",
            "Jump",
            "JumpIndirect",
            "Call",
            "CallIndirect",
            "Return",
        ][i]
    }
}

stat_group! {
    /// Per-stage energy accounting (the paper examines "features related to
    /// energy consumption in different microarchitectural units").
    pub struct StageEnergy {
        /// Dynamic energy accumulated from per-instruction activity (pJ).
        pub dynamic_energy: Scalar => "dynamicEnergy",
        /// Static (leakage) energy accumulated per active cycle (pJ).
        pub static_energy: Scalar => "staticEnergy",
    }
}

stat_group! {
    /// Fetch stage statistics.
    pub struct FetchStats {
        /// Instructions fetched.
        pub insts: Counter => "Insts",
        /// Cycles fetch ran.
        pub cycles: Counter => "Cycles",
        /// Control instructions fetched.
        pub branches: Counter => "Branches",
        /// Branches predicted taken at fetch.
        pub predicted_branches: Counter => "predictedBranches",
        /// Cycles fetch spent squashing.
        pub squash_cycles: Counter => "SquashCycles",
        /// Cycles fetch waited on an I-cache miss.
        pub icache_stall_cycles: Counter => "IcacheStallCycles",
        /// I-cache misses whose response arrived after the fetch was
        /// squashed.
        pub icache_squashes: Counter => "IcacheSquashes",
        /// Cycles fetch was blocked by a full downstream queue.
        pub blocked_cycles: Counter => "BlockedCycles",
        /// Cycles fetch stalled for miscellaneous reasons.
        pub misc_stall_cycles: Counter => "MiscStallCycles",
        /// Cycles fetch stalled behind a pending quiesce (memory barrier in
        /// flight).
        pub pending_quiesce_stall_cycles: Counter => "PendingQuiesceStallCycles",
        /// Cycles fetch stalled behind a pending trap.
        pub pending_trap_stall_cycles: Counter => "PendingTrapStallCycles",
        /// Cycles fetch had drained and waited on a serializing instruction.
        pub pending_drain_cycles: Counter => "PendingDrainCycles",
        /// Cache lines fetched.
        pub cache_lines: Counter => "CacheLines",
        /// Cycles with no fetch activity at all.
        pub idle_cycles: Counter => "IdleCycles",
        /// Distribution of instructions fetched per cycle.
        pub nisn_dist: Distribution = (0.0, 9.0, 9) => "rateDist",
        /// Fetched control instructions per kind.
        pub branch_kind: VectorStat<CtrlKind> => "branchDist",
        /// Fetch-queue occupancy, sampled per cycle.
        pub queue_occupancy: Distribution = (0.0, 32.0, 8) => "queueOccupancy",
        /// Energy accounting.
        pub power: StageEnergy => "power",
    }
}

stat_group! {
    /// Decode stage statistics.
    pub struct DecodeStats {
        /// Instructions decoded.
        pub decoded_insts: Counter => "DecodedInsts",
        /// Cycles decode ran.
        pub run_cycles: Counter => "RunCycles",
        /// Idle cycles.
        pub idle_cycles: Counter => "IdleCycles",
        /// Cycles decode was blocked downstream.
        pub blocked_cycles: Counter => "BlockedCycles",
        /// Cycles decode spent squashing.
        pub squash_cycles: Counter => "SquashCycles",
        /// Branches whose target decode resolved early.
        pub branch_resolved: Counter => "BranchResolved",
        /// Branch mispredictions detected at decode.
        pub branch_mispred: Counter => "BranchMispred",
        /// Instructions dropped because they were squashed.
        pub squashed_insts: Counter => "SquashedInsts",
        /// Decode-queue occupancy, sampled per cycle.
        pub queue_occupancy: Distribution = (0.0, 32.0, 8) => "queueOccupancy",
        /// Energy accounting.
        pub power: StageEnergy => "power",
    }
}

stat_group! {
    /// Rename stage statistics.
    pub struct RenameStats {
        /// Instructions renamed.
        pub renamed_insts: Counter => "RenamedInsts",
        /// Destination operands renamed (new mappings).
        pub renamed_operands: Counter => "RenamedOperands",
        /// Source operand lookups.
        pub rename_lookups: Counter => "RenameLookups",
        /// Cycles rename ran.
        pub run_cycles: Counter => "RunCycles",
        /// Idle cycles.
        pub idle_cycles: Counter => "IdleCycles",
        /// Cycles rename spent squashing.
        pub squash_cycles: Counter => "SquashCycles",
        /// Cycles rename was blocked on resources.
        pub block_cycles: Counter => "BlockCycles",
        /// Cycles rename was unblocking.
        pub unblock_cycles: Counter => "UnblockCycles",
        /// Stalls due to a full reorder buffer.
        pub rob_full_events: Counter => "ROBFullEvents",
        /// Stalls due to a full instruction queue.
        pub iq_full_events: Counter => "IQFullEvents",
        /// Stalls due to a full load queue.
        pub lq_full_events: Counter => "LQFullEvents",
        /// Stalls due to a full store queue.
        pub sq_full_events: Counter => "SQFullEvents",
        /// Stalls due to exhausted physical registers.
        pub full_registers_events: Counter => "FullRegistersEvents",
        /// Mappings undone by squashes.
        pub undone_maps: Counter => "UndoneMaps",
        /// Mappings retired at commit.
        pub committed_maps: Counter => "CommittedMaps",
        /// Serializing instructions handled.
        pub serializing_insts: Counter => "serializingInsts",
        /// Instructions marked temporarily serializing.
        pub temp_serializing_insts: Counter => "tempSerializingInsts",
        /// Cycles rename stalled to serialize.
        pub serialize_stall_cycles: Counter => "serializeStallCycles",
        /// Energy accounting.
        pub power: StageEnergy => "power",
    }
}

stat_group! {
    /// Instruction queue statistics.
    pub struct IqStats {
        /// Instructions added.
        pub insts_added: Counter => "iqInstsAdded",
        /// Non-speculative instructions added.
        pub non_spec_insts_added: Counter => "NonSpecInstsAdded",
        /// Instructions issued.
        pub insts_issued: Counter => "iqInstsIssued",
        /// Squashed instructions issued before the squash arrived.
        pub squashed_insts_issued: Counter => "iqSquashedInstsIssued",
        /// Squashed instructions examined during squash walks.
        pub squashed_insts_examined: Counter => "SquashedInstsExamined",
        /// Squashed operands examined during squash walks.
        pub squashed_operands_examined: Counter => "SquashedOperandsExamined",
        /// Squashed non-speculative instructions removed.
        pub squashed_non_spec_removed: Counter => "SquashedNonSpecRemoved",
        /// Issue attempts rejected because the functional unit was busy.
        pub fu_full: VectorStat<OpClass> => "fu_full",
        /// Instructions issued per op class.
        pub issued_inst_type: VectorStat<OpClass> => "statIssuedInstType_0",
        /// Cycles with no issue.
        pub empty_issue_cycles: Counter => "emptyIssueCycles",
        /// Full events.
        pub full_events: Counter => "iqFullEvents",
        /// Distribution of instructions issued per cycle.
        pub issued_per_cycle: Distribution = (0.0, 9.0, 9) => "issued_per_cycle",
        /// IQ occupancy distribution (sampled per cycle).
        pub occupancy: Distribution = (0.0, 64.0, 8) => "occupancy",
        /// Instructions whose execution completed, per op class.
        pub executed_class: VectorStat<OpClass> => "statExecutedInstType_0",
        /// Issues that consumed the last free unit of a pool.
        pub fu_busy: VectorStat<OpClass> => "fuBusy",
        /// Dispatch-to-issue delay distribution.
        pub issue_delay: Distribution = (0.0, 64.0, 8) => "issueDelay",
        /// Energy accounting.
        pub power: StageEnergy => "power",
    }
}

stat_group! {
    /// Load/store queue statistics (per thread in gem5; one thread here).
    pub struct LsqStats {
        /// Loads forwarded from an older store in the queue.
        pub forw_loads: Counter => "forwLoads",
        /// Loads squashed.
        pub squashed_loads: Counter => "squashedLoads",
        /// Stores squashed.
        pub squashed_stores: Counter => "squashedStores",
        /// Memory responses that arrived for already-squashed loads.
        pub ignored_responses: Counter => "ignoredResponses",
        /// Loads replayed because the cache or an address was not ready.
        pub rescheduled_loads: Counter => "rescheduledLoads",
        /// Loads blocked by a blocked cache.
        pub blocked_loads: Counter => "blockedLoads",
        /// Times the cache refused a request.
        pub cache_blocked: Counter => "cacheBlocked",
        /// Memory order violations detected.
        pub mem_order_violation: Counter => "memOrderViolation",
        /// Loads inserted.
        pub inserted_loads: Counter => "insertedLoads",
        /// Stores inserted.
        pub inserted_stores: Counter => "insertedStores",
        /// Load queue occupancy distribution.
        pub lq_occupancy: Distribution = (0.0, 32.0, 8) => "lqOccupancy",
        /// Store queue occupancy distribution.
        pub sq_occupancy: Distribution = (0.0, 32.0, 8) => "sqOccupancy",
        /// Load-to-use latency distribution.
        pub load_latency: Distribution = (0.0, 400.0, 8) => "loadToUse",
        /// Distance (in sequence numbers) between forwarding store and load.
        pub forw_distance: Distribution = (0.0, 64.0, 8) => "forwDistance",
        /// Store dispatch-to-commit lifetime distribution.
        pub store_lifetime: Distribution = (0.0, 256.0, 8) => "storeLifetime",
    }
}

stat_group! {
    /// Memory dependence unit statistics.
    pub struct MemDepStats {
        /// Loads that conflicted with an older store.
        pub conflicting_loads: Counter => "conflictingLoads",
        /// Stores that conflicted with a younger executed load.
        pub conflicting_stores: Counter => "conflictingStores",
        /// Dependence-unit lookups.
        pub lookups: Counter => "lookups",
        /// Loads inserted into the dependence unit.
        pub inserted_loads: Counter => "insertedLoads",
        /// Stores inserted into the dependence unit.
        pub inserted_stores: Counter => "insertedStores",
    }
}

stat_group! {
    /// Issue/execute/writeback stage statistics.
    pub struct IewStats {
        /// Cycles IEW spent squashing.
        pub squash_cycles: Counter => "SquashCycles",
        /// Cycles IEW was blocked.
        pub block_cycles: Counter => "BlockCycles",
        /// Idle cycles.
        pub idle_cycles: Counter => "IdleCycles",
        /// Cycles IEW was unblocking.
        pub unblock_cycles: Counter => "UnblockCycles",
        /// Instructions dispatched.
        pub dispatched_insts: Counter => "iewDispatchedInsts",
        /// Squashed instructions dispatched.
        pub disp_squashed_insts: Counter => "iewDispSquashedInsts",
        /// Load instructions dispatched.
        pub disp_load_insts: Counter => "iewDispLoadInsts",
        /// Store instructions dispatched.
        pub disp_store_insts: Counter => "iewDispStoreInsts",
        /// Non-speculative instructions dispatched.
        pub disp_non_spec_insts: Counter => "iewDispNonSpecInsts",
        /// Instructions executed.
        pub executed_insts: Counter => "iewExecutedInsts",
        /// Loads executed.
        pub executed_load_insts: Counter => "iewExecLoadInsts",
        /// Squashed instructions executed.
        pub exec_squashed_insts: Counter => "iewExecSquashedInsts",
        /// Branches executed.
        pub exec_branches: Counter => "exec_branches",
        /// Branch mispredictions detected at execute.
        pub branch_mispredicts: Counter => "branchMispredicts",
        /// Predicted-taken branches that were actually not taken.
        pub predicted_taken_incorrect: Counter => "predictedTakenIncorrect",
        /// Predicted-not-taken branches that were actually taken.
        pub predicted_not_taken_incorrect: Counter => "predictedNotTakenIncorrect",
        /// Memory order violation squashes.
        pub mem_order_violation_events: Counter => "memOrderViolationEvents",
        /// Load/store queue statistics.
        pub lsq: LsqStats => "lsq.thread0",
        /// Memory dependence unit statistics.
        pub mem_dep: MemDepStats => "memDep",
        /// Flush (`clflush`) execution latency distribution.
        pub flush_latency: Distribution = (0.0, 120.0, 8) => "flushLatency",
        /// Branch fetch-to-resolution delay distribution.
        pub resolution_delay: Distribution = (0.0, 128.0, 8) => "branchResolutionDelay",
        /// Energy accounting.
        pub power: StageEnergy => "power",
    }
}

stat_group! {
    /// Commit stage statistics.
    pub struct CommitStats {
        /// Instructions committed.
        pub committed_insts: Counter => "committedInsts",
        /// Micro-ops committed (same as instructions here).
        pub committed_ops: Counter => "committedOps",
        /// Instructions squashed at commit.
        pub squashed_insts: Counter => "SquashedInsts",
        /// Cycles the ROB head held a non-speculative instruction waiting to
        /// execute.
        pub non_spec_stalls: Counter => "NonSpecStalls",
        /// Branches committed.
        pub branches: Counter => "branches",
        /// Branch mispredictions that reached commit.
        pub branch_mispredicts: Counter => "branchMispredicts",
        /// Loads committed.
        pub loads: Counter => "loads",
        /// Memory references committed.
        pub refs: Counter => "refs",
        /// Memory barriers committed.
        pub membars: Counter => "membars",
        /// Stores committed.
        pub committed_stores: Counter => "stores",
        /// Function calls committed.
        pub function_calls: Counter => "functionCalls",
        /// Integer instructions committed.
        pub int_insts: Counter => "int_insts",
        /// Floating-point instructions committed.
        pub fp_insts: Counter => "fp_insts",
        /// Faults delivered at commit.
        pub faults: Counter => "faults",
        /// Committed op-class distribution.
        pub op_class: VectorStat<OpClass> => "op_class_0",
        /// Distribution of instructions committed per cycle.
        pub committed_per_cycle: Distribution = (0.0, 9.0, 9) => "committed_per_cycle",
        /// Cycles commit was idle (nothing to commit).
        pub idle_cycles: Counter => "IdleCycles",
        /// Committed control instructions per kind.
        pub control_kind: VectorStat<CtrlKind> => "controlDist",
        /// Dispatch-to-commit latency distribution.
        pub commit_latency: Distribution = (0.0, 256.0, 8) => "commitLatency",
        /// Energy accounting.
        pub power: StageEnergy => "power",
    }
}

stat_group! {
    /// Reorder buffer statistics.
    pub struct RobStats {
        /// ROB reads.
        pub reads: Counter => "rob_reads",
        /// ROB writes.
        pub writes: Counter => "rob_writes",
        /// ROB occupancy distribution (sampled per cycle).
        pub occupancy: Distribution = (0.0, 192.0, 8) => "occupancy",
        /// Age (cycles since dispatch) of the ROB head, sampled per cycle.
        pub head_age: Distribution = (0.0, 256.0, 8) => "headAge",
    }
}

stat_group! {
    /// Branch predictor statistics.
    pub struct BPredStats {
        /// Predictor lookups.
        pub lookups: Counter => "lookups",
        /// Conditional branches predicted.
        pub cond_predicted: Counter => "condPredicted",
        /// Conditional branches mispredicted.
        pub cond_incorrect: Counter => "condIncorrect",
        /// BTB lookups.
        pub btb_lookups: Counter => "BTBLookups",
        /// BTB hits.
        pub btb_hits: Counter => "BTBHits",
        /// RAS predictions used.
        pub ras_used: Counter => "RASUsed",
        /// RAS mispredictions.
        pub ras_incorrect: Counter => "RASInCorrect",
        /// Indirect-target lookups.
        pub indirect_lookups: Counter => "indirectLookups",
        /// Indirect-target hits.
        pub indirect_hits: Counter => "indirectHits",
        /// Indirect-target mispredictions.
        pub indirect_mispredicted: Counter => "indirectMispredicted",
        /// Predictor table updates.
        pub updates: Counter => "condUpdated",
        /// Lookups per control kind.
        pub lookup_kind: VectorStat<CtrlKind> => "lookupDist",
    }
}

stat_group! {
    /// TLB statistics (gem5 `dtb` / `itb`).
    pub struct TlbStats {
        /// Read accesses.
        pub rd_accesses: Counter => "rdAccesses",
        /// Write accesses.
        pub wr_accesses: Counter => "wrAccesses",
        /// Read misses.
        pub rd_misses: Counter => "rdMisses",
        /// Write misses.
        pub wr_misses: Counter => "wrMisses",
        /// Read hits.
        pub rd_hits: Counter => "rdHits",
        /// Write hits.
        pub wr_hits: Counter => "wrHits",
        /// Cycles spent walking the page table on misses.
        pub walk_cycles: Counter => "walkCycles",
    }
}

stat_group! {
    /// Top-level CPU statistics.
    pub struct CpuStats {
        /// Cycles simulated.
        pub num_cycles: Counter => "numCycles",
        /// Integer register file reads.
        pub int_regfile_reads: Counter => "int_regfile_reads",
        /// Integer register file writes.
        pub int_regfile_writes: Counter => "int_regfile_writes",
        /// Float register file reads.
        pub fp_regfile_reads: Counter => "fp_regfile_reads",
        /// Float register file writes.
        pub fp_regfile_writes: Counter => "fp_regfile_writes",
        /// Integer ALU accesses.
        pub int_alu_accesses: Counter => "int_alu_accesses",
        /// FP ALU accesses.
        pub fp_alu_accesses: Counter => "fp_alu_accesses",
        /// Cycles quiesced.
        pub quiesce_cycles: Counter => "quiesceCycles",
        /// Squash events of any kind.
        pub squash_events: Counter => "squashEvents",
        /// Traps taken.
        pub traps: Counter => "traps",
        /// Miscellaneous register reads (cycle counter and friends).
        pub misc_regfile_reads: Counter => "misc_regfile_reads",
        /// Miscellaneous register writes.
        pub misc_regfile_writes: Counter => "misc_regfile_writes",
        /// Cycles with an empty instruction window.
        pub idle_cycles: Counter => "idleCycles",
        /// Cycles with at least one instruction in flight.
        pub busy_cycles: Counter => "busyCycles",
        /// Load instructions fetched.
        pub num_load_insts: Counter => "numLoadInsts",
        /// Store instructions fetched.
        pub num_store_insts: Counter => "numStoreInsts",
        /// Branch instructions fetched.
        pub num_branches: Counter => "numBranches",
        /// Fetch suspensions (halt or end of program reached).
        pub num_fetch_suspends: Counter => "numFetchSuspends",
    }
}

/// Consistency invariants every snapshot of a [`Core`](crate::Core)
/// (taken with an empty prefix) must satisfy.
///
/// These are the relations the counters encode by construction: a committed
/// instruction was fetched, a TLB access either hit or missed, cycle
/// counters only grow. The `uarch-analysis` crate checks them after runs;
/// violations mean a stat was double-counted, dropped, or updated in the
/// wrong place.
pub fn stat_invariants() -> Vec<uarch_stats::StatInvariant> {
    use uarch_stats::StatInvariant as I;
    vec![
        // The pipeline can only commit what it fetched.
        I::le(
            "committed-le-fetched",
            "commit.committedInsts",
            "fetch.Insts",
        ),
        I::le("decoded-le-fetched", "decode.DecodedInsts", "fetch.Insts"),
        I::le(
            "renamed-le-decoded",
            "rename.RenamedInsts",
            "decode.DecodedInsts",
        ),
        I::le(
            "committed-le-renamed",
            "commit.committedInsts",
            "rename.RenamedInsts",
        ),
        // Committed sub-categories are bounded by total commits.
        I::le(
            "branches-le-committed",
            "commit.branches",
            "commit.committedInsts",
        ),
        I::le(
            "membars-le-committed",
            "commit.membars",
            "commit.committedInsts",
        ),
        I::le("loads-le-refs", "commit.loads", "commit.refs"),
        I::le("refs-le-committed", "commit.refs", "commit.committedInsts"),
        I::le(
            "mispredicts-le-branches",
            "commit.branchMispredicts",
            "commit.branches",
        ),
        // TLB hit/miss accounting must tile the accesses exactly.
        I::sum_eq(
            "dtb-read-tiling",
            &["dtb.rdHits", "dtb.rdMisses"],
            "dtb.rdAccesses",
        ),
        I::sum_eq(
            "dtb-write-tiling",
            &["dtb.wrHits", "dtb.wrMisses"],
            "dtb.wrAccesses",
        ),
        I::sum_eq(
            "itb-read-tiling",
            &["itb.rdHits", "itb.rdMisses"],
            "itb.rdAccesses",
        ),
        // Predictor hit counters are bounded by their lookup counters.
        I::le(
            "cond-incorrect-le-predicted",
            "branchPred.condIncorrect",
            "branchPred.condPredicted",
        ),
        I::le(
            "btb-hits-le-lookups",
            "branchPred.BTBHits",
            "branchPred.BTBLookups",
        ),
        I::le(
            "indirect-hits-le-lookups",
            "branchPred.indirectHits",
            "branchPred.indirectLookups",
        ),
        // Progress counters never move backwards between samples.
        I::monotonic("cycles-monotone", "numCycles"),
        I::monotonic("fetched-monotone", "fetch.Insts"),
        I::monotonic("committed-monotone", "commit.committedInsts"),
        I::monotonic("faults-monotone", "commit.faults"),
    ]
}

#[cfg(test)]
mod tests {
    use uarch_stats::Snapshot;

    /// Snapshots a freshly built machine (the stage components now own the
    /// stat groups, so the full core is the only place all of them meet).
    fn machine_snapshot() -> Snapshot {
        let mut a = uarch_isa::Assembler::new("census");
        a.halt();
        let machine = crate::Machine::single_core(
            &crate::CoreConfig::default(),
            a.finish().expect("assembles"),
        );
        Snapshot::of(&machine, "")
    }

    #[test]
    fn paper_table_i_names_all_exist() {
        let snap = machine_snapshot();
        for name in [
            "commit.SquashedInsts",
            "lsq.squashedStores",
            "iew.memOrderViolationEvents",
            "fetch.SquashCycles",
            "iew.lsq.thread0.forwLoads",
            "decode.SquashCycles",
            "iq.SquashedInstsExamined",
            "lsq.squashedLoads",
            "iew.SquashCycles",
            "iew.BlockCycles",
            "memDep.conflictingStores",
            "dtb.rdMisses",
            "dtlb.rdMisses",
            "iq.SquashedNonSpecRemoved",
            "rename.SquashCycles",
            "memDep.conflictingLoads",
            "rename.UndoneMaps",
            "fetch.IcacheSquashes",
            "iq.SquashedOperandsExamined",
            "commit.NonSpecStalls",
            "rename.serializingInsts",
            "commit.membars",
            "rename.serializeStallCycles",
            "iq.NonSpecInstsAdded",
            "branchPred.condIncorrect",
            "commit.op_class_0::No_OpClass",
            "iew.iewExecSquashedInsts",
            "iew.lsq.thread0.ignoredResponses",
            "iq.iqSquashedInstsIssued",
            "iew.iewDispSquashedInsts",
            "branchPred.RASInCorrect",
            "iq.fu_full::FloatMemWrite",
            "commit.op_class_0::FloatAdd",
            "fetch.PendingQuiesceStallCycles",
            "iew.lsq.thread0.rescheduledLoads",
            "commit.branchMispredicts",
            "branchPred.indirectMispredicted",
            "commit.op_class_0::SimdCvt",
            "iq.fu_full::IntAlu",
            "iew.branchMispredicts",
            "iew.predictedNotTakenIncorrect",
            "iq.fu_full::FloatMemWrite",
            "iq.fu_full::MemRead",
            "fetch.MiscStallCycles",
            "fetch.PendingTrapStallCycles",
            "rename.CommittedMaps",
            "rename.tempSerializingInsts",
            "rename.LQFullEvents",
        ] {
            assert!(snap.get(name).is_some(), "missing stat {name}");
        }
    }

    #[test]
    fn core_stats_count_is_substantial() {
        let snap = machine_snapshot();
        assert!(
            snap.len() > 250,
            "expected a rich stat space, got {}",
            snap.len()
        );
    }
}

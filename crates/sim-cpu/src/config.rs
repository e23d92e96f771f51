//! Core configuration (the paper's Table II).

use crate::error::SimError;

/// Out-of-order core parameters.
///
/// Defaults reproduce the simulated architecture of the paper's Table II:
/// an 8-wide X86-style O3 core at 2 GHz with a tournament branch predictor,
/// 16 RAS entries, 4096 BTB entries, 32-entry load and store queues, a
/// 192-entry ROB and 256 physical integer/float registers.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions decoded per cycle.
    pub decode_width: usize,
    /// Instructions renamed/dispatched per cycle.
    pub rename_width: usize,
    /// Instructions issued per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder buffer entries.
    pub rob_entries: usize,
    /// Instruction queue entries.
    pub iq_entries: usize,
    /// Load queue entries.
    pub lq_entries: usize,
    /// Store queue entries.
    pub sq_entries: usize,
    /// Physical integer registers.
    pub phys_int_regs: usize,
    /// Physical float registers (bookkeeping only; the pool is shared).
    pub phys_float_regs: usize,
    /// Fetch→decode buffer depth.
    pub fetch_queue: usize,
    /// Decode→rename buffer depth.
    pub decode_queue: usize,
    /// Return address stack entries.
    pub ras_entries: usize,
    /// Branch target buffer entries.
    pub btb_entries: usize,
    /// Local predictor entries.
    pub local_predictor_size: usize,
    /// Global predictor entries.
    pub global_predictor_size: usize,
    /// Choice predictor entries.
    pub choice_predictor_size: usize,
    /// Integer ALU units.
    pub int_alu_units: usize,
    /// Integer multiply/divide units.
    pub int_mult_units: usize,
    /// Floating-point units.
    pub fp_units: usize,
    /// SIMD units.
    pub simd_units: usize,
    /// Data cache ports (loads+stores issued per cycle).
    pub mem_ports: usize,
    /// Byte address where the code image notionally lives (for I-cache
    /// indexing).
    pub icode_base: u64,
    /// Notional bytes per instruction (I-cache line ÷ this = insts/line).
    pub inst_bytes: u64,
    /// Cycles a committed trap holds fetch (PendingTrapStallCycles).
    pub trap_latency: u64,
    /// Cycles between a faulting instruction reaching the head of the ROB
    /// and the exception being recognized (the Meltdown speculation window:
    /// dependents keep executing during this delay).
    pub fault_recognition_delay: u64,
    /// Extra fetch-redirect penalty after a squash.
    pub squash_penalty: u64,
    /// Cycles a memory barrier takes to drain at the head of the ROB.
    pub membar_drain: u64,
    /// D-TLB entries.
    pub dtlb_entries: usize,
    /// I-TLB entries.
    pub itlb_entries: usize,
    /// Use the original full-window issue scan and completion scan instead
    /// of the ready-queue/event-driven fast path. The two are bit-identical
    /// in every statistic; this flag exists so equivalence tests and the
    /// hot-loop bench can run both in one build. Defaults to `false` (fast
    /// path).
    pub reference_scan: bool,
    /// Skip ahead over cycles in which every stage is provably stalled
    /// (e.g. the whole window waiting on a DRAM fill), crediting the same
    /// per-cycle stall statistics the stages would have recorded. Only
    /// effective on the fast path (`reference_scan = false`).
    pub tick_skip: bool,
    /// Watchdog: total simulated cycles this core may ever run. When the
    /// machine clock reaches the tightest budget of its cores,
    /// [`Machine::run`](crate::Machine::run) stops stepping and
    /// [`Machine::run_with_sink`](crate::Machine::run_with_sink)
    /// reports [`SimError::CycleBudgetExceeded`] — the escape hatch for
    /// runaway or deadlocked workloads in supervised corpus collection.
    /// `None` (the default) leaves the run loop untouched, preserving
    /// bit-identical behavior.
    pub cycle_budget: Option<u64>,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            fetch_width: 8,
            decode_width: 8,
            rename_width: 8,
            issue_width: 8,
            commit_width: 8,
            rob_entries: 192,
            iq_entries: 64,
            lq_entries: 32,
            sq_entries: 32,
            phys_int_regs: 256,
            phys_float_regs: 256,
            fetch_queue: 32,
            decode_queue: 32,
            ras_entries: 16,
            btb_entries: 4096,
            local_predictor_size: 2048,
            global_predictor_size: 8192,
            choice_predictor_size: 8192,
            int_alu_units: 6,
            int_mult_units: 2,
            fp_units: 4,
            simd_units: 4,
            mem_ports: 4,
            icode_base: 0x40_0000,
            inst_bytes: 4,
            trap_latency: 30,
            fault_recognition_delay: 10,
            squash_penalty: 2,
            membar_drain: 4,
            dtlb_entries: 64,
            itlb_entries: 64,
            reference_scan: false,
            tick_skip: true,
            cycle_budget: None,
        }
    }
}

impl CoreConfig {
    /// Checks that the configuration describes a machine the pipeline can
    /// actually run: non-zero stage widths and buffer depths, and enough
    /// physical registers to map every architectural register with at
    /// least one left over for renaming.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), SimError> {
        let invalid = |param: &'static str, value: usize, reason: &'static str| {
            Err(SimError::InvalidConfig {
                param,
                value: value as u64,
                reason,
            })
        };
        for (param, value) in [
            ("fetch_width", self.fetch_width),
            ("decode_width", self.decode_width),
            ("rename_width", self.rename_width),
            ("issue_width", self.issue_width),
            ("commit_width", self.commit_width),
            ("rob_entries", self.rob_entries),
            ("iq_entries", self.iq_entries),
            ("lq_entries", self.lq_entries),
            ("sq_entries", self.sq_entries),
            ("fetch_queue", self.fetch_queue),
            ("decode_queue", self.decode_queue),
            ("ras_entries", self.ras_entries),
            ("btb_entries", self.btb_entries),
            ("local_predictor_size", self.local_predictor_size),
            ("global_predictor_size", self.global_predictor_size),
            ("choice_predictor_size", self.choice_predictor_size),
            ("int_alu_units", self.int_alu_units),
            ("int_mult_units", self.int_mult_units),
            ("fp_units", self.fp_units),
            ("simd_units", self.simd_units),
            ("mem_ports", self.mem_ports),
            ("dtlb_entries", self.dtlb_entries),
            ("itlb_entries", self.itlb_entries),
        ] {
            if value == 0 {
                return invalid(param, value, "must be positive");
            }
        }
        if self.phys_int_regs <= uarch_isa::Reg::COUNT {
            return invalid(
                "phys_int_regs",
                self.phys_int_regs,
                "must exceed the architectural register count",
            );
        }
        if self.inst_bytes == 0 {
            return Err(SimError::InvalidConfig {
                param: "inst_bytes",
                value: 0,
                reason: "must be positive",
            });
        }
        if self.cycle_budget == Some(0) {
            return Err(SimError::InvalidConfig {
                param: "cycle_budget",
                value: 0,
                reason: "a zero budget can never make progress; use None to disable",
            });
        }
        Ok(())
    }

    /// Renders the configuration as the paper's Table II.
    pub fn to_table(&self) -> String {
        format!(
            "Architecture\n\
             X86 O3CPU 1 core Single Thread at 2.0GHz\n\
             Core\n\
             Tournament branch predictor\n\
             {} RAS entries, {} BTB entries\n\
             LQEntries={}, SQEntries={}, ROBEntries={}\n\
             fetch/dispatch/issue/commit width={}\n\
             numPhysIntRegs={},numPhysFloatRegs={}\n\
             L1 I-Cache\n\
             32KB, 64B line, 4-way\n\
             L1 D-Cache\n\
             64KB, 64B line, 8-way\n\
             Shared L2 cache\n\
             2MB bank, 64B line, 8-way,\n\
             mshrs=20, tgtsPerMshr=12, writeBuffers=8\n\
             tagLatency=20, dataLatency=20, responseLatency=20",
            self.ras_entries,
            self.btb_entries,
            self.lq_entries,
            self.sq_entries,
            self.rob_entries,
            self.fetch_width,
            self.phys_int_regs,
            self.phys_float_regs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_ii() {
        let c = CoreConfig::default();
        assert_eq!(c.rob_entries, 192);
        assert_eq!(c.lq_entries, 32);
        assert_eq!(c.sq_entries, 32);
        assert_eq!(c.ras_entries, 16);
        assert_eq!(c.btb_entries, 4096);
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.phys_int_regs, 256);
    }

    #[test]
    fn zero_cycle_budget_is_rejected() {
        let mut c = CoreConfig::default();
        assert!(c.validate().is_ok(), "default config validates");
        c.cycle_budget = Some(0);
        assert!(matches!(
            c.validate(),
            Err(SimError::InvalidConfig {
                param: "cycle_budget",
                ..
            })
        ));
        c.cycle_budget = Some(1_000);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn table_render_mentions_key_parameters() {
        let t = CoreConfig::default().to_table();
        assert!(t.contains("ROBEntries=192"));
        assert!(t.contains("16 RAS entries, 4096 BTB entries"));
        assert!(t.contains("mshrs=20"));
    }
}

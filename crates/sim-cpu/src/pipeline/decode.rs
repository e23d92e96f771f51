//! The decode stage: moves instructions from the fetch queue into the
//! decode queue, resolving direct jump/call targets early.

use std::collections::VecDeque;

use uarch_isa::Inst;

use crate::config::CoreConfig;
use crate::dyninst::DynInst;
use crate::stats::DecodeStats;

/// The decode stage. Owns the `decode` statistic group; the queues it
/// drains and fills are the core's fetch→decode and decode→rename queues.
#[derive(Debug, Default)]
pub struct DecodeStage {
    pub(crate) stats: DecodeStats,
}

/// Decode's view of the machine for one tick.
pub struct DecodePorts<'a> {
    pub(crate) cfg: &'a CoreConfig,
    /// Inbound port from fetch.
    pub(crate) input: &'a mut VecDeque<DynInst>,
    /// Outbound port into rename.
    pub(crate) out: &'a mut VecDeque<DynInst>,
}

impl DecodeStage {
    /// Advances decode one cycle.
    pub(crate) fn tick(&mut self, p: DecodePorts<'_>) {
        let mut decoded = 0;
        while decoded < p.cfg.decode_width
            && !p.input.is_empty()
            && p.out.len() < p.cfg.decode_queue
        {
            let d = p.input.pop_front().expect("checked non-empty");
            if matches!(d.inst, Inst::Jump { .. } | Inst::Call { .. }) {
                self.stats.branch_resolved.inc();
            }
            p.out.push_back(d);
            decoded += 1;
            self.stats.decoded_insts.inc();
            self.stats.power.dynamic_energy.add(0.5);
        }
        if decoded > 0 {
            self.stats.run_cycles.inc();
        } else if p.input.is_empty() {
            self.stats.idle_cycles.inc();
        } else {
            self.stats.blocked_cycles.inc();
        }
    }
}

//! The decode stage: passes fetched instructions on to rename, resolving
//! direct jump/call targets early.

use uarch_isa::Inst;

use crate::config::CoreConfig;
use crate::stats::DecodeStats;

use super::FrontEndQueue;

/// The decode stage. Owns the `decode` statistic group; the instructions
/// it decodes stay in the core's front-end queue, whose decoded boundary
/// it advances.
#[derive(Debug, Default)]
pub struct DecodeStage {
    pub(crate) stats: DecodeStats,
}

/// Decode's view of the machine for one tick.
pub struct DecodePorts<'a> {
    pub(crate) cfg: &'a CoreConfig,
    /// The front-end queue: fetch's output in, rename's input out.
    pub(crate) queue: &'a mut FrontEndQueue,
}

impl DecodeStage {
    /// Advances decode one cycle.
    pub(crate) fn tick(&mut self, p: DecodePorts<'_>) {
        let mut decoded = 0;
        while decoded < p.cfg.decode_width && p.queue.decoded_len() < p.cfg.decode_queue {
            let Some(d) = p.queue.next_fetched() else {
                break;
            };
            if matches!(d.inst, Inst::Jump { .. } | Inst::Call { .. }) {
                self.stats.branch_resolved.inc();
            }
            p.queue.decode_next();
            decoded += 1;
            self.stats.decoded_insts.inc();
            self.stats.power.dynamic_energy.add(0.5);
        }
        if decoded > 0 {
            self.stats.run_cycles.inc();
        } else if p.queue.fetched_len() == 0 {
            self.stats.idle_cycles.inc();
        } else {
            self.stats.blocked_cycles.inc();
        }
    }
}

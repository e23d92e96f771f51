//! The decode stage: moves instructions from the fetch queue into the
//! decode queue, resolving direct jump/call targets early.

use uarch_isa::Inst;
use uarch_stats::registry::ComponentId;

use crate::config::CoreConfig;
use crate::stats::DecodeStats;

use super::{DecodeToRename, FetchToDecode, PipelineComponent, SquashRequest};

/// The decode stage. Owns the `decode` statistic group; the queues it
/// drains and fills are the typed fetch→decode and decode→rename ports.
#[derive(Debug, Default)]
pub struct DecodeStage {
    pub(crate) stats: DecodeStats,
}

/// Decode's view of the machine for one tick.
pub struct DecodePorts<'a> {
    pub(crate) cfg: &'a CoreConfig,
    /// Inbound port from fetch.
    pub(crate) input: &'a mut FetchToDecode,
    /// Outbound port into rename.
    pub(crate) out: &'a mut DecodeToRename,
}

impl PipelineComponent for DecodeStage {
    type Ports<'a> = DecodePorts<'a>;

    fn component_id(&self) -> ComponentId {
        ComponentId::Decode
    }

    fn tick(&mut self, p: DecodePorts<'_>) -> Option<SquashRequest> {
        let mut decoded = 0;
        while decoded < p.cfg.decode_width
            && !p.input.is_empty()
            && p.out.len() < p.cfg.decode_queue
        {
            let d = p.input.0.pop_front().expect("checked non-empty");
            if matches!(d.inst, Inst::Jump { .. } | Inst::Call { .. }) {
                self.stats.branch_resolved.inc();
            }
            p.out.0.push_back(d);
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
        None
    }

    fn reset(&mut self) {
        self.stats = DecodeStats::default();
    }
}

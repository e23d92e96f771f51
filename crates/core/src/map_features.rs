//! The "MAP" baseline feature view: the committed-architectural-state
//! features of malware-aware processors (Ozsoy et al., HPCA 2015), used by
//! Table IV to show that malware-detector features miss microarchitectural
//! attacks.

use std::sync::Arc;

use uarch_stats::Schema;

use crate::encode::{Encoding, MaxMatrix, RowEncoder};

/// Resolves the MAP-style feature set against the schema: instruction-mix
/// distribution, memory access counts and architectural branch events —
/// committed state only, nothing speculative.
pub fn map_feature_indices(schema: &Schema) -> Vec<usize> {
    let mut idx = Vec::new();
    for (i, name) in schema.names().iter().enumerate() {
        let committed_mix = name.starts_with("commit.op_class_0::");
        let arch_counters = matches!(
            name.as_str(),
            "commit.committedInsts"
                | "commit.committedOps"
                | "commit.branches"
                | "commit.branchMispredicts"
                | "commit.loads"
                | "commit.stores"
                | "commit.refs"
                | "commit.int_insts"
                | "commit.fp_insts"
                | "commit.functionCalls"
                | "numLoadInsts"
                | "numStoreInsts"
                | "numBranches"
        );
        let mem_access = matches!(
            name.as_str(),
            "dcache.ReadReq_accesses"
                | "dcache.WriteReq_accesses"
                | "dcache.overall_accesses"
                | "dcache.overall_misses"
                | "icache.overall_accesses"
                | "icache.overall_misses"
        );
        if committed_mix || arch_counters || mem_access {
            idx.push(i);
        }
    }
    idx
}

/// A per-sample encoder projecting raw delta rows onto the MAP feature
/// set — the same shared normalization/binarization helper the selected
/// invariant view uses (see
/// [`FeatureSelection::encoder`](crate::features::FeatureSelection::encoder)),
/// so both baselines see identically encoded samples.
pub fn map_encoder(schema: &Schema, max: Arc<MaxMatrix>, encoding: Encoding) -> RowEncoder {
    RowEncoder::new(max, encoding).with_projection(map_feature_indices(schema))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cpu::{CoreConfig, Machine};
    use uarch_isa::Assembler;

    fn schema() -> Schema {
        let mut a = Assembler::new("s");
        a.halt();
        Machine::single_core(&CoreConfig::default(), a.finish().unwrap()).stat_schema()
    }

    #[test]
    fn map_view_is_a_small_committed_state_subset() {
        let s = schema();
        let idx = map_feature_indices(&s);
        assert!(
            (20..60).contains(&idx.len()),
            "MAP view should be a few dozen features, got {}",
            idx.len()
        );
        for &i in &idx {
            let n = s.name(i);
            assert!(
                n.starts_with("commit.")
                    || n.starts_with("dcache.")
                    || n.starts_with("icache.")
                    || !n.contains('.'),
                "unexpected MAP feature {n}"
            );
        }
    }

    #[test]
    fn map_view_excludes_speculative_features() {
        let s = schema();
        let idx = map_feature_indices(&s);
        for &i in &idx {
            let n = s.name(i);
            assert!(!n.contains("Squash"), "{n} is speculative");
            assert!(!n.contains("NonSpec"), "{n} is speculative");
        }
    }
}

//! Stat-schema lint and post-run counter-invariant checking.
//!
//! Two layers:
//!
//! 1. **Schema lint** ([`lint_schema`], [`lint_bindings`]) — static checks
//!    over the simulator's statistics inventory: names must be non-empty,
//!    printable, unique, and every statistic referenced by a declared
//!    invariant (see `sim_cpu::stat_invariants`) must actually exist.
//! 2. **Run check** ([`check_program_run`]) — runs a program on the
//!    simulator, snapshots the cumulative counters at regular intervals, and
//!    evaluates the declared invariants over the series (`committed ≤
//!    fetched`, `hits + misses = accesses`, per-sample monotonicity, ...).

use sim_cpu::{CoreConfig, Machine};
use uarch_isa::Program;
use uarch_stats::invariant::check_series;
use uarch_stats::{
    ComponentId, ComponentRegistry, InvariantKind, Snapshot, StatInvariant, Violation,
};

/// A problem with the statistics schema itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaIssue {
    /// The offending statistic (or invariant) name.
    pub name: String,
    /// What is wrong with it.
    pub issue: String,
}

impl std::fmt::Display for SchemaIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.name, self.issue)
    }
}

/// Lints the flat statistic names of a snapshot: non-empty, printable ASCII
/// without whitespace, and free of duplicates (a duplicate name means two
/// components visit the same key and one silently shadows the other in any
/// name-indexed consumer).
pub fn lint_schema(names: &[String]) -> Vec<SchemaIssue> {
    let mut issues = Vec::new();
    let mut seen = std::collections::BTreeMap::new();
    for name in names {
        if name.is_empty() {
            issues.push(SchemaIssue {
                name: "<empty>".into(),
                issue: "empty stat name".into(),
            });
            continue;
        }
        if name
            .chars()
            .any(|c| c.is_whitespace() || !c.is_ascii_graphic())
        {
            issues.push(SchemaIssue {
                name: name.clone(),
                issue: "contains whitespace or non-printable characters".into(),
            });
        }
        *seen.entry(name.clone()).or_insert(0usize) += 1;
    }
    for (name, count) in seen {
        if count > 1 {
            issues.push(SchemaIssue {
                name,
                issue: format!("declared {count} times"),
            });
        }
    }
    issues
}

/// Lints the schema against the shared component registry: every statistic
/// name must resolve to one of the paper's 17 pipeline components
/// ([`ComponentRegistry::component_of`]), and every registered component
/// must own at least one statistic. Together the two directions assert that
/// the component prefixes *partition* the schema — no orphan stats, no
/// silent components.
///
/// Multi-core schemas (any name carrying a `core<N>.` scope) are linted
/// per scope: each core scope must replicate all 13 core-local components,
/// the 4 shared uncore components must appear exactly once — unscoped —
/// and a shared component leaking under a core scope (or a core-local
/// component left unscoped) is flagged. Flat single-core schemas keep the
/// original all-17 coverage rule.
pub fn lint_component_coverage(names: &[String]) -> Vec<SchemaIssue> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut issues = Vec::new();
    let mut per_scope: BTreeMap<Option<usize>, BTreeSet<ComponentId>> = BTreeMap::new();
    let multicore = names
        .iter()
        .any(|n| ComponentRegistry::scope_of(n).is_some());
    for name in names {
        match ComponentRegistry::component_of(name) {
            Some(c) => {
                let scope = ComponentRegistry::scope_of(name);
                if scope.is_some() && c.is_shared() {
                    issues.push(SchemaIssue {
                        name: name.clone(),
                        issue: "shared uncore component must not be replicated under a core scope"
                            .into(),
                    });
                }
                if multicore && scope.is_none() && !c.is_shared() {
                    issues.push(SchemaIssue {
                        name: name.clone(),
                        issue: "core-local component must carry a core<N> scope in a \
                                multi-core schema"
                            .into(),
                    });
                }
                per_scope.entry(scope).or_default().insert(c);
            }
            None => issues.push(SchemaIssue {
                name: name.clone(),
                issue: "prefix does not resolve to any registered pipeline component".into(),
            }),
        }
    }
    if multicore {
        let empty = BTreeSet::new();
        for (&scope, seen) in &per_scope {
            if let Some(n) = scope {
                for c in ComponentId::CORE_LOCAL {
                    if !seen.contains(&c) {
                        issues.push(SchemaIssue {
                            name: format!("core{n}.{}", c.name()),
                            issue: "core-local component owns no statistic in this core scope"
                                .into(),
                        });
                    }
                }
            }
        }
        let unscoped = per_scope.get(&None).unwrap_or(&empty);
        for c in ComponentId::SHARED {
            if !unscoped.contains(&c) {
                issues.push(SchemaIssue {
                    name: c.name().to_string(),
                    issue: "shared uncore component owns no statistic in the schema".into(),
                });
            }
        }
    } else {
        let seen = per_scope.remove(&None).unwrap_or_default();
        for c in ComponentId::ALL {
            if !seen.contains(&c) {
                issues.push(SchemaIssue {
                    name: c.name().to_string(),
                    issue: "registered component owns no statistic in the schema".into(),
                });
            }
        }
    }
    issues
}

/// Dead-feature lint: cross-checks the statistics schema against the set
/// of feature names a trained encoder actually consumes (e.g. the
/// 106-feature `RowEncoder` projection the perceptron uses).
///
/// Three directions:
///
/// 1. every consumed feature name must exist in the schema (a projection
///    onto a renamed or deleted stat silently reads garbage);
/// 2. every consumed feature must resolve to a registered pipeline
///    component — otherwise the replicated-detector accounting
///    (features-per-component) is wrong;
/// 3. every registered component that *owns* schema statistics should
///    contribute at least one consumed feature — a component whose stats
///    are all dead weight for the encoder is flagged so the schema does
///    not accrete write-only counters.
pub fn lint_feature_consumption(schema_names: &[String], consumed: &[String]) -> Vec<SchemaIssue> {
    use std::collections::BTreeSet;
    let schema: BTreeSet<&str> = schema_names.iter().map(String::as_str).collect();
    let mut issues = Vec::new();

    let mut consumed_components: BTreeSet<ComponentId> = BTreeSet::new();
    for name in consumed {
        if !schema.contains(name.as_str()) {
            issues.push(SchemaIssue {
                name: name.clone(),
                issue: "consumed feature does not exist in the statistics schema".into(),
            });
        }
        match ComponentRegistry::component_of(name) {
            Some(c) => {
                consumed_components.insert(c);
            }
            None => issues.push(SchemaIssue {
                name: name.clone(),
                issue: "consumed feature resolves to no registered pipeline component".into(),
            }),
        }
    }

    let mut owning_components: BTreeSet<ComponentId> = BTreeSet::new();
    for name in schema_names {
        if let Some(c) = ComponentRegistry::component_of(name) {
            owning_components.insert(c);
        }
    }
    for c in owning_components {
        if !consumed_components.contains(&c) {
            issues.push(SchemaIssue {
                name: c.name().to_string(),
                issue: "component's statistics are registered but never consumed by the encoder"
                    .into(),
            });
        }
    }
    issues
}

/// Every statistic referenced by `invariants` must exist in the snapshot —
/// an invariant that stops binding would otherwise rot silently.
pub fn lint_bindings(invariants: &[StatInvariant], snap: &Snapshot) -> Vec<SchemaIssue> {
    let mut issues = Vec::new();
    for inv in invariants {
        let refs: Vec<&String> = match &inv.kind {
            InvariantKind::Le(a, b) | InvariantKind::Eq(a, b) => vec![a, b],
            InvariantKind::SumEq(terms, total) => {
                terms.iter().chain(std::iter::once(total)).collect()
            }
            InvariantKind::Monotonic(s) => vec![s],
        };
        for name in refs {
            if snap.get(name).is_none() {
                issues.push(SchemaIssue {
                    name: inv.name.to_string(),
                    issue: format!("references unknown statistic `{name}`"),
                });
            }
        }
    }
    issues
}

/// Result of running a program and checking the counter invariants.
#[derive(Debug)]
pub struct RunCheck {
    /// Program name.
    pub name: String,
    /// Instructions actually committed.
    pub committed: u64,
    /// Number of cumulative snapshots taken.
    pub samples: usize,
    /// All invariant violations across the snapshot series.
    pub violations: Vec<Violation>,
}

impl RunCheck {
    /// Whether every invariant held in every sample.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs `program` for up to `max_insts` committed instructions, snapshotting
/// the cumulative statistics `samples` times, and evaluates `invariants`
/// over the series.
pub fn check_run(
    program: &Program,
    invariants: &[StatInvariant],
    max_insts: u64,
    samples: usize,
) -> RunCheck {
    let mut machine = Machine::single_core(&CoreConfig::default(), program.clone());
    // Resolve the stat schema once; every snapshot in the series is a
    // value-only walk against it instead of re-deriving all 1159 names.
    let schema = machine.stat_schema();
    let chunk = (max_insts / samples.max(1) as u64).max(1);
    let mut series = Vec::new();
    for _ in 0..samples.max(1) {
        let summary = machine.run(chunk);
        series.push(Snapshot::with_schema(&schema, &machine));
        if summary.halted {
            break;
        }
    }
    RunCheck {
        name: program.name().to_string(),
        committed: series
            .last()
            .and_then(|s| s.get("commit.committedInsts"))
            .unwrap_or(0.0) as u64,
        samples: series.len(),
        violations: check_series(invariants, &series),
    }
}

/// [`check_run`] against the core's own declared invariants
/// (`sim_cpu::stat_invariants`).
pub fn check_program_run(program: &Program, max_insts: u64, samples: usize) -> RunCheck {
    check_run(program, &sim_cpu::stat_invariants(), max_insts, samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_stats::{stat_group, Counter};

    #[test]
    fn schema_lint_flags_duplicates_and_bad_names() {
        let names = vec![
            "a.b".to_string(),
            "a.b".to_string(),
            "has space".to_string(),
            String::new(),
            "fine.name".to_string(),
        ];
        let issues = lint_schema(&names);
        assert!(issues.iter().any(|i| i.issue.contains("2 times")));
        assert!(issues.iter().any(|i| i.issue.contains("whitespace")));
        assert!(issues.iter().any(|i| i.issue.contains("empty")));
        assert_eq!(issues.len(), 3);
    }

    #[test]
    fn core_schema_is_clean_and_invariants_bind() {
        let machine = Machine::single_core(&CoreConfig::default(), {
            let mut a = uarch_isa::Assembler::new("noop");
            a.halt();
            a.finish().unwrap()
        });
        let snap = Snapshot::of(&machine, "");
        assert!(
            lint_schema(snap.names()).is_empty(),
            "{:?}",
            lint_schema(snap.names())
        );
        let bindings = lint_bindings(&sim_cpu::stat_invariants(), &snap);
        assert!(bindings.is_empty(), "{bindings:?}");
        let coverage = lint_component_coverage(snap.names());
        assert!(coverage.is_empty(), "{coverage:?}");
    }

    #[test]
    fn component_coverage_flags_orphans_and_silent_components() {
        // An orphan prefix and a schema too small to cover all 17
        // components both surface as issues.
        let names = vec!["bogus.stat".to_string(), "fetch.SquashCycles".to_string()];
        let issues = lint_component_coverage(&names);
        assert!(issues
            .iter()
            .any(|i| i.name == "bogus.stat" && i.issue.contains("does not resolve")));
        assert!(issues
            .iter()
            .any(|i| i.name == "decode" && i.issue.contains("owns no statistic")));
    }

    #[test]
    fn component_coverage_lints_multicore_schemas_per_scope() {
        // A well-formed two-core slice: both core scopes replicate two
        // core-local components; the uncore stays unscoped.
        let mut names: Vec<String> = Vec::new();
        for core in 0..2 {
            for c in uarch_stats::ComponentId::CORE_LOCAL {
                let base = if c.prefix().is_empty() {
                    "numCycles".to_string()
                } else {
                    format!("{}.stat", c.prefix())
                };
                names.push(format!("core{core}.{base}"));
            }
        }
        for c in uarch_stats::ComponentId::SHARED {
            names.push(format!("{}.stat", c.prefix()));
        }
        assert!(
            lint_component_coverage(&names).is_empty(),
            "{:?}",
            lint_component_coverage(&names)
        );

        // A shared component leaking under a core scope is flagged...
        let mut leaked = names.clone();
        leaked.push("core0.l2.demand_hits".to_string());
        assert!(lint_component_coverage(&leaked).iter().any(
            |i| i.name == "core0.l2.demand_hits" && i.issue.contains("must not be replicated")
        ));

        // ...as is a core-local stat escaping its scope in a multi-core
        // schema...
        let mut unscoped = names.clone();
        unscoped.push("fetch.SquashCycles".to_string());
        assert!(lint_component_coverage(&unscoped)
            .iter()
            .any(|i| i.name == "fetch.SquashCycles" && i.issue.contains("must carry a core")));

        // ...and a core scope missing one of the 13 replicated components.
        let holey: Vec<String> = names
            .iter()
            .filter(|n| *n != "core1.dcache.stat")
            .cloned()
            .collect();
        assert!(lint_component_coverage(&holey)
            .iter()
            .any(|i| i.name == "core1.L1 D-cache" && i.issue.contains("owns no statistic")));
    }

    #[test]
    fn feature_consumption_lint_flags_all_three_directions() {
        let schema = vec![
            "fetch.SquashCycles".to_string(),
            "fetch.Insts".to_string(),
            "commit.branches".to_string(),
        ];
        // Consumes one fetch stat, a stat the schema lacks, and a stat with
        // no registered component; commit's stats go unconsumed.
        let consumed = vec![
            "fetch.SquashCycles".to_string(),
            "fetch.Deleted".to_string(),
            "bogus.stat".to_string(),
        ];
        let issues = lint_feature_consumption(&schema, &consumed);
        assert!(issues
            .iter()
            .any(|i| i.name == "fetch.Deleted" && i.issue.contains("does not exist")));
        assert!(issues
            .iter()
            .any(|i| i.name == "bogus.stat" && i.issue.contains("no registered")));
        assert!(issues
            .iter()
            .any(|i| i.name == "commit" && i.issue.contains("never consumed")));
        // The consumed fetch component is not flagged.
        assert!(!issues.iter().any(|i| i.name == "fetch"));
    }

    #[test]
    fn feature_consumption_lint_is_clean_when_every_component_contributes() {
        let schema = vec!["fetch.Insts".to_string(), "commit.branches".to_string()];
        let consumed = schema.clone();
        assert!(lint_feature_consumption(&schema, &consumed).is_empty());
    }

    stat_group! {
        /// A component with an intentionally inconsistent counter pair.
        pub struct BrokenStats {
            /// Fetched instructions.
            pub fetched: Counter => "fetched",
            /// Committed instructions (corrupted to exceed fetched).
            pub committed: Counter => "committed",
        }
    }

    #[test]
    fn deliberately_broken_counter_is_caught() {
        let mut s = BrokenStats::default();
        s.fetched.add(100);
        s.committed.add(150); // corruption: committed > fetched
        let inv = [StatInvariant::le(
            "committed-le-fetched",
            "cpu.committed",
            "cpu.fetched",
        )];
        let series = [Snapshot::of(&s, "cpu")];
        let v = check_series(&inv, &series);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "committed-le-fetched");
    }
}

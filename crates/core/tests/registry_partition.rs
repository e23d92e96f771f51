//! The component registry must partition the full statistic schema.
//!
//! PerSpectron's replicated-detector premise rests on a fixed taxonomy: the
//! 1159 statistics split across exactly 17 pipeline components. These tests
//! pin that partition against the live schema and check that the shared
//! registry reproduces the legacy string-parsing convention on every name.

use std::collections::{BTreeMap, BTreeSet};

use sim_cpu::{CoreConfig, Machine};
use sim_mem::HierarchyConfig;
use uarch_stats::{ComponentId, ComponentRegistry};

/// The schema as the collector sees it: all 1159 flat stat names.
fn schema_names() -> Vec<String> {
    let mut a = uarch_isa::Assembler::new("schema-probe");
    a.halt();
    let machine =
        Machine::single_core(&CoreConfig::default(), a.finish().expect("probe assembles"));
    machine.stat_schema().names().to_vec()
}

/// The legacy prefix parser `component_of` used before the registry
/// existed, kept verbatim as the reference implementation.
fn legacy_component_of(name: &str) -> &str {
    let prefix = name.split('.').next().unwrap_or(name);
    match prefix {
        "dtlb" => "dtb",
        p if p == name && !name.contains('.') => "cpu",
        p => p,
    }
}

#[test]
fn seventeen_components_partition_all_1159_stat_names() {
    let names = schema_names();
    assert_eq!(
        names.len(),
        1159,
        "schema must expose the paper's 1159 stats"
    );
    assert_eq!(ComponentId::ALL.len(), 17);

    // Every name resolves to exactly one component (total coverage)...
    let mut per_component: BTreeMap<ComponentId, usize> = BTreeMap::new();
    for name in &names {
        let c = ComponentRegistry::component_of(name)
            .unwrap_or_else(|| panic!("stat `{name}` resolves to no component"));
        *per_component.entry(c).or_default() += 1;
    }
    // ...and every component owns at least one name (no silent members).
    for c in ComponentId::ALL {
        assert!(
            per_component.get(&c).copied().unwrap_or(0) > 0,
            "component {:?} owns no statistic",
            c
        );
    }
    assert_eq!(per_component.len(), 17, "partition must use all 17 cells");
    assert_eq!(per_component.values().sum::<usize>(), 1159);
}

#[test]
fn registry_labels_match_the_legacy_parser_on_every_schema_name() {
    for name in schema_names() {
        assert_eq!(
            perspectron::component_of(&name),
            legacy_component_of(&name),
            "registry and legacy parser disagree on `{name}`"
        );
        assert_eq!(
            ComponentRegistry::label_of(&name),
            legacy_component_of(&name),
            "ComponentRegistry::label_of diverges on `{name}`"
        );
    }
}

/// The two-core schema as the collector sees it: core-local banks under
/// `core0.` / `core1.`, shared uncore unscoped.
fn two_core_schema_names() -> Vec<String> {
    let probe = || {
        let mut a = uarch_isa::Assembler::new("schema-probe");
        a.halt();
        a.finish().expect("probe assembles")
    };
    let mach = Machine::new(
        &CoreConfig::default(),
        &HierarchyConfig::default(),
        vec![probe(), probe()],
    );
    mach.stat_schema().names().to_vec()
}

#[test]
fn namespaced_two_core_schema_still_partitions_into_the_17_components() {
    let names = two_core_schema_names();

    // Every namespaced name still resolves to exactly one component, and
    // the per-core scopes each replicate all 13 core-local components
    // while the 4 shared uncore components appear once, unscoped.
    let mut per_scope: BTreeMap<Option<usize>, BTreeSet<ComponentId>> = BTreeMap::new();
    for name in &names {
        let c = ComponentRegistry::component_of(name)
            .unwrap_or_else(|| panic!("stat `{name}` resolves to no component"));
        let scope = ComponentRegistry::scope_of(name);
        assert_eq!(
            scope.is_none(),
            c.is_shared(),
            "`{name}`: core-local stats must be core-scoped, shared stats unscoped"
        );
        per_scope.entry(scope).or_default().insert(c);
    }
    for core in [0usize, 1] {
        let seen = &per_scope[&Some(core)];
        assert_eq!(
            seen.iter().copied().collect::<Vec<_>>(),
            ComponentId::CORE_LOCAL.to_vec(),
            "core{core} must replicate exactly the 13 core-local components"
        );
    }
    assert_eq!(
        per_scope[&None].iter().copied().collect::<Vec<_>>(),
        ComponentId::SHARED.to_vec(),
        "the shared scope must hold exactly the 4 uncore components"
    );

    // The analysis-crate coverage lint agrees that this schema is clean.
    let issues = uarch_analysis::lint_component_coverage(&names);
    assert!(issues.is_empty(), "{issues:?}");
}

#[test]
fn scoped_labels_keep_one_feature_bank_per_core_per_component() {
    let names = two_core_schema_names();
    let labels: BTreeSet<String> = names
        .iter()
        .map(|n| ComponentRegistry::scoped_label_of(n))
        .collect();
    // 14 legacy core-local labels (the 13 components plus the `lsq`/
    // `memDep` alias banks minus the folded `dtlb`) per core scope, plus
    // the 4 shared labels. What matters: core0 and core1 banks stay
    // distinct, and shared banks are not per-core.
    for label in ["fetch", "dcache", "cpu", "lsq"] {
        assert!(labels.contains(&format!("core0.{label}")), "core0.{label}");
        assert!(labels.contains(&format!("core1.{label}")), "core1.{label}");
    }
    for shared in ["l2", "tol2bus", "membus", "mem_ctrls"] {
        assert!(labels.contains(shared), "shared bank {shared}");
        assert!(!labels.contains(&format!("core0.{shared}")));
    }
}

#[test]
fn alias_prefixes_resolve_to_their_owning_component() {
    let names = schema_names();
    let lsq: Vec<&String> = names.iter().filter(|n| n.starts_with("lsq.")).collect();
    let dtlb: Vec<&String> = names.iter().filter(|n| n.starts_with("dtlb.")).collect();
    assert!(
        !lsq.is_empty() && !dtlb.is_empty(),
        "alias groups must exist"
    );
    for n in lsq {
        assert_eq!(ComponentRegistry::component_of(n), Some(ComponentId::Iew));
    }
    for n in dtlb {
        assert_eq!(ComponentRegistry::component_of(n), Some(ComponentId::Dtb));
    }
}

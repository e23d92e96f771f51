//! Feature selection: correlation grouping and replicated invariant
//! feature extraction (§IV-B of the paper).

use mlkit::pearson;

use crate::dataset::Dataset;

/// The pipeline component a statistic belongs to, derived from its dotted
/// name prefix (the paper partitions the 1159 statistics into 17
/// components). Resolution delegates to the shared
/// [`ComponentRegistry`](uarch_stats::ComponentRegistry), so feature
/// grouping, stat registration and the analysis lints all agree on the
/// taxonomy.
pub fn component_of(name: &str) -> &str {
    uarch_stats::ComponentRegistry::label_of(name)
}

/// The component *bank* a statistic belongs to for selection purposes:
/// the legacy component label, qualified by its `core<N>.` scope in a
/// multi-core schema (`core1.fetch.SquashCycles` → `"core1.fetch"`). On a
/// flat single-core schema this is exactly [`component_of`], so the
/// classic selection is unchanged; on a namespaced schema the attacker
/// core and each victim/neighbor core keep their own feature banks
/// instead of collapsing into one.
pub fn bank_of(name: &str) -> String {
    uarch_stats::ComponentRegistry::scoped_label_of(name)
}

/// Mutual information (in bits) between a binarized feature column and the
/// binary class label.
pub fn binary_mutual_information(col: &[f64], y: &[i8]) -> f64 {
    assert_eq!(col.len(), y.len(), "length mismatch");
    let n = col.len() as f64;
    if col.is_empty() {
        return 0.0;
    }
    let mut joint = [[0.0f64; 2]; 2];
    for (&v, &l) in col.iter().zip(y) {
        let a = usize::from(v > 0.5);
        let b = usize::from(l > 0);
        joint[a][b] += 1.0;
    }
    let pa = [
        (joint[0][0] + joint[0][1]) / n,
        (joint[1][0] + joint[1][1]) / n,
    ];
    let pb = [
        (joint[0][0] + joint[1][0]) / n,
        (joint[0][1] + joint[1][1]) / n,
    ];
    let mut mi = 0.0;
    for a in 0..2 {
        for b in 0..2 {
            let pab = joint[a][b] / n;
            if pab > 0.0 && pa[a] > 0.0 && pb[b] > 0.0 {
                mi += pab * (pab / (pa[a] * pb[b])).log2();
            }
        }
    }
    mi
}

/// Selection parameters.
#[derive(Debug, Clone)]
pub struct SelectionConfig {
    /// Number of features to select (the paper selects 106).
    pub target_count: usize,
    /// |Pearson| threshold above which two features are "closely
    /// correlated" (the paper uses 0.98).
    pub correlation_threshold: f64,
    /// Discard features whose class relevance is below this floor.
    pub min_relevance: f64,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        Self {
            target_count: 106,
            correlation_threshold: 0.98,
            min_relevance: 1e-4,
        }
    }
}

/// One group of mutually correlated features.
#[derive(Debug, Clone)]
pub struct CorrelationGroup {
    /// Feature indices, sorted by class relevance (descending).
    pub members: Vec<usize>,
    /// Number of distinct pipeline components the members span.
    pub component_span: usize,
    /// Best class relevance among members.
    pub relevance: f64,
}

/// The outcome of the selection procedure.
#[derive(Debug, Clone)]
pub struct FeatureSelection {
    /// Selected feature indices into the full schema.
    pub selected: Vec<usize>,
    /// Selected feature names.
    pub names: Vec<String>,
    /// All correlation groups found (spanning ≥ 2 members).
    pub groups: Vec<CorrelationGroup>,
    /// Class relevance (mutual information) per schema feature.
    pub relevance: Vec<f64>,
}

impl FeatureSelection {
    /// Runs the three-step selection of §IV-B on a dataset:
    ///
    /// 1. Pearson-correlate live features pairwise and group those with
    ///    |c| above the threshold.
    /// 2. Decorrelate *within* a component (keep one member per group per
    ///    component) while deliberately keeping cross-component replicas.
    /// 3. Greedily pick features component by component, ranked by mutual
    ///    information with the class, until `target_count` are chosen.
    pub fn select(dataset: &Dataset, cfg: &SelectionConfig) -> Self {
        let n_features = dataset.schema.len();
        let y = dataset.y();

        // Class relevance per feature; dead (constant) features get zero.
        let columns: Vec<Vec<f64>> = (0..n_features).map(|i| dataset.column(i)).collect();
        let relevance: Vec<f64> = columns
            .iter()
            .map(|c| binary_mutual_information(c, &y))
            .collect();

        // Live features only (non-constant, minimally relevant).
        let live: Vec<usize> = (0..n_features)
            .filter(|&i| {
                let first = columns[i][0];
                relevance[i] >= cfg.min_relevance && columns[i].iter().any(|&v| v != first)
            })
            .collect();

        // Union-find over strongly correlated live features.
        let mut parent: Vec<usize> = (0..n_features).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let root = find(parent, parent[i]);
                parent[i] = root;
            }
            parent[i]
        }
        for (a_pos, &i) in live.iter().enumerate() {
            for &j in &live[a_pos + 1..] {
                let c = pearson(&columns[i], &columns[j]);
                if c.abs() >= cfg.correlation_threshold {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    if ri != rj {
                        parent[rj] = ri;
                    }
                }
            }
        }

        // Materialize groups.
        let mut by_root: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for &i in &live {
            by_root.entry(find(&mut parent, i)).or_default().push(i);
        }
        let mut groups: Vec<CorrelationGroup> = by_root
            .into_values()
            .filter(|m| m.len() >= 2)
            .map(|mut members| {
                members.sort_by(|&a, &b| relevance[b].partial_cmp(&relevance[a]).expect("no NaN"));
                let span = members
                    .iter()
                    .map(|&i| bank_of(dataset.schema.name(i)))
                    .collect::<std::collections::HashSet<_>>()
                    .len();
                let best = relevance[members[0]];
                CorrelationGroup {
                    members,
                    component_span: span,
                    relevance: best,
                }
            })
            .collect();
        groups.sort_by(|a, b| b.relevance.partial_cmp(&a.relevance).expect("no NaN"));

        // Greedy per-component round-robin selection.
        let group_of: std::collections::HashMap<usize, usize> = groups
            .iter()
            .enumerate()
            .flat_map(|(g, grp)| grp.members.iter().map(move |&m| (m, g)))
            .collect();
        // One bank per component — per core scope in a multi-core schema
        // (`core0.fetch` and `core1.fetch` select independently).
        let mut per_component: std::collections::BTreeMap<String, Vec<usize>> =
            std::collections::BTreeMap::new();
        for &i in &live {
            per_component
                .entry(bank_of(dataset.schema.name(i)))
                .or_default()
                .push(i);
        }
        for list in per_component.values_mut() {
            list.sort_by(|&a, &b| relevance[b].partial_cmp(&relevance[a]).expect("no NaN"));
        }

        let mut selected = Vec::new();
        let mut used_groups_per_component: std::collections::HashSet<(String, usize)> =
            std::collections::HashSet::new();
        let mut cursors: std::collections::BTreeMap<String, usize> =
            per_component.keys().map(|k| (k.clone(), 0usize)).collect();
        while selected.len() < cfg.target_count {
            let mut progressed = false;
            for (comp, list) in &per_component {
                if selected.len() >= cfg.target_count {
                    break;
                }
                let cursor = cursors.get_mut(comp).expect("cursor exists");
                while *cursor < list.len() {
                    let cand = list[*cursor];
                    *cursor += 1;
                    // Within a component, keep only one member per
                    // correlation group (decorrelation); cross-component
                    // replicas stay (the replicated-detector premise).
                    let dedup_key = group_of.get(&cand).map(|&g| (comp.clone(), g));
                    if let Some(key) = &dedup_key {
                        if used_groups_per_component.contains(key) {
                            continue;
                        }
                    }
                    if let Some(key) = dedup_key {
                        used_groups_per_component.insert(key);
                    }
                    selected.push(cand);
                    progressed = true;
                    break;
                }
            }
            if !progressed {
                break; // all components exhausted
            }
        }
        selected.sort_unstable();

        let names = selected
            .iter()
            .map(|&i| dataset.schema.name(i).to_string())
            .collect();
        Self {
            selected,
            names,
            groups,
            relevance,
        }
    }

    /// A per-sample encoder projecting raw delta rows onto the selected
    /// features — the same shared normalization/binarization helper the MAP
    /// view uses (see [`crate::map_features::map_encoder`]), so every view
    /// encodes samples identically.
    pub fn encoder(
        &self,
        max: std::sync::Arc<crate::encode::MaxMatrix>,
        encoding: crate::encode::Encoding,
    ) -> crate::encode::RowEncoder {
        crate::encode::RowEncoder::new(max, encoding).with_projection(self.selected.clone())
    }

    /// Groups spanning at least `min_span` components, most relevant first
    /// (the Table I view).
    pub fn replicated_groups(&self, min_span: usize) -> Vec<&CorrelationGroup> {
        self.groups
            .iter()
            .filter(|g| g.component_span >= min_span)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, Encoding};
    use crate::trace::CorpusSpec;

    #[test]
    fn component_mapping_matches_paper_prefixes() {
        assert_eq!(component_of("fetch.SquashCycles"), "fetch");
        assert_eq!(component_of("iew.lsq.thread0.forwLoads"), "iew");
        assert_eq!(component_of("dtlb.rdMisses"), "dtb");
        assert_eq!(component_of("dtb.rdMisses"), "dtb");
        assert_eq!(component_of("numCycles"), "cpu");
        assert_eq!(component_of("tol2bus.trans_dist::CleanEvict"), "tol2bus");
    }

    #[test]
    fn mutual_information_of_perfect_predictor_is_one_bit() {
        let col = vec![0.0, 0.0, 1.0, 1.0];
        let y = vec![-1, -1, 1, 1];
        assert!((binary_mutual_information(&col, &y) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mutual_information_of_independent_feature_is_zero() {
        let col = vec![0.0, 1.0, 0.0, 1.0];
        let y = vec![-1, -1, 1, 1];
        assert!(binary_mutual_information(&col, &y).abs() < 1e-9);
    }

    #[test]
    fn selection_picks_discriminative_cross_component_features() {
        let mut all = workloads::full_suite();
        all.retain(|w| {
            ["spectre-v1-classic", "flush-flush", "bzip2", "povray"].contains(&w.name.as_str())
        });
        let corpus = CorpusSpec {
            insts_per_workload: 100_000,
            sample_interval: 10_000,
            workloads: all,
        }
        .collect();
        let dataset = Dataset::from_corpus(&corpus, Encoding::KSparse);
        let sel = FeatureSelection::select(&dataset, &SelectionConfig::default());
        assert!(
            sel.selected.len() >= 50,
            "expected a healthy selection, got {}",
            sel.selected.len()
        );
        assert!(sel.selected.len() <= 106);
        // Replication: selected features span many components.
        let comps: std::collections::HashSet<_> =
            sel.names.iter().map(|n| component_of(n)).collect();
        assert!(
            comps.len() >= 8,
            "selection should span components, got {comps:?}"
        );
        // There are cross-component correlation groups (Table I's premise).
        assert!(
            !sel.replicated_groups(2).is_empty(),
            "squash-family features must correlate across components"
        );
        // Dead-feature lint: every selected feature must exist in the
        // schema and resolve to a registered component. Components with no
        // consumed feature are tolerable on this 4-workload mini corpus,
        // but dangling or unresolvable consumed names never are.
        let issues = uarch_analysis::lint_feature_consumption(dataset.schema.names(), &sel.names);
        let hard: Vec<_> = issues
            .iter()
            .filter(|i| !i.issue.contains("never consumed"))
            .collect();
        assert!(hard.is_empty(), "selected features must bind: {hard:?}");
    }
}

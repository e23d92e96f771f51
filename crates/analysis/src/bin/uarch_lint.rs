//! `uarch-lint`: the differential-validation harness — static gadget
//! analysis, dynamic cross-checking and stat-invariant checks over the
//! whole workload corpus.
//!
//! Usage:
//!
//! ```text
//! uarch-lint [--dot <name>] [--callgraph <name>] [--no-run] [--insts N]
//!            [--dynamic N] [--json PATH]
//!            [--baseline PATH] [--write-baseline PATH]
//! ```
//!
//! Default mode prints one row per workload (attacks, the twelve
//! polymorphic Spectre variants, the bandwidth-reduced evasions, the
//! interprocedural pair, and the benign suite) with the severity-ranked
//! findings the static analyzer produced, then the static-vs-ground-truth
//! confusion matrix, then the statistics-invariant checks. The table is
//! deterministically ordered — workloads by name, findings by (block,
//! kind, at) — so snapshots and CI diffs are stable.
//!
//! - `--dynamic N` additionally runs every workload on the simulator for
//!   up to `N` committed instructions and records the instruction count of
//!   the first `LeakByte` mark as dynamic evidence in the JSON report.
//! - `--json PATH` writes the SARIF-like findings report (one finding per
//!   line) to `PATH`.
//! - `--baseline PATH` diffs the run's finding identity lines against the
//!   checked-in baseline: new findings or newly-missed gadgets fail the
//!   run. `--write-baseline PATH` refreshes the baseline instead.
//! - `--dot <name>` / `--callgraph <name>` print the named workload's CFG
//!   or call graph in Graphviz format and exit.
//!
//! Exits non-zero if any benign workload has findings, any malicious
//! workload has none, the baseline diff is not clean, or a counter
//! invariant is violated.

use uarch_analysis::report::{diff_baseline, CorpusReport, WorkloadVerdict};
use uarch_analysis::{
    analyze_program_with, check_program_run, lint_bindings, lint_component_coverage, lint_schema,
    SpecWindow,
};
use uarch_isa::MarkKind;
use workloads::{
    attack_suite, bandwidth_suite, benign_suite, cross_core_suite, interprocedural_suite,
    polymorphic_suite, Class, Workload,
};

/// The full corpus the differential harness validates: training attacks,
/// polymorphic variants, bandwidth-reduced evasions, the interprocedural
/// pair, the benign suite, and every tenant program of the cross-core
/// scenario suite flattened to one workload per core (`scenario#coreN`) —
/// the cross-core attackers must be flagged, their victims and the
/// noisy-neighbor co-runners must stay clean.
fn corpus() -> Vec<Workload> {
    let mut v = attack_suite();
    v.extend(polymorphic_suite());
    v.extend(bandwidth_suite().into_iter().map(|(_, w)| w));
    v.extend(interprocedural_suite());
    v.extend(benign_suite());
    v.extend(cross_core_suite().iter().flat_map(|s| s.core_workloads()));
    v
}

struct Opts {
    dot: Option<String>,
    callgraph: Option<String>,
    run_invariants: bool,
    insts: u64,
    dynamic: Option<u64>,
    json: Option<String>,
    baseline: Option<String>,
    write_baseline: Option<String>,
}

fn parse_opts() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut o = Opts {
        dot: None,
        callgraph: None,
        run_invariants: true,
        insts: 200_000,
        dynamic: None,
        json: None,
        baseline: None,
        write_baseline: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut next_str = |flag: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--dot" => o.dot = Some(next_str("--dot")),
            "--callgraph" => o.callgraph = Some(next_str("--callgraph")),
            "--no-run" => o.run_invariants = false,
            "--insts" => {
                o.insts = next_str("--insts")
                    .parse()
                    .unwrap_or_else(|_| usage("--insts needs a number"));
            }
            "--dynamic" => {
                o.dynamic = Some(
                    next_str("--dynamic")
                        .parse()
                        .unwrap_or_else(|_| usage("--dynamic needs a number")),
                );
            }
            "--json" => o.json = Some(next_str("--json")),
            "--baseline" => o.baseline = Some(next_str("--baseline")),
            "--write-baseline" => o.write_baseline = Some(next_str("--write-baseline")),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    o
}

/// Runs `w` on the simulator for up to `max_insts` committed instructions
/// and returns the committed-instruction count of the first `LeakByte`
/// mark, if any — the dynamic ground-truth evidence for the confusion
/// matrix.
fn dynamic_leak_inst(w: &Workload, max_insts: u64) -> Option<u64> {
    let mut machine =
        sim_cpu::Machine::single_core(&sim_cpu::CoreConfig::default(), w.program.clone());
    machine.run(max_insts);
    machine
        .core(0)
        .marks()
        .iter()
        .find(|m| m.kind == MarkKind::LeakByte)
        .map(|m| m.at_inst)
}

fn main() {
    let opts = parse_opts();
    let corpus = corpus();

    if let Some(name) = opts.dot.as_ref().or(opts.callgraph.as_ref()) {
        let Some(w) = corpus.iter().find(|w| &w.name == name) else {
            eprintln!("no workload named `{name}`; known:");
            for w in &corpus {
                eprintln!("  {}", w.name);
            }
            std::process::exit(2);
        };
        let report = uarch_analysis::analyze_program(&w.program);
        if opts.dot.is_some() {
            print!("{}", report.cfg.to_dot(&w.program));
        } else {
            print!("{}", report.callgraph.to_dot(&w.program));
        }
        return;
    }

    let window = SpecWindow::from_config(&sim_cpu::CoreConfig::default());
    let mut failures = 0;
    let mut verdicts = Vec::new();
    println!(
        "speculative window: rob={} issue={} resolve={}cy -> transient limit {} insts",
        window.rob_entries,
        window.issue_width,
        window.resolve_latency,
        window.transient_limit(),
    );
    println!(
        "{:<28} {:<10} {:>6} {:>6} {:>4}  findings",
        "workload", "class", "insts", "blocks", "sev"
    );
    println!("{}", "-".repeat(100));
    let mut rows = Vec::new();
    for w in &corpus {
        let report = analyze_program_with(&w.program, &window);
        let leak = opts.dynamic.and_then(|n| dynamic_leak_inst(w, n));
        let class_label = match w.class {
            Class::Benign => "benign",
            Class::Malicious => "malicious",
        };
        let verdict =
            WorkloadVerdict::from_report(&w.name, class_label, w.family.label(), &report, leak);
        let ok = match w.class {
            Class::Benign => !verdict.flagged(),
            Class::Malicious => verdict.flagged(),
        };
        if !ok {
            failures += 1;
        }
        let max_sev = verdict.records.iter().map(|r| r.severity).max();
        let summary = if verdict.records.is_empty() {
            "-".to_string()
        } else {
            verdict
                .records
                .iter()
                .map(|r| format!("{}@{}(sev {})", r.kind.label(), r.at, r.severity))
                .collect::<Vec<_>>()
                .join(", ")
        };
        rows.push((
            w.name.clone(),
            format!(
                "{:<28} {:<10} {:>6} {:>6} {:>4}  {}{}",
                w.name,
                class_label,
                w.program.len(),
                report.cfg.blocks().len(),
                max_sev.map(|s| s.to_string()).unwrap_or_else(|| "-".into()),
                summary,
                if ok { "" } else { "  <-- UNEXPECTED" },
            ),
        ));
        verdicts.push(verdict);
    }
    // Deterministic table: rows sorted by workload name, matching the
    // order the JSON report uses.
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    for (_, line) in &rows {
        println!("{line}");
    }
    println!();

    let report = CorpusReport::new(verdicts, window);
    println!("{}", report.confusion().render());
    println!();

    if let Some(path) = &opts.json {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("uarch-lint: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("findings JSON written to {path}");
    }
    if let Some(path) = &opts.write_baseline {
        if let Err(e) = std::fs::write(path, report.baseline_file()) {
            eprintln!("uarch-lint: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!(
            "baseline written to {path} ({} findings)",
            report.baseline_lines().len()
        );
    } else if let Some(path) = &opts.baseline {
        match std::fs::read_to_string(path) {
            Ok(contents) => {
                let diff = diff_baseline(&contents, &report.baseline_lines());
                if diff.is_clean() {
                    println!(
                        "baseline {path}: clean ({} findings)",
                        report.baseline_lines().len()
                    );
                } else {
                    for l in &diff.added {
                        println!("baseline: NEW finding (not in baseline): {l}");
                        failures += 1;
                    }
                    for l in &diff.removed {
                        println!("baseline: MISSING finding (gadget no longer detected): {l}");
                        failures += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("uarch-lint: cannot read baseline {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    println!();

    // Statistics schema + invariant bindings are workload-independent.
    let probe = sim_cpu::Machine::single_core(&sim_cpu::CoreConfig::default(), {
        let mut a = uarch_isa::Assembler::new("schema-probe");
        a.halt();
        a.finish().expect("probe assembles")
    });
    let snap = uarch_stats::Snapshot::of(&probe, "");
    let schema_issues = lint_schema(snap.names());
    let binding_issues = lint_bindings(&sim_cpu::stat_invariants(), &snap);
    let coverage_issues = lint_component_coverage(snap.names());
    println!(
        "stat schema: {} stats, {} schema issues, {} binding issues, {} component-coverage issues",
        snap.len(),
        schema_issues.len(),
        binding_issues.len(),
        coverage_issues.len()
    );
    for issue in schema_issues
        .iter()
        .chain(&binding_issues)
        .chain(&coverage_issues)
    {
        println!("  schema: {issue}");
        failures += 1;
    }

    if opts.run_invariants {
        let attack = attack_suite()
            .into_iter()
            .next()
            .expect("attack suite non-empty");
        let benign = benign_suite()
            .into_iter()
            .next()
            .expect("benign suite non-empty");
        for w in [attack, benign] {
            let check = check_program_run(&w.program, opts.insts, 8);
            println!(
                "invariants: {:<24} {} committed, {} samples: {}",
                check.name,
                check.committed,
                check.samples,
                if check.passed() { "ok" } else { "VIOLATIONS" }
            );
            for v in &check.violations {
                println!("  violation: {v}");
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("\nuarch-lint: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("\nuarch-lint: all checks passed");
}

fn usage(msg: &str) -> ! {
    eprintln!("uarch-lint: {msg}");
    eprintln!(
        "usage: uarch-lint [--dot <name>] [--callgraph <name>] [--no-run] [--insts N]\n\
         \x20                 [--dynamic N] [--json PATH] [--baseline PATH] [--write-baseline PATH]"
    );
    std::process::exit(2);
}

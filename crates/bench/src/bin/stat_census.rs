//! §V statistics census: the 1159 microarchitectural counters, broken down
//! by pipeline component.

use perspectron::component_of;
use perspectron_bench::render_table;
use sim_cpu::{CoreConfig, Machine};
use uarch_isa::Assembler;
use uarch_stats::Snapshot;

fn main() {
    let mut a = Assembler::new("census");
    a.halt();
    let machine = Machine::single_core(&CoreConfig::default(), a.finish().expect("assembles"));
    let snap = Snapshot::of(&machine, "");

    let mut by_comp: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for name in snap.names() {
        *by_comp.entry(component_of(name)).or_default() += 1;
    }

    println!("STATISTICS CENSUS (paper §V: \"We examined 1159 microarchitectural counters\")\n");
    let rows: Vec<Vec<String>> = by_comp
        .iter()
        .map(|(c, n)| vec![c.to_string(), n.to_string()])
        .collect();
    println!("{}", render_table(&["component", "statistics"], &rows));
    println!("components: {}", by_comp.len());
    println!("total statistics: {}", snap.len());
}

//! Figure 4: perceptron output vs. number of instructions for SpectreV1 at
//! reduced bandwidths (1.0x / 0.75x / 0.5x / 0.25x), plus the
//! detected-before-first-leak check.

use perspectron::{Collector, Run};
use perspectron_bench::{render_series, trained_detector};
use uarch_isa::MarkKind;

fn main() {
    let (_, detector) = trained_detector();
    let quick = std::env::var("PERSPECTRON_QUICK").is_ok();
    let insts = if quick { 200_000 } else { 800_000 };

    println!("FIGURE 4: perceptron output vs instructions, SpectreV1 bandwidths");
    println!(
        "(threshold = {:.2}; leak marks from the simulator)\n",
        detector.threshold
    );

    let mut rows = Vec::new();
    for (bw, w) in workloads::bandwidth_suite() {
        // Online scoring: verdicts arrive per interval while the core runs;
        // the returned marks give the ground-truth leak times.
        let mut monitor = detector.streaming_packed();
        let marks = Collector::default()
            .stream(Run::workload(&w, insts, 10_000), &mut monitor)
            .expect("simulation streams");
        let series: Vec<f64> = monitor.verdicts().iter().map(|v| v.confidence).collect();
        println!(
            "{}",
            render_series(&format!("spectre-v1 {bw:.2}x"), &series)
        );
        let first_flag = monitor.first_alarm().map(|v| v.at_inst);
        let first_leak = marks
            .iter()
            .find(|m| m.kind == MarkKind::LeakByte)
            .map(|m| m.at_inst);
        rows.push((bw, first_flag, first_leak));
    }

    println!(
        "\nbandwidth | first flagged (insts) | first byte leaked (insts) | detected pre-leak?"
    );
    for (bw, flag, leak) in rows {
        let pre = match (flag, leak) {
            (Some(f), Some(l)) => {
                if f <= l {
                    "YES"
                } else {
                    "no"
                }
            }
            (Some(_), None) => "YES (no leak observed)",
            _ => "NOT DETECTED",
        };
        println!(
            "{:>8.2}x | {:>20} | {:>24} | {}",
            bw,
            flag.map_or("never".into(), |f| f.to_string()),
            leak.map_or("none".into(), |l| l.to_string()),
            pre
        );
    }
    println!(
        "\nPaper: all lower-bandwidth versions stay above the cutoff after the first\n\
         complete attack phase; detection precedes the first leaked byte."
    );
}

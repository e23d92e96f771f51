//! Figure 3: perceptron output vs. number of instructions for the twelve
//! polymorphic Spectre variants (none seen in training). All variants
//! should be flagged suspicious at the same sampling interval.

use perspectron::{Collector, Run};
use perspectron_bench::{render_series, trained_detector};

fn main() {
    let (_, detector) = trained_detector();
    let quick = std::env::var("PERSPECTRON_QUICK").is_ok();
    let insts = if quick { 150_000 } else { 400_000 };

    println!("FIGURE 3: perceptron output vs instructions, polymorphic Spectre variants");
    println!(
        "(pre-threshold confidence per 10K-instruction sample; threshold = {:.2})\n",
        detector.threshold
    );

    let mut all_detected = true;
    let mut first_flags = Vec::new();
    for w in workloads::polymorphic_suite() {
        // Online scoring: the detector rides the sample stream, no trace
        // is materialized.
        let mut monitor = detector.streaming_packed();
        Collector::default()
            .stream(Run::workload(&w, insts, 10_000), &mut monitor)
            .expect("simulation streams");
        let series: Vec<f64> = monitor.verdicts().iter().map(|v| v.confidence).collect();
        println!("{}", render_series(&w.name, &series));
        match monitor.first_alarm() {
            Some(v) => first_flags.push((w.name.clone(), v.at_inst)),
            None => {
                all_detected = false;
                println!("    !! never flagged");
            }
        }
    }
    println!();
    for (name, at) in &first_flags {
        println!("{name:<28} first flagged at {at} instructions");
    }
    println!(
        "\n{}",
        if all_detected {
            "All polymorphic variants were flagged as suspicious (paper: \"All variations \
             were detected ... at the same sampling interval\")."
        } else {
            "WARNING: some variants were never flagged."
        }
    );
}

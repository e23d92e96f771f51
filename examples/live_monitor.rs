//! Live monitor: deploy a trained detector as the paper's first line of
//! defense — an online [`perspectron::StreamingDetector`] plugged directly
//! into the running core's sample stream, scoring every 10K-instruction
//! window the moment it closes and raising the alarm (with a confidence)
//! as soon as the footprint turns suspicious. No trace is ever
//! materialized: the monitor sees each interval once, exactly as the
//! hardware perceptron would.
//!
//! ```text
//! cargo run --release --example live_monitor
//! ```

use perspectron::trace::workload_seed;
use perspectron::{
    Collector, CorpusSpec, FaultPlan, FaultSpec, PerSpectron, ResiliencePolicy, Run,
};
use sim_cpu::{CoreConfig, Machine};
use workloads::spectre::{spectre_v1, SpectreV1Params, V1Variant};
use workloads::{Class, Family, Workload};

fn main() {
    // Supervised collection: a watchdog cycle budget per workload, panics
    // quarantined, one retry with a fresh noise seed. On a healthy suite
    // the quarantine stays empty — but a deployment never bets on that.
    println!("training the detector on the standard corpus (supervised collection)...");
    let collector = Collector {
        policy: ResiliencePolicy {
            cycle_budget: Some(100_000_000),
            max_attempts: 2,
            ..ResiliencePolicy::default()
        },
        ..Collector::default()
    };
    let resilient = collector.collect(&CorpusSpec::quick());
    println!("collection: {}", resilient.quarantine_summary());
    for f in &resilient.failures {
        println!("  quarantined: {f}");
    }
    let corpus = resilient.corpus;
    let detector = PerSpectron::train(&corpus, 42);

    // The monitored "process": a polymorphic Spectre variant the detector
    // has never seen, sandwiched between benign phases — the realistic
    // deployment story.
    let suspect = Workload {
        name: "unknown-process".into(),
        class: Class::Malicious,
        family: Family::SpectreV1,
        program: spectre_v1(SpectreV1Params {
            variant: V1Variant::MemcmpLeak,
            delay_iters: 4000, // hides between stretches of benign work
        }),
    };
    println!(
        "monitoring '{}' (never seen in training)...\n",
        suspect.name
    );

    // The detector rides the sample stream: each interval is encoded and
    // scored online, no trace retained. Driving a one-core machine
    // directly (instead of `Collector::stream`) also surfaces the run
    // summary with its wall-clock throughput.
    let mut monitor = detector.streaming_packed();
    let mut machine = Machine::single_core(&CoreConfig::default(), suspect.program.clone());
    machine
        .core_mut(0)
        .set_noise_seed(workload_seed(&suspect.name));
    let summary = machine
        .run_with_sink(300_000, 10_000, &mut monitor)
        .expect("positive interval");
    println!(
        "simulated {} insts in {} cycles ({:.0} insts/s, {:.0} sim cycles/s wall-clock)\n",
        summary.committed, summary.cycles, summary.insts_per_sec, summary.sim_cycles_per_sec
    );

    let mut alarmed = false;
    for v in monitor.verdicts() {
        let status = if v.suspicious { "SUSPICIOUS" } else { "ok" };
        let health = match &v.degraded {
            None => String::new(),
            Some(d) => format!(
                "  [degraded: {} dead sensor bank(s), {} value(s) sanitized]",
                d.missing_components.len(),
                d.sanitized_values
            ),
        };
        println!(
            "  [{:>7} insts] confidence {:>6.3}  {status}{health}",
            v.at_inst, v.confidence
        );
        if v.suspicious && !alarmed {
            alarmed = true;
            println!("  >> ALARM raised: notifying the OS to isolate / monitor the process");
            println!(
                "  >> candidate mitigations: randomize cache indexing, inject branch-\n\
                 \x20\x20   predictor noise, fence unsafe loads (paper §IV-G)"
            );
        }
    }
    if let Some(v) = monitor.first_alarm() {
        println!(
            "\nfirst alarm at {} committed instructions (confidence {:.3})",
            v.at_inst, v.confidence
        );
    } else {
        println!("  no alarm raised (unexpected for this workload)");
    }

    // Second pass, this time through a fault injector: 15% of the sensor
    // banks drop out per interval and 2% of values arrive corrupted. The
    // monitor sanitizes what it can, flags each degraded window, and must
    // still catch the attack.
    println!("\nre-monitoring with injected sensor faults (15% dropout, 2% corruption)...");
    let plan = FaultPlan::new(
        FaultSpec {
            seed: 0xFAB,
            component_dropout: 0.15,
            row_drop: 0.0,
            corruption: 0.02,
            interval_jitter: 0,
        },
        detector.schema(),
    );
    let mut faulted = plan.sink_for(&suspect.name, detector.streaming_packed());
    collector
        .stream(Run::workload(&suspect, 300_000, 10_000), &mut faulted)
        .expect("positive interval");
    let log = faulted.log().clone();
    let monitor = faulted.into_inner();
    println!(
        "injected: {} component dropouts, {} corrupted values over {} intervals",
        log.components_dropped, log.values_corrupted, log.intervals_forwarded
    );
    println!(
        "monitor saw {} degraded window(s) out of {}; every confidence stayed finite",
        monitor.degraded_intervals(),
        monitor.verdicts().len()
    );
    match monitor.first_alarm() {
        Some(v) => println!(
            "still detected: first alarm at {} insts (confidence {:.3})",
            v.at_inst, v.confidence
        ),
        None => println!("attack NOT detected under faults (degradation too severe)"),
    }
}

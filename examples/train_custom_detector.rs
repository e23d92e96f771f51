//! Train a custom detector: the paper's "software defined" weight-update
//! story (§IV-G). A new attack variant appears; we add it to the training
//! corpus, retrain, and ship the new weights into the same hardware.
//!
//! ```text
//! cargo run --release --example train_custom_detector
//! ```

use perspectron::{CorpusSpec, PerSpectron};
use uarch_isa::{Assembler, MarkKind, Reg};
use workloads::layout::{PRIME_ARENA, USER_SECRET, VICTIM_BUF};
use workloads::{Class, Family, Workload};

/// A hand-rolled cache attack that is in none of the standard suites: an
/// "evict+time" loop that never flushes and never reloads the victim line —
/// it times its *own* eviction sweep.
fn evict_time() -> Workload {
    let mut a = Assembler::new("evict-time");
    a.data(VICTIM_BUF, vec![3u8; 64]);
    a.data(USER_SECRET, b"ET".to_vec());
    let victim = a.label();
    let outer = a.label();
    a.jmp(outer);
    a.bind(victim);
    a.li(Reg::R5, VICTIM_BUF as i64);
    a.loadb(Reg::R6, Reg::R5, 0);
    a.ret();
    a.bind(outer);
    a.mark(MarkKind::PhasePrime);
    // Evict by sweeping 16 conflicting lines.
    a.li(Reg::R10, 0);
    let sweep = a.label();
    a.bind(sweep);
    a.li(Reg::R5, (128 * 64) as i64);
    a.mul(Reg::R5, Reg::R5, Reg::R10);
    a.addi(Reg::R5, Reg::R5, PRIME_ARENA as i64);
    a.loadb(Reg::R6, Reg::R5, 0);
    a.addi(Reg::R10, Reg::R10, 1);
    a.li(Reg::R6, 16);
    a.blt(Reg::R10, Reg::R6, sweep);
    a.call(victim);
    a.mark(MarkKind::PhaseProbe);
    // Time the eviction sweep itself.
    a.rdcycle(Reg::R11);
    a.li(Reg::R10, 0);
    let timed = a.label();
    a.bind(timed);
    a.li(Reg::R5, (128 * 64) as i64);
    a.mul(Reg::R5, Reg::R5, Reg::R10);
    a.addi(Reg::R5, Reg::R5, PRIME_ARENA as i64);
    a.loadb(Reg::R6, Reg::R5, 0);
    a.addi(Reg::R10, Reg::R10, 1);
    a.li(Reg::R6, 16);
    a.blt(Reg::R10, Reg::R6, timed);
    a.rdcycle(Reg::R12);
    a.mark(MarkKind::IterationEnd);
    a.jmp(outer);
    Workload {
        name: "evict-time".into(),
        class: Class::Malicious,
        family: Family::PrimeProbe,
        program: a.finish().expect("assembles"),
    }
}

fn main() {
    let novel = evict_time();

    // Baseline detector: trained without the new attack.
    println!("training the stock detector...");
    let stock_corpus = CorpusSpec::quick().collect();
    let stock = PerSpectron::train(&stock_corpus, 42);
    let mut novel_corpus = CorpusSpec {
        insts_per_workload: 200_000,
        sample_interval: 10_000,
        workloads: vec![novel.clone()],
    }
    .collect();
    let trace = novel_corpus.traces.remove(0);
    let stock_hits = stock
        .confidence_series(&trace)
        .iter()
        .filter(|&&c| c >= stock.threshold)
        .count();
    println!(
        "  stock detector flags evict-time in {stock_hits}/{} samples (zero-day behavior)",
        trace.trace.len()
    );

    // Vendor update: add the new attack to the corpus and retrain — same
    // hardware, new weights.
    println!("retraining with the new attack in the corpus...");
    let mut spec = CorpusSpec::quick();
    spec.workloads.push(novel);
    let updated_corpus = spec.collect();
    let updated = PerSpectron::train(&updated_corpus, 42);
    let updated_hits = updated
        .confidence_series(&trace)
        .iter()
        .filter(|&&c| c >= updated.threshold)
        .count();
    println!(
        "  updated detector flags evict-time in {updated_hits}/{} samples",
        trace.trace.len()
    );
    assert!(updated_hits >= stock_hits);

    let report = updated.evaluate(&updated_corpus);
    println!(
        "  corpus-wide accuracy after the update: {:.4} (fp workloads: {:?})",
        report.confusion.accuracy(),
        report.false_positive_workloads
    );
    println!(
        "\nThe weights are small ({} bytes at 8-bit quantization) — cheap to ship as a\n\
         vendor patch, as §IV-G proposes.",
        updated.selection().selected.len()
    );
}

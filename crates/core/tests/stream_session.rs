//! The two-phase `StreamSession` driven by hand matches the single-stream
//! sink bit for bit, and sessions quarantine on consecutive degradation
//! and recover on reset.

use std::sync::OnceLock;

use perspectron::{CollectedCorpus, CorpusSpec, PerSpectron, SessionState, StreamSession};
use uarch_stats::SampleSink;

fn tiny_spec() -> CorpusSpec {
    let mut all = workloads::full_suite();
    all.retain(|w| w.name == "flush-reload" || w.name == "hmmer");
    CorpusSpec {
        insts_per_workload: 60_000,
        sample_interval: 10_000,
        workloads: all,
    }
}

fn corpus() -> &'static CollectedCorpus {
    static C: OnceLock<CollectedCorpus> = OnceLock::new();
    C.get_or_init(|| tiny_spec().collect())
}

fn detector() -> &'static PerSpectron {
    static D: OnceLock<PerSpectron> = OnceLock::new();
    D.get_or_init(|| PerSpectron::train(corpus(), 7))
}

/// Synthetic but deterministic raw rows: scaled shifts of a real trace's
/// first row, so the encoder sees varied (not degenerate) values.
fn synth_rows(n: usize) -> Vec<Vec<f64>> {
    let trace = &corpus().traces[0].trace;
    let width = trace.schema().len();
    let flat = trace.flat_values();
    (0..n)
        .map(|i| {
            (0..width)
                .map(|c| {
                    let base = flat[(i % trace.len()) * width + c];
                    base * (1.0 + 0.125 * ((i + c) % 5) as f64)
                })
                .collect()
        })
        .collect()
}

/// The service's two-phase session (open → batch elsewhere → close) must
/// reproduce the single-stream packed sink exactly, including degraded
/// accounting, when driven window by window.
#[test]
fn stream_session_two_phase_scoring_matches_the_packed_sink() {
    let det = detector();
    let mut rows = synth_rows(70);
    // Inject corruption so degraded accounting is exercised too.
    rows[10][0] = f64::NAN;
    rows[33][5] = f64::INFINITY;

    let mut sink = det.streaming_packed();
    for (i, r) in rows.iter().enumerate() {
        sink.on_sample((i as u64 + 1) * 10_000, r);
    }

    let encoder = det.packed_encoder();
    let engine = det.packed_perceptron().clone();
    let mut session = StreamSession::new(det);
    let mut bits = mlkit::BitRow::zeros(encoder.width());
    for (i, r) in rows.iter().enumerate() {
        let mut owned = r.clone();
        let (point, degraded) = session.open_window(&mut owned);
        assert_eq!(point, i);
        encoder.encode_bits_into(&owned, point, &mut bits);
        let raw = engine.score_bits(&bits);
        session.close_window(det, (i as u64 + 1) * 10_000, degraded, raw);
    }

    assert_eq!(session.verdicts().len(), sink.verdicts().len());
    for (a, b) in session.verdicts().iter().zip(sink.verdicts()) {
        assert_eq!(a.at_inst, b.at_inst);
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        assert_eq!(a.suspicious, b.suspicious);
        assert_eq!(a.degraded, b.degraded);
    }
}

#[test]
fn sessions_quarantine_on_consecutive_degradation_and_recover_on_reset() {
    let det = detector();
    let width = det.schema().len();
    let healthy = synth_rows(1).remove(0);
    let dead = vec![0.0f64; width];

    let mut s = StreamSession::new(det).with_quarantine_after(3);
    let encoder = det.packed_encoder();
    let engine = det.packed_perceptron().clone();
    let mut bits = mlkit::BitRow::zeros(encoder.width());
    let mut drive = |s: &mut StreamSession, row: &[f64]| {
        let mut owned = row.to_vec();
        let (point, degraded) = s.open_window(&mut owned);
        encoder.encode_bits_into(&owned, point, &mut bits);
        let raw = engine.score_bits(&bits);
        s.close_window(det, (point as u64 + 1) * 10_000, degraded, raw);
    };

    drive(&mut s, &healthy);
    assert_eq!(s.state(), SessionState::Healthy);
    drive(&mut s, &dead);
    assert_eq!(s.state(), SessionState::Degraded);
    drive(&mut s, &healthy);
    assert_eq!(
        s.state(),
        SessionState::Healthy,
        "one clean window recovers"
    );
    for _ in 0..3 {
        drive(&mut s, &dead);
    }
    assert_eq!(s.state(), SessionState::Quarantined);
    drive(&mut s, &healthy);
    assert_eq!(
        s.state(),
        SessionState::Quarantined,
        "quarantine is sticky until operator reset"
    );
    assert_eq!(s.degraded_windows(), 4);
    assert_eq!(s.verdicts().len(), 7, "quarantine never drops windows");

    s.reset();
    assert_eq!(s.state(), SessionState::Healthy);
    assert_eq!(s.windows_opened(), 0);
    assert!(s.verdicts().is_empty());
}

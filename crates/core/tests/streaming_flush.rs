//! Edge cases of the packed path's `flush()` the detection service leans
//! on: empty flushes, double flushes, interleaved push/flush across batch
//! boundaries, and the two-phase `StreamSession` matching the
//! single-stream sink bit for bit.

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

#[test]
fn flush_with_zero_pending_windows_is_a_noop() {
    let det = detector();
    let mut mon = det.streaming_packed();
    assert_eq!(mon.pending_intervals(), 0);
    mon.flush();
    assert_eq!(mon.verdicts().len(), 0);

    // Scalar path: flush is always a no-op, pending is always zero.
    let mut scalar = det.streaming();
    scalar.flush();
    assert_eq!(scalar.verdicts().len(), 0);
    assert_eq!(scalar.pending_intervals(), 0);
}

#[test]
fn double_flush_does_not_duplicate_verdicts() {
    let det = detector();
    let rows = synth_rows(5);
    let mut mon = det.streaming_packed();
    for (i, r) in rows.iter().enumerate() {
        mon.on_sample((i as u64 + 1) * 10_000, r);
    }
    assert_eq!(mon.pending_intervals(), 5);
    mon.flush();
    let after_first = mon.verdicts().to_vec();
    assert_eq!(after_first.len(), 5);
    assert_eq!(mon.pending_intervals(), 0);
    mon.flush();
    assert_eq!(
        mon.verdicts(),
        &after_first[..],
        "second flush must not re-score or duplicate"
    );
}

#[test]
fn interleaved_push_flush_matches_one_final_flush_across_batch_boundaries() {
    let det = detector();
    // Enough rows to cross the 64-window batch boundary several times.
    let rows = synth_rows(200);

    // Reference: push everything, flush once at the end (internal sweeps
    // fire at each full batch).
    let mut reference = det.streaming_packed();
    for (i, r) in rows.iter().enumerate() {
        reference.on_sample((i as u64 + 1) * 10_000, r);
    }
    reference.flush();

    // Adversarial flush cadence: partial batches of awkward sizes,
    // including flushes landing exactly on and just past the boundary.
    let mut interleaved = det.streaming_packed();
    let mut next = 0;
    for (chunk, flushes) in [(1, 1), (63, 1), (64, 2), (65, 1), (3, 3), (4, 1)] {
        for _ in 0..chunk {
            let r = &rows[next];
            interleaved.on_sample((next as u64 + 1) * 10_000, r);
            next += 1;
        }
        for _ in 0..flushes {
            interleaved.flush();
        }
    }
    while next < rows.len() {
        interleaved.on_sample((next as u64 + 1) * 10_000, &rows[next]);
        next += 1;
    }
    interleaved.flush();

    assert_eq!(reference.verdicts().len(), rows.len());
    assert_eq!(interleaved.verdicts().len(), rows.len());
    for (a, b) in reference.verdicts().iter().zip(interleaved.verdicts()) {
        assert_eq!(a.at_inst, b.at_inst);
        assert_eq!(
            a.confidence.to_bits(),
            b.confidence.to_bits(),
            "flush cadence must never change a verdict"
        );
        assert_eq!(a.suspicious, b.suspicious);
        assert_eq!(a.degraded, b.degraded);
    }
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
    sink.flush();

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

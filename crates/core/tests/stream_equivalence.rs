//! Batch/stream and serial/parallel equivalence: the streaming pipeline
//! must be a pure refactoring of the batch path — identical detector
//! verdicts, byte-equal corpora — on the full
//! `CorpusSpec::quick()` suite.

use std::sync::OnceLock;

use perspectron::{CollectedCorpus, Collector, CorpusSpec, PerSpectron, Run};

fn spec() -> CorpusSpec {
    CorpusSpec::quick()
}

fn serial_corpus() -> &'static CollectedCorpus {
    static C: OnceLock<CollectedCorpus> = OnceLock::new();
    C.get_or_init(|| collect_with_threads(1))
}

fn collect_with_threads(threads: usize) -> CollectedCorpus {
    let mut collector = Collector::default();
    collector.policy.threads = Some(threads);
    collector
        .collect(&spec())
        .into_result()
        .expect("quick corpus collects")
}

#[test]
fn parallel_collection_is_byte_equal_to_serial_on_quick() {
    let serial = serial_corpus();
    let parallel = collect_with_threads(4);
    assert_eq!(serial.traces.len(), parallel.traces.len());
    for (a, b) in serial.traces.iter().zip(&parallel.traces) {
        assert_eq!(a.name, b.name, "ordered merge must preserve spec order");
        assert_eq!(a.class, b.class);
        assert_eq!(a.family, b.family);
        assert_eq!(
            a.trace.flat_values(),
            b.trace.flat_values(),
            "{}: parallel trace bytes differ from serial",
            a.name
        );
        assert_eq!(a.trace.instruction_counts(), b.trace.instruction_counts());
        assert_eq!(a.marks, b.marks, "{}: marks differ", a.name);
    }
}

#[test]
fn streaming_verdicts_match_batch_confidence_series_on_quick() {
    let corpus = serial_corpus();
    let detector = PerSpectron::train(corpus, 42);

    for (w, t) in spec().workloads.iter().zip(&corpus.traces) {
        let batch: Vec<f64> = detector.confidence_series(t);
        let mut monitor = detector.streaming_packed();
        Collector::default()
            .stream(
                Run::workload(w, spec().insts_per_workload, spec().sample_interval),
                &mut monitor,
            )
            .expect("simulation streams");
        let verdicts = monitor.verdicts();
        assert_eq!(
            verdicts.len(),
            batch.len(),
            "{}: interval counts differ",
            w.name
        );
        for (v, c) in verdicts.iter().zip(&batch) {
            assert_eq!(
                v.confidence.to_bits(),
                c.to_bits(),
                "{}: online confidence must be bit-identical to batch",
                w.name
            );
            assert_eq!(
                v.suspicious,
                *c >= detector.threshold,
                "{}: online verdict must match batch thresholding",
                w.name
            );
        }
    }
}

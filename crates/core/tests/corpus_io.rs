//! Corpus IO contract: write → mmap-read is byte-identical, corruption
//! is rejected with typed errors, and the header layout is pinned
//! little-endian by a golden fixture so the format can never silently
//! drift with host endianness or struct layout.

use std::io::Write;
use std::path::PathBuf;

use perspectron::corpus_io::{self, corpus_to_bytes, CorpusIoError, HEADER_LEN, MAGIC, VERSION};
use perspectron::{CorpusReader, CorpusSpec};

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "perspectron_corpus_{tag}_{}_{tid:?}",
        std::process::id(),
        tid = std::thread::current().id()
    ))
}

/// A couple of real simulator traces, small enough for CI.
fn tiny_corpus() -> perspectron::CollectedCorpus {
    let mut spec = CorpusSpec::quick();
    spec.workloads.truncate(3);
    spec.collect()
}

#[test]
fn write_then_mmap_read_round_trips_byte_identically() {
    let corpus = tiny_corpus();
    let path = tmp_path("roundtrip");
    corpus_io::write_corpus(&path, &corpus).expect("write");

    let reader = CorpusReader::open(&path).expect("open");
    assert!(
        reader.is_mapped(),
        "unix test hosts should take the mmap path"
    );
    assert_eq!(reader.sample_interval(), corpus.sample_interval);
    assert_eq!(reader.n_traces(), corpus.traces.len());
    assert_eq!(reader.schema().names(), corpus.schema().names());

    let loaded = reader.load_all().expect("load_all");
    assert_eq!(loaded.sample_interval, corpus.sample_interval);
    for (orig, back) in corpus.traces.iter().zip(&loaded.traces) {
        assert_eq!(orig.name, back.name);
        assert_eq!(orig.class, back.class);
        assert_eq!(orig.family, back.family);
        assert_eq!(orig.marks, back.marks);
        assert_eq!(
            orig.trace.instruction_counts(),
            back.trace.instruction_counts()
        );
        // Sample values must survive the trip bit-for-bit, not just
        // approximately: compare the raw f64 bit patterns.
        let a = orig.trace.flat_values();
        let b = back.trace.flat_values();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "value drifted in {}", orig.name);
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn pread_fallback_reads_the_same_bytes_as_the_map() {
    let corpus = tiny_corpus();
    let path = tmp_path("pread");
    corpus_io::write_corpus(&path, &corpus).expect("write");

    let mapped = CorpusReader::open(&path).expect("open mapped");
    let pread = CorpusReader::open_pread(&path).expect("open pread");
    assert!(!pread.is_mapped());

    let n_cols = mapped.schema().len();
    let mut row_a = Vec::new();
    let mut row_b = Vec::new();
    for t in 0..mapped.n_traces() {
        for j in 0..mapped.trace_meta(t).rows {
            let ia = mapped.read_row(t, j, &mut row_a).expect("mapped row");
            let ib = pread.read_row(t, j, &mut row_b).expect("pread row");
            assert_eq!(ia, ib);
            assert_eq!(row_a.len(), n_cols);
            for (x, y) in row_a.iter().zip(&row_b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_files_are_rejected_with_a_typed_error() {
    let corpus = tiny_corpus();
    let bytes = corpus_to_bytes(&corpus);

    // Chop mid-payload: the header's promised length no longer matches.
    let path = tmp_path("truncated");
    std::fs::write(&path, &bytes[..bytes.len() - 64]).expect("write truncated");
    match CorpusReader::open(&path) {
        Err(CorpusIoError::Truncated { expected, actual }) => {
            assert_eq!(expected, bytes.len() as u64);
            assert_eq!(actual, (bytes.len() - 64) as u64);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }

    // A file shorter than the fixed header is also Truncated, not a parse
    // panic.
    std::fs::write(&path, &bytes[..HEADER_LEN / 2]).expect("write stub");
    assert!(matches!(
        CorpusReader::open(&path),
        Err(CorpusIoError::Truncated { .. })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_payloads_fail_the_checksum() {
    let corpus = tiny_corpus();
    let mut bytes = corpus_to_bytes(&corpus);

    // Flip one bit deep inside the column pages; length still matches.
    let victim = bytes.len() - 9;
    bytes[victim] ^= 0x40;
    let path = tmp_path("checksum");
    std::fs::write(&path, &bytes).expect("write corrupted");
    assert!(matches!(
        CorpusReader::open(&path),
        Err(CorpusIoError::ChecksumMismatch { .. })
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn wrong_magic_and_future_versions_are_rejected() {
    let corpus = tiny_corpus();
    let bytes = corpus_to_bytes(&corpus);

    let path = tmp_path("magic");
    let mut evil = bytes.clone();
    evil[..4].copy_from_slice(b"ELF\x7f");
    std::fs::write(&path, &evil).expect("write");
    match CorpusReader::open(&path) {
        Err(CorpusIoError::BadMagic(m)) => assert_eq!(&m, b"ELF\x7f"),
        other => panic!("expected BadMagic, got {other:?}"),
    }

    let mut future = bytes;
    future[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
    std::fs::write(&path, &future).expect("write");
    assert!(matches!(
        CorpusReader::open(&path),
        Err(CorpusIoError::UnsupportedVersion(v)) if v == VERSION + 1
    ));
    std::fs::remove_file(&path).ok();
}

/// Pins the exact on-disk header bytes for a hand-built two-trace corpus.
/// Every field is little-endian **by definition**; if this test fails on
/// any host, the format — not the test — is wrong.
#[test]
fn golden_header_fixture_is_endianness_pinned() {
    use sim_cpu::MarkEvent;
    use uarch_isa::MarkKind;
    use uarch_stats::{SampleTrace, Schema};
    use workloads::{Class, Family};

    let schema = Schema::from_names(vec!["alpha".into(), "b".into()]);
    let mut t0 = SampleTrace::new(schema.clone());
    t0.push(10_000, &[1.0, 2.5]);
    t0.push(20_000, &[3.0, -0.5]);
    let mut t1 = SampleTrace::new(schema);
    t1.push(10_000, &[0.0, f64::from_bits(0x0123_4567_89ab_cdef)]);
    let corpus = perspectron::CollectedCorpus {
        traces: vec![
            perspectron::LabeledTrace {
                name: "spectre_v1".into(),
                class: Class::Malicious,
                family: Family::SpectreV1,
                trace: t0,
                marks: vec![MarkEvent {
                    kind: MarkKind::LeakByte,
                    at_inst: 0x1122,
                    at_cycle: 0x3344,
                }],
            },
            perspectron::LabeledTrace {
                name: "idle".into(),
                class: Class::Benign,
                family: Family::Benign,
                trace: t1,
                marks: vec![],
            },
        ],
        sample_interval: 10_000,
    };

    let bytes = corpus_to_bytes(&corpus);

    // -- fixed header ------------------------------------------------
    let mut golden = Vec::new();
    golden.extend_from_slice(&MAGIC); // "PSPC"
    golden.extend_from_slice(&1u32.to_le_bytes()); // version
    golden.extend_from_slice(&2u32.to_le_bytes()); // n_traces
    golden.extend_from_slice(&2u32.to_le_bytes()); // n_cols
    golden.extend_from_slice(&10_000u64.to_le_bytes()); // sample interval
    let payload_len = (bytes.len() - HEADER_LEN) as u64;
    golden.extend_from_slice(&payload_len.to_le_bytes());
    // checksum + reserved checked structurally below
    assert_eq!(&bytes[..32], &golden[..32], "fixed header bytes drifted");
    assert_eq!(&bytes[40..48], &[0u8; 8], "reserved word must be zero");

    // -- payload front: name table then trace directory --------------
    let p = &bytes[HEADER_LEN..];
    let mut golden_front = Vec::new();
    for s in ["alpha", "b", "spectre_v1"] {
        golden_front.extend_from_slice(&(s.len() as u32).to_le_bytes());
        golden_front.extend_from_slice(s.as_bytes());
    }
    golden_front.push(0); // class: Malicious
    golden_front.push(0); // family: SpectreV1
    golden_front.extend_from_slice(&0u16.to_le_bytes()); // padding
    golden_front.extend_from_slice(&2u32.to_le_bytes()); // rows
    golden_front.extend_from_slice(&1u32.to_le_bytes()); // marks
    golden_front.push(0); // MarkKind::LeakByte
    golden_front.extend_from_slice(&0x1122u64.to_le_bytes());
    golden_front.extend_from_slice(&0x3344u64.to_le_bytes());
    assert_eq!(&p[..golden_front.len()], &golden_front[..]);

    // -- round-trip sanity on the exotic bit pattern ------------------
    let path = tmp_path("golden");
    std::fs::File::create(&path)
        .and_then(|mut f| f.write_all(&bytes))
        .expect("write");
    let reader = CorpusReader::open(&path).expect("open");
    let back = reader.load_all().expect("load");
    assert_eq!(
        back.traces[1].trace.flat_values()[1].to_bits(),
        0x0123_4567_89ab_cdef
    );
    std::fs::remove_file(&path).ok();
}

/// A hand-built corpus of `n` two-row traces over three columns.
fn small_corpus(n: usize) -> perspectron::CollectedCorpus {
    use uarch_stats::{SampleTrace, Schema};
    use workloads::{Class, Family};

    let schema = Schema::from_names(vec!["alpha".into(), "b".into(), "gamma".into()]);
    let traces = (0..n)
        .map(|k| {
            let mut trace = SampleTrace::new(schema.clone());
            trace.push(10_000, &[k as f64, 2.5, 0.0]);
            trace.push(20_000, &[3.0, -0.5, k as f64]);
            perspectron::LabeledTrace {
                name: format!("trace{k}"),
                class: Class::Benign,
                family: Family::Benign,
                trace,
                marks: vec![],
            }
        })
        .collect();
    perspectron::CollectedCorpus {
        traces,
        sample_interval: 10_000,
    }
}

/// Every label variant has an on-disk code: one trace per `Family`
/// (both `Class`es among them), each carrying one mark per `MarkKind`,
/// writes and reads back unchanged. The codes live in lookup tables, so
/// a variant missing from one compiles and only fails when written; the
/// exhaustive `match`es here stop compiling when a variant is added,
/// which is the cue to list it below and have this test write it.
#[test]
fn every_label_variant_round_trips() {
    use sim_cpu::MarkEvent;
    use uarch_isa::MarkKind;
    use uarch_stats::{SampleTrace, Schema};
    use workloads::{Class, Family};

    let families = [
        Family::SpectreV1,
        Family::SpectreV2,
        Family::SpectreRsb,
        Family::Meltdown,
        Family::BreakingKslr,
        Family::CacheOut,
        Family::FlushFlush,
        Family::FlushReload,
        Family::PrimeProbe,
        Family::Calibration,
        Family::Benign,
    ];
    let kinds = [
        MarkKind::LeakByte,
        MarkKind::PhasePrime,
        MarkKind::PhaseSpeculate,
        MarkKind::PhaseProbe,
        MarkKind::IterationEnd,
    ];
    let class_of = |f: Family| match f {
        Family::SpectreV1
        | Family::SpectreV2
        | Family::SpectreRsb
        | Family::Meltdown
        | Family::BreakingKslr
        | Family::CacheOut
        | Family::FlushFlush
        | Family::FlushReload
        | Family::PrimeProbe
        | Family::Calibration => Class::Malicious,
        Family::Benign => Class::Benign,
    };
    for k in kinds {
        match k {
            MarkKind::LeakByte
            | MarkKind::PhasePrime
            | MarkKind::PhaseSpeculate
            | MarkKind::PhaseProbe
            | MarkKind::IterationEnd => {}
        }
    }

    let schema = Schema::from_names(vec!["alpha".into()]);
    let traces: Vec<_> = families
        .iter()
        .enumerate()
        .map(|(i, &family)| {
            let mut trace = SampleTrace::new(schema.clone());
            trace.push(10_000, &[i as f64]);
            let marks = kinds
                .iter()
                .enumerate()
                .map(|(m, &kind)| MarkEvent {
                    kind,
                    at_inst: m as u64,
                    at_cycle: 2 * m as u64,
                })
                .collect();
            perspectron::LabeledTrace {
                name: format!("{family:?}"),
                class: class_of(family),
                family,
                trace,
                marks,
            }
        })
        .collect();
    for class in [Class::Malicious, Class::Benign] {
        assert!(traces.iter().any(|t| t.class == class), "{class:?}");
    }
    let corpus = perspectron::CollectedCorpus {
        traces,
        sample_interval: 10_000,
    };

    let path = tmp_path("labels");
    corpus_io::write_corpus(&path, &corpus).expect("write");
    let back = CorpusReader::open(&path)
        .and_then(|r| r.load_all())
        .expect("read back");
    assert_eq!(back.traces.len(), families.len());
    for (orig, back) in corpus.traces.iter().zip(&back.traces) {
        assert_eq!(orig.name, back.name);
        assert_eq!(orig.class, back.class);
        assert_eq!(orig.family, back.family);
        assert_eq!(orig.marks, back.marks);
    }
    std::fs::remove_file(&path).ok();
}

/// The trace and column counts (header bytes 8..16) sit outside the
/// payload checksum. Every single-bit flip of them must be refused as a
/// corrupt payload by both readers — never reserve memory for the bogus
/// count, never panic, and never parse as a shorter or wider corpus.
#[test]
fn flipped_header_counts_are_rejected_not_trusted() {
    for n in [1, 3] {
        let bytes = corpus_to_bytes(&small_corpus(n));
        let path = tmp_path(&format!("header_flip{n}"));
        std::fs::write(&path, &bytes).expect("write");
        assert_eq!(CorpusReader::open(&path).expect("clean").n_traces(), n);
        for byte in 8..16 {
            for bit in 0..8 {
                let mut evil = bytes.clone();
                evil[byte] ^= 1 << bit;
                std::fs::write(&path, &evil).expect("write flipped");
                for (how, opened) in [
                    ("map", CorpusReader::open(&path)),
                    ("pread", CorpusReader::open_pread(&path)),
                ] {
                    assert!(
                        matches!(opened, Err(CorpusIoError::Corrupt(_))),
                        "{n} traces, byte {byte} bit {bit}, {how}: {opened:?}"
                    );
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Resident file-backed memory of this process, in KiB: `RssFile` plus
/// `RssShmem`, which is where the pages of a mapped tmpfs file land.
#[cfg(target_os = "linux")]
fn resident_file_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .filter(|l| l.starts_with("RssFile:") || l.starts_with("RssShmem:"))
        .map(|l| {
            l.split_whitespace()
                .nth(1)
                .and_then(|kb| kb.parse::<u64>().ok())
                .expect("a kB count")
        })
        .sum()
}

/// `open` validates a corpus without faulting its column pages into the
/// process: the checksum streams through a fixed buffer, and only the
/// name table and directory are read off the map. Rows read afterwards
/// come back bit-exact.
#[cfg(target_os = "linux")]
#[test]
fn open_leaves_the_corpus_on_disk() {
    use uarch_stats::{SampleTrace, Schema};
    use workloads::{Class, Family};

    const COLS: usize = 64;
    const ROWS: usize = 65_536;
    let value =
        |j: usize, c: usize| f64::from_bits(((j as u64) << 16 | c as u64) ^ 0x4010_0000_0000_0000);
    let schema = Schema::from_names((0..COLS).map(|c| format!("col{c}")).collect());
    let mut trace = SampleTrace::new(schema);
    let mut row = vec![0.0; COLS];
    for j in 0..ROWS {
        for (c, v) in row.iter_mut().enumerate() {
            *v = value(j, c);
        }
        trace.push(10_000 * (j as u64 + 1), &row);
    }
    let corpus = perspectron::CollectedCorpus {
        traces: vec![perspectron::LabeledTrace {
            name: "wide".into(),
            class: Class::Benign,
            family: Family::Benign,
            trace,
            marks: vec![],
        }],
        sample_interval: 10_000,
    };
    let path = tmp_path("resident");
    corpus_io::write_corpus(&path, &corpus).expect("write");
    drop(corpus);
    let payload_kib = (std::fs::metadata(&path).expect("stat").len() - HEADER_LEN as u64) / 1024;
    assert!(payload_kib >= 32 * 1024, "payload of {payload_kib} KiB");

    let before = resident_file_kib();
    let reader = CorpusReader::open(&path).expect("open");
    let growth = resident_file_kib().saturating_sub(before);
    assert!(
        growth < payload_kib / 4,
        "open made {growth} KiB of a {payload_kib} KiB payload resident"
    );

    for j in [0, ROWS - 1] {
        let at = reader.read_row(0, j, &mut row).expect("read_row");
        assert_eq!(at, 10_000 * (j as u64 + 1));
        for (c, v) in row.iter().enumerate() {
            assert_eq!(v.to_bits(), value(j, c).to_bits(), "row {j} column {c}");
        }
    }
    std::fs::remove_file(&path).ok();
}

//! An on-disk columnar corpus format, memory-mappable for replay at scale.
//!
//! The service story (DESIGN §5i) needs million-row corpora streamed into
//! thousands of replay clients without ever holding the corpus resident.
//! This module is the storage half of that: a [`CollectedCorpus`] writes
//! to a single little-endian file — fixed header, schema name table,
//! per-trace directory (label, family, marks), then per-trace **column
//! pages**: the instruction counts as one contiguous `u64` page followed
//! by each statistic column as one contiguous `f64` page. Column-major
//! pages mean a reader touching one counter's time series faults in only
//! that column's bytes.
//!
//! Reading goes through [`CorpusReader`], which memory-maps the file
//! read-only — the kernel pages column data in on demand — and falls
//! back to positioned reads (`pread`-style
//! [`std::os::unix::fs::FileExt::read_at`]) when mapping is unavailable
//! or explicitly disabled. Opening checks the whole payload against its
//! FNV-1a checksum by streaming the file through one fixed buffer, so the
//! pages it hashes land in the page cache, not in the process; the mapped
//! reader parses only the name table and directory off the map.
//! Truncation and corruption surface as typed [`CorpusIoError`]s, never
//! as garbage samples.
//!
//! All multi-byte fields are little-endian **by definition** (not host
//! order): the same file parses identically on any architecture, pinned
//! by the golden-header fixture in `crates/core/tests/corpus_io.rs`.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

use sim_cpu::MarkEvent;
use uarch_isa::MarkKind;
use uarch_stats::{SampleTrace, Schema};
use workloads::{Class, Family};

use crate::faults::{fnv1a, FNV1A_OFFSET};
use crate::mmap::MappedFile;
use crate::trace::{CollectedCorpus, LabeledTrace};

/// File magic: the first four bytes of every corpus file.
pub const MAGIC: [u8; 4] = *b"PSPC";

/// Current format version.
pub const VERSION: u32 = 1;

/// Fixed header length in bytes (magic, version, counts, interval,
/// payload length, payload checksum, reserved word).
pub const HEADER_LEN: usize = 48;

/// Bytes `open` hashes per `read` while checksumming the payload.
const CHECKSUM_CHUNK: usize = 1 << 16;

/// Why a corpus file could not be written or read.
#[derive(Debug)]
pub enum CorpusIoError {
    /// An underlying I/O failure (open, read, write, map).
    Io(io::Error),
    /// The file does not start with [`MAGIC`] — not a corpus file.
    BadMagic([u8; 4]),
    /// The file's format version is newer than this reader understands.
    UnsupportedVersion(u32),
    /// The file is shorter than its header claims — a torn or truncated
    /// write.
    Truncated {
        /// Bytes the header promised.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The payload bytes do not hash to the header's checksum.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually read.
        actual: u64,
    },
    /// Structurally invalid payload (bad string, out-of-range label,
    /// directory overrun) despite a passing checksum.
    Corrupt(String),
}

impl std::fmt::Display for CorpusIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusIoError::Io(e) => write!(f, "corpus io: {e}"),
            CorpusIoError::BadMagic(m) => {
                write!(
                    f,
                    "not a corpus file (magic {m:02x?}, expected {MAGIC:02x?})"
                )
            }
            CorpusIoError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "corpus format version {v} is newer than supported {VERSION}"
                )
            }
            CorpusIoError::Truncated { expected, actual } => write!(
                f,
                "corpus file truncated: header promises {expected} bytes, file has {actual}"
            ),
            CorpusIoError::ChecksumMismatch { expected, actual } => write!(
                f,
                "corpus payload checksum mismatch: header {expected:#018x}, computed {actual:#018x}"
            ),
            CorpusIoError::Corrupt(what) => write!(f, "corrupt corpus payload: {what}"),
        }
    }
}

impl std::error::Error for CorpusIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusIoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CorpusIoError {
    fn from(e: io::Error) -> Self {
        CorpusIoError::Io(e)
    }
}

// On-disk codes of the label enums: a variant's code is its index in
// its table. Appending keeps old files readable; reordering breaks them.
const CLASSES: [Class; 2] = [Class::Malicious, Class::Benign];
const FAMILIES: [Family; 11] = [
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
const MARKS: [MarkKind; 5] = [
    MarkKind::LeakByte,
    MarkKind::PhasePrime,
    MarkKind::PhaseSpeculate,
    MarkKind::PhaseProbe,
    MarkKind::IterationEnd,
];

fn code<T: PartialEq>(table: &[T], v: T) -> u8 {
    table
        .iter()
        .position(|x| *x == v)
        .expect("every variant has an on-disk code") as u8
}

fn decode<T: Copy>(table: &[T], code: u8, what: &str) -> Result<T, CorpusIoError> {
    table
        .get(usize::from(code))
        .copied()
        .ok_or_else(|| CorpusIoError::Corrupt(format!("{what} code {code}")))
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Serializes a corpus into the on-disk byte layout (header + payload).
/// Exposed so tests can pin the golden header without touching the
/// filesystem.
pub fn corpus_to_bytes(corpus: &CollectedCorpus) -> Vec<u8> {
    let names = corpus
        .traces
        .first()
        .map_or(&[][..], |t| t.trace.schema().names());
    let n_cols = names.len();

    // The layout is fixed by the counts, so the output is sized once: page
    // offsets are absolute file offsets, and the pages start after the
    // directory, padded to 8 bytes.
    let names_len: usize = names.iter().map(|n| 4 + n.len()).sum();
    let dir_len: usize = corpus
        .traces
        .iter()
        .map(|t| 4 + t.name.len() + 1 + 1 + 2 + 4 + 4 + 17 * t.marks.len() + 8)
        .sum();
    let pages_start = (HEADER_LEN + names_len + dir_len).next_multiple_of(8);
    let pages_len: usize = corpus
        .traces
        .iter()
        .map(|t| 8 * t.trace.len() * (1 + n_cols))
        .sum();
    let mut out = Vec::with_capacity(pages_start + pages_len);

    // Header; the payload length and checksum (bytes 24..40) are patched
    // in once the payload is behind it.
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(corpus.traces.len() as u32).to_le_bytes());
    out.extend_from_slice(&(n_cols as u32).to_le_bytes());
    out.extend_from_slice(&corpus.sample_interval.to_le_bytes());
    out.resize(HEADER_LEN, 0);

    // 1. Schema name table.
    for name in names {
        put_str(&mut out, name);
    }

    // 2. Trace directory.
    let mut pages_off = pages_start as u64;
    for t in &corpus.traces {
        let rows = t.trace.len() as u64;
        put_str(&mut out, &t.name);
        out.push(code(&CLASSES, t.class));
        out.push(code(&FAMILIES, t.family));
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&(rows as u32).to_le_bytes());
        out.extend_from_slice(&(t.marks.len() as u32).to_le_bytes());
        for m in &t.marks {
            out.push(code(&MARKS, m.kind));
            out.extend_from_slice(&m.at_inst.to_le_bytes());
            out.extend_from_slice(&m.at_cycle.to_le_bytes());
        }
        out.extend_from_slice(&pages_off.to_le_bytes());
        pages_off += 8 * rows * (1 + n_cols as u64);
    }
    out.resize(pages_start, 0);

    // 3. Column pages, one trace after another: the u64 instruction-count
    // page, then every statistic column as a contiguous f64 page.
    for t in &corpus.traces {
        for &insts in t.trace.instruction_counts() {
            out.extend_from_slice(&insts.to_le_bytes());
        }
        let flat = t.trace.flat_values();
        let rows = t.trace.len();
        for c in 0..n_cols {
            for r in 0..rows {
                out.extend_from_slice(&flat[r * n_cols + c].to_le_bytes());
            }
        }
    }
    debug_assert_eq!(out.len(), pages_start + pages_len);

    let payload_len = (out.len() - HEADER_LEN) as u64;
    let checksum = fnv1a(FNV1A_OFFSET, &out[HEADER_LEN..]);
    out[24..32].copy_from_slice(&payload_len.to_le_bytes());
    out[32..40].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// Writes a corpus to `path` in the columnar on-disk format.
///
/// # Errors
///
/// Returns [`CorpusIoError::Io`] on filesystem failures.
pub fn write_corpus(path: impl AsRef<Path>, corpus: &CollectedCorpus) -> Result<(), CorpusIoError> {
    let bytes = corpus_to_bytes(corpus);
    let mut f = File::create(path)?;
    f.write_all(&bytes)?;
    f.sync_all()?;
    Ok(())
}

/// How the reader fetches bytes: a read-only memory map, or positioned
/// reads against the open file.
#[derive(Debug)]
enum Source {
    Mapped(MappedFile),
    Pread { file: File, len: u64 },
}

impl Source {
    fn len(&self) -> u64 {
        match self {
            Source::Mapped(m) => m.len() as u64,
            Source::Pread { len, .. } => *len,
        }
    }

    /// Copies `buf.len()` bytes starting at `off` into `buf`.
    fn read_into(&self, off: u64, buf: &mut [u8]) -> Result<(), CorpusIoError> {
        let end = off + buf.len() as u64;
        if end > self.len() {
            return Err(CorpusIoError::Truncated {
                expected: end,
                actual: self.len(),
            });
        }
        match self {
            Source::Mapped(m) => {
                buf.copy_from_slice(&m.as_bytes()[off as usize..end as usize]);
                Ok(())
            }
            Source::Pread { file, .. } => {
                read_at_exact(file, off, buf)?;
                Ok(())
            }
        }
    }

    /// Zero-copy view of `[off, off+len)` — available only when mapped.
    fn slice(&self, off: u64, len: usize) -> Option<&[u8]> {
        match self {
            Source::Mapped(m) => m.as_bytes().get(off as usize..off as usize + len),
            Source::Pread { .. } => None,
        }
    }
}

#[cfg(unix)]
fn read_at_exact(file: &File, mut off: u64, mut buf: &mut [u8]) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    while !buf.is_empty() {
        let n = file.read_at(buf, off)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "corpus file shrank mid-read",
            ));
        }
        off += n as u64;
        buf = &mut buf[n..];
    }
    Ok(())
}

#[cfg(not(unix))]
fn read_at_exact(file: &File, off: u64, buf: &mut [u8]) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(off))?;
    f.read_exact(buf)
}

/// One trace's directory entry: everything but the sample values.
#[derive(Debug, Clone)]
pub struct TraceMeta {
    /// Workload (or scenario) name.
    pub name: String,
    /// Ground-truth class.
    pub class: Class,
    /// Attack family (or benign).
    pub family: Family,
    /// Number of sampled rows.
    pub rows: usize,
    /// Simulator marks committed during the run.
    pub marks: Vec<MarkEvent>,
    /// Absolute file offset of this trace's column pages.
    pages_off: u64,
}

/// A little-endian cursor over a byte slice, for directory parsing.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CorpusIoError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(CorpusIoError::Corrupt("directory overruns payload".into())),
        }
    }

    fn u8(&mut self) -> Result<u8, CorpusIoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CorpusIoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CorpusIoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CorpusIoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, CorpusIoError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CorpusIoError::Corrupt("non-UTF-8 name".into()))
    }
}

/// A validated, random-access view of an on-disk corpus.
///
/// Opening verifies magic, version, length and the payload checksum, then
/// parses the schema and trace directory; sample values stay on disk (or
/// in the page cache) until a row is actually read.
#[derive(Debug)]
pub struct CorpusReader {
    source: Source,
    schema: Schema,
    sample_interval: u64,
    traces: Vec<TraceMeta>,
}

impl CorpusReader {
    /// Opens and validates a corpus file, memory-mapping it when possible
    /// and falling back to positioned reads when mapping fails
    /// ([`CorpusReader::open_pread`] forces the fallback). The checksum
    /// pass reads the payload through a fixed buffer rather than the map,
    /// so no column page becomes resident in this process until a row is
    /// read.
    ///
    /// # Errors
    ///
    /// [`CorpusIoError::Io`] when the file cannot be opened or read, and
    /// the other variants when the bytes are not a well-formed corpus.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CorpusIoError> {
        Self::open_with(path.as_ref(), true)
    }

    /// Opens a corpus file using positioned reads only (no memory map).
    pub fn open_pread(path: impl AsRef<Path>) -> Result<Self, CorpusIoError> {
        Self::open_with(path.as_ref(), false)
    }

    fn open_with(path: &Path, map: bool) -> Result<Self, CorpusIoError> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        if len < HEADER_LEN as u64 {
            return Err(CorpusIoError::Truncated {
                expected: HEADER_LEN as u64,
                actual: len,
            });
        }
        let mut header = [0u8; HEADER_LEN];
        file.read_exact(&mut header)?;
        if header[0..4] != MAGIC {
            return Err(CorpusIoError::BadMagic(header[0..4].try_into().unwrap()));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(CorpusIoError::UnsupportedVersion(version));
        }
        let n_traces = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
        let n_cols = u32::from_le_bytes(header[12..16].try_into().unwrap()) as usize;
        let sample_interval = u64::from_le_bytes(header[16..24].try_into().unwrap());
        let payload_len = u64::from_le_bytes(header[24..32].try_into().unwrap());
        let checksum = u64::from_le_bytes(header[32..40].try_into().unwrap());

        let expected_len = (HEADER_LEN as u64).saturating_add(payload_len);
        if len != expected_len {
            return Err(CorpusIoError::Truncated {
                expected: expected_len,
                actual: len,
            });
        }
        // The counts sit outside the checksum: bound them by what the
        // payload can hold before reserving anything for them. A name
        // takes at least 4 bytes, a directory entry at least 24.
        if 4 * n_cols as u64 + 24 * n_traces as u64 > payload_len {
            return Err(CorpusIoError::Corrupt(format!(
                "{n_traces} traces over {n_cols} columns cannot fit a {payload_len}-byte payload"
            )));
        }

        // One sequential pass over the payload with read(2): hashing
        // through the map would fault every page into this process.
        let mut actual = FNV1A_OFFSET;
        let mut chunk = vec![0u8; CHECKSUM_CHUNK];
        let mut remaining = payload_len;
        while remaining > 0 {
            let n = remaining.min(CHECKSUM_CHUNK as u64) as usize;
            file.read_exact(&mut chunk[..n])?;
            actual = fnv1a(actual, &chunk[..n]);
            remaining -= n as u64;
        }
        if actual != checksum {
            return Err(CorpusIoError::ChecksumMismatch {
                expected: checksum,
                actual,
            });
        }

        let source = match map.then(|| MappedFile::map(&file)) {
            Some(Ok(map)) => Source::Mapped(map),
            _ => Source::Pread { file, len },
        };
        // The file may have changed since it was hashed; the map must be
        // as long as the layout checked below.
        if source.len() != expected_len {
            return Err(CorpusIoError::Truncated {
                expected: expected_len,
                actual: source.len(),
            });
        }
        // Parse the name table and trace directory at the front of the
        // payload: straight off the map when mapped, so only the
        // directory's own pages become resident; the pread fallback reads
        // the payload into a buffer first.
        let (schema, traces, dir_len) = match source.slice(HEADER_LEN as u64, payload_len as usize)
        {
            Some(payload) => Self::parse_front(payload, n_traces, n_cols)?,
            None => {
                let mut front = vec![0u8; payload_len as usize];
                source.read_into(HEADER_LEN as u64, &mut front)?;
                Self::parse_front(&front, n_traces, n_cols)?
            }
        };

        // The pages follow the directory, padded to 8 bytes, back to back,
        // and the last one ends at the end of the file — so a miscounted
        // header cannot parse as a shorter or wider corpus.
        let mut next = (HEADER_LEN + dir_len).next_multiple_of(8) as u64;
        for t in &traces {
            if t.pages_off != next {
                return Err(CorpusIoError::Corrupt(format!(
                    "trace {} pages start at {}, not {next}",
                    t.name, t.pages_off
                )));
            }
            next = (t.rows as u64)
                .checked_mul(8 * (1 + n_cols as u64))
                .and_then(|len| next.checked_add(len))
                .ok_or_else(|| {
                    CorpusIoError::Corrupt(format!("trace {} pages overflow", t.name))
                })?;
        }
        if next != expected_len {
            return Err(CorpusIoError::Corrupt(format!(
                "pages end at {next}, the file at {expected_len}"
            )));
        }

        Ok(Self {
            source,
            schema,
            sample_interval,
            traces,
        })
    }

    /// Parses the name table and trace directory; also returns the
    /// directory's end, as a payload offset.
    fn parse_front(
        payload: &[u8],
        n_traces: usize,
        n_cols: usize,
    ) -> Result<(Schema, Vec<TraceMeta>, usize), CorpusIoError> {
        let mut cur = Cursor {
            bytes: payload,
            pos: 0,
        };
        let mut names = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            names.push(cur.str()?);
        }
        let schema = Schema::from_names(names);
        let mut traces = Vec::with_capacity(n_traces);
        for _ in 0..n_traces {
            let name = cur.str()?;
            let class = decode(&CLASSES, cur.u8()?, "class")?;
            let family = decode(&FAMILIES, cur.u8()?, "family")?;
            let pad = cur.u16()?;
            if pad != 0 {
                return Err(CorpusIoError::Corrupt("nonzero directory padding".into()));
            }
            let rows = cur.u32()? as usize;
            let n_marks = cur.u32()? as usize;
            let mut marks = Vec::with_capacity(n_marks.min(1 << 20));
            for _ in 0..n_marks {
                let kind = decode(&MARKS, cur.u8()?, "mark kind")?;
                let at_inst = cur.u64()?;
                let at_cycle = cur.u64()?;
                marks.push(MarkEvent {
                    kind,
                    at_inst,
                    at_cycle,
                });
            }
            let pages_off = cur.u64()?;
            traces.push(TraceMeta {
                name,
                class,
                family,
                rows,
                marks,
                pages_off,
            });
        }
        Ok((schema, traces, cur.pos))
    }

    /// The statistic schema (column names, in page order).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The sampling interval the corpus was collected at.
    pub fn sample_interval(&self) -> u64 {
        self.sample_interval
    }

    /// Number of traces in the file.
    pub fn n_traces(&self) -> usize {
        self.traces.len()
    }

    /// Directory entry of trace `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn trace_meta(&self, t: usize) -> &TraceMeta {
        &self.traces[t]
    }

    /// Whether this reader serves bytes from a memory map (as opposed to
    /// the positioned-read fallback).
    pub fn is_mapped(&self) -> bool {
        matches!(self.source, Source::Mapped(_))
    }

    fn insts_off(&self, t: usize) -> u64 {
        self.traces[t].pages_off
    }

    fn col_off(&self, t: usize, col: usize) -> u64 {
        let rows = self.traces[t].rows as u64;
        self.traces[t].pages_off + 8 * rows + 8 * rows * col as u64
    }

    /// Reads one raw sample row of trace `t` into `row` (cleared first)
    /// and returns its committed-instruction count. This is a gather —
    /// one value from every column page; cheap against a map, one
    /// syscall per column on the `pread` fallback.
    ///
    /// # Errors
    ///
    /// [`CorpusIoError::Corrupt`] if `j` is past the trace's last row,
    /// and [`CorpusIoError::Io`] if a positioned read fails.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn read_row(&self, t: usize, j: usize, row: &mut Vec<f64>) -> Result<u64, CorpusIoError> {
        let meta = &self.traces[t];
        if j >= meta.rows {
            return Err(CorpusIoError::Corrupt(format!(
                "row {j} out of range ({} rows)",
                meta.rows
            )));
        }
        let n_cols = self.schema.len();
        row.clear();
        row.reserve(n_cols);
        let mut b8 = [0u8; 8];
        self.source
            .read_into(self.insts_off(t) + 8 * j as u64, &mut b8)?;
        let insts = u64::from_le_bytes(b8);
        for c in 0..n_cols {
            self.source
                .read_into(self.col_off(t, c) + 8 * j as u64, &mut b8)?;
            row.push(f64::from_le_bytes(b8));
        }
        Ok(insts)
    }

    /// Materializes the whole file as an in-memory [`CollectedCorpus`] —
    /// the inverse of [`write_corpus`], byte-identical sample values
    /// included.
    pub fn load_all(&self) -> Result<CollectedCorpus, CorpusIoError> {
        let mut row = Vec::with_capacity(self.schema.len());
        let mut traces = Vec::with_capacity(self.traces.len());
        for (t, meta) in self.traces.iter().enumerate() {
            let mut trace = SampleTrace::new(self.schema.clone());
            for j in 0..meta.rows {
                let at = self.read_row(t, j, &mut row)?;
                trace.push(at, &row);
            }
            traces.push(LabeledTrace {
                name: meta.name.clone(),
                class: meta.class,
                family: meta.family,
                trace,
                marks: meta.marks.clone(),
            });
        }
        Ok(CollectedCorpus {
            traces,
            sample_interval: self.sample_interval,
        })
    }
}

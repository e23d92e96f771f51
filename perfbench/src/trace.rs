//! The outside-in trace harness: spans recorded around calls into each
//! layer, a counting global allocator, and CPU-clock and `/proc` probes.
//!
//! Everything here is inert unless [`enable`] was called, which only the
//! traced run (`--trace 1`) does. Untraced runs pay one relaxed atomic
//! load per span and per allocation.
//!
//! Spans are aggregated and sampled, not all kept: every span is timed
//! and folded into a per-name total (count, duration, self time), but
//! only the first [`MAX_RECORDS`] spans of the run are kept as full
//! records (name, start, end, parent). Recording every per-window span
//! would hold tens of millions of records and distort the run it
//! measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Full span records kept per run; later spans are only aggregated.
pub const MAX_RECORDS: usize = 200_000;

/// Turns tracing (spans, allocation counting) on for the rest of the run.
pub fn enable() {
    ON.store(true, Ordering::Relaxed);
}

/// Whether this is the traced run.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// The global allocator of the benchmark binary: the system allocator,
/// counting allocation events (not frees) while tracing is on.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// side effect that touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation events counted so far, across all threads (zero when
/// tracing is off).
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Per-name span totals.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotal {
    /// Spans closed.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus the time child spans cover).
    pub self_ns: u64,
}

impl SpanTotal {
    /// Mean duration per span, nanoseconds (zero when none closed).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

struct Open {
    id: u32,
    start: Instant,
    child_ns: u64,
}

struct Record {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

struct Recorder {
    epoch: Instant,
    next_id: u32,
    stack: Vec<Open>,
    totals: BTreeMap<&'static str, SpanTotal>,
    records: Vec<Record>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        next_id: 1,
        stack: Vec::new(),
        totals: BTreeMap::new(),
        records: Vec::new(),
    });
}

/// Runs `f` inside a span named `name` (a `layer.call` name) on this
/// thread's recorder. The span's parent is the innermost span open on
/// this thread when `f` starts.
#[inline]
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    begin();
    let out = f();
    end(name);
    out
}

/// Opens a span whose name is given when it closes (for calls whose
/// outcome names the span). Every `begin` needs a matching [`end`];
/// callers check [`enabled`] first.
pub fn begin() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let id = r.next_id;
        r.next_id = r.next_id.wrapping_add(1);
        r.stack.push(Open {
            id,
            start: Instant::now(),
            child_ns: 0,
        });
    });
}

/// Closes the innermost open span, recording it under `name`.
pub fn end(name: &'static str) {
    let end = Instant::now();
    REC.with(|r| {
        let r = &mut *r.borrow_mut();
        let open = r.stack.pop().expect("span stack balanced");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let parent = match r.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let t = r.totals.entry(name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if r.records.len() < MAX_RECORDS {
            let start_ns = open.start.duration_since(r.epoch).as_nanos() as u64;
            r.records.push(Record {
                id: open.id,
                parent,
                name,
                start_ns,
                end_ns: start_ns + dur,
            });
        }
    });
}

/// This thread's total for span `name` (all zero when never closed).
pub fn total(name: &str) -> SpanTotal {
    REC.with(|r| r.borrow().totals.get(name).copied().unwrap_or_default())
}

/// Writes this thread's span records (JSON lines: id, parent, name,
/// start and end in ns since the recorder's epoch), then one line per
/// span name with its totals.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    REC.with(|r| -> std::io::Result<()> {
        let r = r.borrow();
        for s in &r.records {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, t) in &r.totals {
            writeln!(
                out,
                "{{\"total\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            )?;
        }
        Ok(())
    })?;
    out.flush()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock ids are the Linux constants.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the whole process (all threads, live and exited), ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// A `VmXxx:` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"));
    kib / 1024.0
}

/// Peak resident set size of the process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set size, MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// CPU time (user + system) of this process's threads whose name starts
/// with `prefix`, in seconds, from `/proc/self/task/*/stat` (clock-tick
/// resolution, assumed 100 Hz). Traced runs only.
pub fn threads_cpu_s(prefix: &str) -> f64 {
    let mut ticks = 0u64;
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if !comm.starts_with(prefix) {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("stat")).unwrap_or_default();
        // Fields after the parenthesised command: state is field 3, utime
        // and stime are fields 14 and 15.
        if let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) {
            let f: Vec<&str> = rest.split_whitespace().collect();
            if f.len() > 12 {
                ticks += f[11].parse::<u64>().unwrap_or(0) + f[12].parse::<u64>().unwrap_or(0);
            }
        }
    }
    ticks as f64 / 100.0
}

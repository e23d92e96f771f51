//! Steady-state allocation gate for the simulator's cycle loop.
//!
//! Once a machine has warmed up — its queues, heaps and caches have grown
//! to their working sizes — a stepped cycle and a tick-skip should touch
//! the heap almost never: every per-cycle buffer is reused. This binary
//! counts every allocation and reallocation through a counting global
//! allocator, so it holds exactly one test (a second test running on
//! another thread would be counted too).
//!
//! Each machine runs 20K instructions to warm up, then is counted over
//! 20K more. Run it with `--nocapture` to print each workload's
//! allocations per 1,000 committed instructions.
//!
//! Sampling is gated too, on a warmed one-core and a two-core machine.
//! A stat walk that only collects values builds no name, so once a
//! `Sampler` exists its `sample_into` calls make no allocation at all.
//! And a sampled run (`run_with_sink`, 20K instructions sampled every
//! 10K, rows dropped) on a machine whose schema is already resolved makes
//! exactly the allocations of the same unsampled run plus the sampler's
//! three row buffers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sim_cpu::{CoreConfig, Machine};
use sim_mem::HierarchyConfig;
use uarch_isa::Program;
use uarch_stats::{SampleSink, Sampler};

/// Forwards to the system allocator, counting allocations and
/// reallocations (frees are not counted).
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP_INSTS: u64 = 20_000;
const COUNTED_INSTS: u64 = 20_000;
/// The gate: allocations per 1,000 committed instructions.
const MAX_ALLOCS_PER_KINST: f64 = 8.0;
/// Sample every 10K instructions in the sampled run (two samples).
const SAMPLE_INTERVAL: u64 = 10_000;
/// `sample_into` calls counted per machine, 1K instructions apart.
const SAMPLES: u64 = 8;
/// The allocations a `Sampler` makes up front: previous, current and delta
/// rows.
const SAMPLER_BUFFERS: u64 = 3;

/// Drops every row.
struct Discard;

impl SampleSink for Discard {
    fn on_sample(&mut self, _insts: u64, _row: &[f64]) {}
}

#[test]
fn warmed_up_machines_barely_allocate() {
    let suite = workloads::full_suite();
    let one_core = |name: &str| {
        let w = suite
            .iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("{name} is in the suite"));
        vec![w.program.clone()]
    };
    let two_core = |name: &str| {
        workloads::cross_core_suite()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} is a cross-core scenario"))
            .programs
    };
    let jobs: Vec<(&str, Vec<Program>)> = vec![
        ("hmmer", one_core("hmmer")),
        ("mcf", one_core("mcf")),
        ("sjeng", one_core("sjeng")),
        ("spectre-v1-classic", one_core("spectre-v1-classic")),
        ("xbenign-stream-compute", two_core("xbenign-stream-compute")),
    ];

    let mut over = Vec::new();
    for (name, programs) in jobs {
        let mut m = Machine::try_new(
            &CoreConfig::default(),
            &HierarchyConfig::default(),
            programs,
        )
        .expect("default machine builds");
        m.run(WARM_UP_INSTS);
        let committed_before = m.total_committed();
        let allocs_before = ALLOCS.load(Ordering::Relaxed);
        m.run(COUNTED_INSTS);
        let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
        let committed = m.total_committed() - committed_before;
        assert!(
            committed >= COUNTED_INSTS,
            "{name}: committed only {committed} of {COUNTED_INSTS} counted instructions"
        );
        let per_kinst = allocs as f64 * 1000.0 / committed as f64;
        println!(
            "{name}: {allocs} allocations over {committed} instructions, {per_kinst:.2} per 1K"
        );
        if per_kinst > MAX_ALLOCS_PER_KINST {
            over.push(format!("{name} ({per_kinst:.2})"));
        }
    }
    assert!(
        over.is_empty(),
        "steady-state allocations per 1K instructions above {MAX_ALLOCS_PER_KINST}: {}",
        over.join(", ")
    );

    // Sampling, on a one-core and a two-core machine.
    for (name, programs) in [
        ("hmmer", one_core("hmmer")),
        ("xbenign-stream-compute", two_core("xbenign-stream-compute")),
    ] {
        let warmed = || {
            let mut m = Machine::try_new(
                &CoreConfig::default(),
                &HierarchyConfig::default(),
                programs.clone(),
            )
            .expect("default machine builds");
            m.run(WARM_UP_INSTS);
            m.stat_schema();
            m
        };

        let mut m = warmed();
        let mut sampler = Sampler::new(&m, "");
        let mut walk_allocs = 0;
        for _ in 0..SAMPLES {
            m.run(1_000);
            let before = ALLOCS.load(Ordering::Relaxed);
            sampler.sample_into(&m, m.total_committed(), &mut Discard);
            walk_allocs += ALLOCS.load(Ordering::Relaxed) - before;
        }
        println!("{name}: {SAMPLES} sample_into calls made {walk_allocs} allocations");
        assert_eq!(
            walk_allocs, 0,
            "{name}: {SAMPLES} warmed sample_into calls made {walk_allocs} allocations"
        );

        let mut unsampled = warmed();
        let before = ALLOCS.load(Ordering::Relaxed);
        unsampled.run(COUNTED_INSTS);
        let run_allocs = ALLOCS.load(Ordering::Relaxed) - before;
        let mut sampled = warmed();
        let width = sampled.stat_schema().len();
        let before = ALLOCS.load(Ordering::Relaxed);
        sampled
            .run_with_sink(COUNTED_INSTS, SAMPLE_INTERVAL, &mut Discard)
            .expect("sampled run completes");
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(
            sampled.total_committed(),
            unsampled.total_committed(),
            "{name}: the sampled and unsampled runs diverged"
        );
        println!(
            "{name}: sampled run ({width} stats, every {SAMPLE_INTERVAL} of {COUNTED_INSTS}) \
             made {allocs} allocations, the unsampled run {run_allocs}"
        );
        assert!(
            allocs <= run_allocs + SAMPLER_BUFFERS,
            "{name}: sampled run made {allocs} allocations, above the unsampled \
             run's {run_allocs} plus {SAMPLER_BUFFERS} row buffers"
        );
    }
}

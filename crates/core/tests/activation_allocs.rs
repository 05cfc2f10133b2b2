//! Pins that a steady-state protocol activation allocates nothing.
//!
//! Every `ProtocolNode` works in node-owned buffers that reach a high-water
//! capacity and are reused, and the engine recycles its own buffers, so a
//! maintained n=48 overlay past bootstrap makes far fewer heap allocations
//! per round than it activates nodes. The bound (under one allocation per
//! activation, on average) leaves room for churn — a joining node allocates
//! its state — and for spawning the parallel compute workers, and still
//! fails by three orders of magnitude if per-copy allocations come back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use tsa_adversary::RandomChurnAdversary;
use tsa_core::{MaintenanceHarness, MaintenanceParams};

/// The system allocator, counting allocations (growing reallocations too).
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded verbatim to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const N: usize = 48;
const ROUNDS: u64 = 16;

/// Allocations per node activation over `ROUNDS` post-bootstrap rounds of
/// the maintained overlay under random churn.
fn allocs_per_activation() -> f64 {
    let params = MaintenanceParams::new(N)
        .with_c(1.5)
        .with_tau(4)
        .with_replication(2);
    let churn = RandomChurnAdversary::new(1, 1).with_period(params.paper_churn_rules().window);
    let mut h = MaintenanceHarness::assemble(
        params,
        churn,
        1,
        params.paper_churn_rules(),
        params.paper_lateness(),
    );
    h.run_bootstrap();
    let (mut allocs, mut activations) = (0, 0);
    for _ in 0..ROUNDS {
        activations += h.node_count() as u64;
        let before = ALLOCS.load(Ordering::Relaxed);
        h.step();
        allocs += ALLOCS.load(Ordering::Relaxed) - before;
    }
    allocs as f64 / activations as f64
}

// One test, so that no other test's allocations land in the counter.
#[test]
fn steady_state_activations_allocate_less_than_once_each() {
    let sequential = rayon::with_thread_cap(1, allocs_per_activation);
    assert!(
        sequential < 1.0,
        "{sequential:.2} allocations per activation on one thread"
    );
    // The parallel compute path (`TSA_THREADS` workers) spawns its workers
    // every round but must stay under the same bound.
    let parallel = allocs_per_activation();
    assert!(
        parallel < 1.0,
        "{parallel:.2} allocations per activation on {} threads",
        rayon::current_num_threads()
    );
}

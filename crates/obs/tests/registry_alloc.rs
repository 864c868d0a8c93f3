//! The registry's hot path allocates nothing: once a counter or
//! histogram name exists, further `incr` and `observe` calls on it
//! allocate zero bytes. A counting global allocator measures the calling
//! thread only, so the test harness's own threads cannot disturb it.

use epa_obs::ObsRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: both methods forward unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell` with no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|b| b.set(b.get() + layout.size()));
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this `layout`, that
        // is, from the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn allocated() -> usize {
    BYTES.with(Cell::get)
}

#[test]
fn incr_and_observe_on_existing_names_allocate_nothing() {
    const COUNTERS: [&str; 3] = ["jobs/started", "rm/power_ticks", "faults/actuator_attempts"];
    let mut r = ObsRegistry::new();
    r.register_histogram("sched/wait_secs", &[60.0, 300.0, 3600.0]);
    for name in COUNTERS {
        r.incr(name, 0);
    }
    r.observe("sched/wait_secs", 1.0);

    let before = allocated();
    for i in 0..1_000u64 {
        r.incr(COUNTERS[(i % 3) as usize], i);
        r.observe("sched/wait_secs", i as f64);
    }
    assert_eq!(allocated() - before, 0, "hot-path calls allocated");
    assert_eq!(
        r.counter("jobs/started"),
        (0..1_000).step_by(3).sum::<u64>()
    );
    assert_eq!(r.histogram("sched/wait_secs").unwrap().total, 1_001);
}

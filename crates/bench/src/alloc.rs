//! Allocation-counting global allocator for the benchmark harness.
//!
//! Every binary that links `hv_bench` (the criterion benches, the crate's
//! integration tests, the loadgen example) routes heap traffic through
//! [`CountingAlloc`], a thin shim over [`System`] that bumps a per-thread
//! counter per allocation. The overhead is a few cycles per malloc — far
//! below criterion's noise floor — and in exchange the harness can report
//! *allocations per page*, the metric the atom-interning work optimizes.
//!
//! Counting is always on and per thread: [`count_allocations`] takes a
//! delta around a closure on the calling thread, so it is exact even while
//! other threads allocate (`cargo test` runs a crate's tests on parallel
//! threads; with one process-wide counter each test counted the others'
//! allocations too). Allocations the closure makes on threads it spawns
//! are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Calls to `alloc`/`alloc_zeroed`/`realloc` on this thread. `const`
    /// initialised and without a destructor, so the allocator can touch it
    /// at any point in the thread's life, teardown included.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn bump() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

/// A [`System`] allocator shim that counts allocation events.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is a fresh allocation from the allocator's point of
        // view (it may move); growth patterns show up here.
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocation events on the calling thread so far.
pub fn allocation_count() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Run `f` and return its result plus the number of allocation events it
/// performed on the calling thread.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = allocation_count();
    let out = f();
    (out, allocation_count() - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Another thread's allocations never show up in this thread's delta.
    #[test]
    fn counts_are_per_thread() {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let noise = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    std::hint::black_box(vec![0u8; 64]);
                }
            })
        };
        let (_, n) = count_allocations(|| {
            for _ in 0..10 {
                std::hint::black_box(Box::new(1u64));
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        noise.join().unwrap();
        assert_eq!(n, 10);
    }
}

//! A counting global allocator. Counting is armed only around the traced
//! run; disarmed, each allocation pays one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The benchmark binary's global allocator: [`System`] plus counters.
pub struct Counting;

impl Counting {
    #[inline]
    fn note(size: usize) {
        if ARMED.load(Relaxed) {
            COUNT.fetch_add(1, Relaxed);
            BYTES.fetch_add(size as u64, Relaxed);
        }
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations (a realloc counts as one) and requested bytes while armed.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocCounts {
    pub count: u64,
    pub bytes: u64,
}

/// Run `f` with counting armed and return what it allocated.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, AllocCounts) {
    COUNT.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    ARMED.store(true, Relaxed);
    let out = f();
    ARMED.store(false, Relaxed);
    let counts = AllocCounts {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    };
    (out, counts)
}

//! A counting `#[global_allocator]` for the benchmark binary: while the
//! flag is off it adds one relaxed load to each call into the system
//! allocator; while on it counts calls, bytes and the peak of live bytes
//! above the level at which counting began.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering::Relaxed};

// Statistics only: no other memory is published through these cells.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// The allocator; installed by `main.rs`.
pub struct Counting;

fn grew(by: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(by as u64, Relaxed);
    let live = LIVE.fetch_add(by as isize, Relaxed) + by as isize;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never influence
// the pointers returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller's obligations are passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as isize, Relaxed);
        }
        // SAFETY: as for `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as isize, Relaxed);
            grew(new_size);
        }
        // SAFETY: as for `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What was counted between [`start`] and [`stop`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counted {
    /// Calls that obtained memory (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocs: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
    /// Peak of live bytes above the level when counting began.
    pub peak_bytes: u64,
}

/// Zeroes the counters and starts counting.
pub fn start() {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
}

/// Stops counting and returns the totals since [`start`].
pub fn stop() -> Counted {
    ENABLED.store(false, Relaxed);
    Counted {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_bytes: PEAK.load(Relaxed).max(0) as u64,
    }
}

/// The counters are process-wide and tests run on parallel threads: a
/// test that turns counting on holds this for as long as it counts.
#[cfg(test)]
pub fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    static COUNTING: std::sync::Mutex<()> = std::sync::Mutex::new(());
    COUNTING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Other tests allocate and free on their own threads while this one
    /// counts, so the "on" assertions are lower bounds (and the peak,
    /// which their frees can pull below zero, is left to the real runs);
    /// no other test counts meanwhile, so the "off" assertions are exact.
    #[test]
    fn counts_only_while_on() {
        let _counting = exclusive();
        start();
        let block = std::hint::black_box(vec![0u8; 1 << 20]);
        let held = stop();
        assert!(held.allocs >= 1);
        assert!(held.bytes >= 1 << 20);

        drop(block);
        drop(std::hint::black_box(vec![0u8; 1 << 20]));
        assert_eq!(ALLOCS.load(Relaxed), held.allocs);
        assert_eq!(BYTES.load(Relaxed), held.bytes);
    }
}

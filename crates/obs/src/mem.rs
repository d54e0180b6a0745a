//! The memory plane: live RSS sampling from `/proc/self/status`, a
//! resettable peak watermark, and (behind the `count-alloc` feature) a
//! global counting allocator with coarse allocation-site attribution.
//!
//! # Peak-RSS semantics
//!
//! Linux exposes two relevant lines in `/proc/self/status`:
//!
//! - `VmRSS` — resident set *right now*;
//! - `VmHWM` — the high-water mark **since process start** (or since
//!   the last reset).
//!
//! A multi-workload bench reading `VmHWM` after each workload
//! attributes the largest-so-far footprint to *every* subsequent
//! workload. [`reset_peak`] clears the watermark (by writing `5` to
//! `/proc/self/clear_refs`, see `proc(5)`) so `VmHWM` becomes a
//! *peak-since-reset* — the per-workload number a memory budget can be
//! enforced against. Not every kernel/container allows the write;
//! callers must check the return value and fall back to process-wide
//! semantics when it fails.
//!
//! Nothing in this module feeds the deterministic [`crate::Recorder`]
//! snapshots: RSS varies run-to-run and would break the byte-identical
//! metrics-JSON contract. Harnesses read these values directly and
//! report them out-of-band (`repro streaming_replay` prints them).

/// Reads an integer kB field (e.g. `VmRSS`, `VmHWM`) from
/// `/proc/self/status`. Returns 0 when the field or file is missing
/// (non-Linux platforms).
pub fn proc_status_kb(key: &str) -> u64 {
    let Ok(body) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            let rest = rest.trim_start_matches(':').trim();
            if let Some(num) = rest.split_whitespace().next() {
                return num.parse().unwrap_or(0);
            }
        }
    }
    0
}

/// Current resident set size in kB (`VmRSS`), 0 when unavailable.
pub fn rss_kb() -> u64 {
    proc_status_kb("VmRSS")
}

/// Peak resident set size in kB (`VmHWM`): since process start, or
/// since the last successful [`reset_peak`].
pub fn peak_rss_kb() -> u64 {
    proc_status_kb("VmHWM")
}

/// Resets the kernel's RSS high-water mark so subsequent
/// [`peak_rss_kb`] reads report the peak *since this call*. Returns
/// `false` when the kernel/container refuses the write (sandboxes
/// commonly do); the watermark then keeps its process-wide meaning.
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", b"5").is_ok()
}

/// Allocation-site counters (active only with the `count-alloc`
/// feature and [`CountingAlloc`] installed as the global allocator).
#[cfg(feature = "count-alloc")]
pub mod count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Coarse allocation sites a harness can tag its phases with.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    #[repr(u8)]
    pub enum Site {
        /// Untagged allocations (the default site).
        Other = 0,
        /// Workload/trace construction.
        TraceBuild = 1,
        /// Overlay construction (keys, routing state, node stores).
        OverlayBuild = 2,
        /// Trace replay (messages, replica maps growing).
        Replay = 3,
    }

    const SITES: usize = 4;
    const NAMES: [&str; SITES] = ["other", "trace_build", "overlay_build", "replay"];

    static ALLOC_CALLS: [AtomicU64; SITES] =
        [const { AtomicU64::new(0) }; SITES];
    static ALLOC_BYTES: [AtomicU64; SITES] =
        [const { AtomicU64::new(0) }; SITES];
    /// Bytes allocated and not yet freed, over all sites.
    static LIVE: AtomicU64 = AtomicU64::new(0);
    /// High-water mark of `LIVE` since start or the last
    /// [`take_peak_live`].
    static PEAK: AtomicU64 = AtomicU64::new(0);

    fn grow(bytes: usize) {
        let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(bytes: usize) {
        LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
    }

    thread_local! {
        // const-initialized so reading it never allocates (a lazy TLS
        // init inside the allocator would recurse).
        static CURRENT: Cell<u8> = const { Cell::new(0) };
    }

    /// Runs `f` with its allocations attributed to `site`. Nests:
    /// the previous site is restored on exit.
    pub fn with_site<R>(site: Site, f: impl FnOnce() -> R) -> R {
        let prev = CURRENT.with(|c| c.replace(site as u8));
        let out = f();
        CURRENT.with(|c| c.set(prev));
        out
    }

    /// Heap bytes the program holds right now: requested sizes of the
    /// live allocations, frees subtracted.
    pub fn live_bytes() -> u64 {
        LIVE.load(Ordering::Relaxed)
    }

    /// The high-water mark of [`live_bytes`] since process start or the
    /// previous call, which restarts the mark from the current live
    /// bytes. Unlike RSS it excludes allocator overhead and freed pages
    /// kept by the allocator, so a single-threaded run repeats it to the
    /// byte.
    pub fn take_peak_live() -> u64 {
        PEAK.swap(LIVE.load(Ordering::Relaxed), Ordering::Relaxed)
    }

    /// `(site name, allocation calls, allocated bytes)` per site.
    /// Cumulative since process start; frees are not subtracted (the
    /// counters measure allocator pressure; residency is
    /// [`live_bytes`]).
    pub fn site_totals() -> Vec<(&'static str, u64, u64)> {
        (0..SITES)
            .map(|i| {
                (
                    NAMES[i],
                    ALLOC_CALLS[i].load(Ordering::Relaxed),
                    ALLOC_BYTES[i].load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// A [`System`]-backed global allocator that bills every
    /// allocation to the thread's current [`Site`] and keeps the live
    /// byte count and its high-water mark.
    ///
    /// ```ignore
    /// #[global_allocator]
    /// static A: past_obs::mem::count::CountingAlloc = past_obs::mem::count::CountingAlloc;
    /// ```
    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let site = CURRENT.try_with(|c| c.get()).unwrap_or(0) as usize;
            ALLOC_CALLS[site].fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES[site].fetch_add(layout.size() as u64, Ordering::Relaxed);
            let ptr = System.alloc(layout);
            if !ptr.is_null() {
                grow(layout.size());
            }
            ptr
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            shrink(layout.size());
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let site = CURRENT.try_with(|c| c.get()).unwrap_or(0) as usize;
            ALLOC_CALLS[site].fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES[site]
                .fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
            let out = System.realloc(ptr, layout, new_size);
            if !out.is_null() {
                match new_size.checked_sub(layout.size()) {
                    Some(more) => grow(more),
                    None => shrink(layout.size() - new_size),
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            // Sample RSS first: other tests run on parallel threads and
            // grow it, and a peak read before that growth would lose.
            let rss = rss_kb();
            assert!(rss > 0, "a live process has resident pages");
            assert!(peak_rss_kb() >= rss);
        }
    }

    #[test]
    fn reset_peak_reports_outcome_and_keeps_watermark_sane() {
        // Whether or not the kernel honours the reset, the watermark
        // must stay a valid peak for the current process.
        let _ = reset_peak();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kb() > 0);
        }
    }

    #[cfg(feature = "count-alloc")]
    #[test]
    fn site_scoping_nests_and_restores() {
        use super::count::{with_site, Site};
        let out = with_site(Site::TraceBuild, || {
            with_site(Site::Replay, || 7) + 1
        });
        assert_eq!(out, 8);
        // Totals exist for every site even when the allocator is not
        // installed (counters just stay at their current values).
        assert_eq!(super::count::site_totals().len(), 4);
    }
}

//! The counting allocator's residency numbers, with it installed as this
//! test binary's global allocator. Run with
//! `cargo test -p past-obs --features count-alloc`.

#![cfg(feature = "count-alloc")]

use past_obs::mem::count::{live_bytes, take_peak_live, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The one test in this binary, so no other test thread moves the
/// counters while it reads them.
#[test]
fn live_bytes_rise_and_fall_with_the_heap_and_the_peak_holds() {
    const MB: usize = 1 << 20;
    let before = live_bytes();
    take_peak_live();

    let mut v: Vec<u8> = Vec::with_capacity(MB);
    assert_eq!(live_bytes(), before + MB as u64);
    // A realloc counts the size it moves to, not both blocks.
    v.reserve_exact(3 * MB);
    assert_eq!(live_bytes(), before + 3 * MB as u64);
    v.shrink_to(MB / 2);
    assert_eq!(live_bytes(), before + (MB / 2) as u64);
    drop(v);
    assert_eq!(live_bytes(), before);

    assert_eq!(
        take_peak_live(),
        before + 3 * MB as u64,
        "the mark holds the high point"
    );
    assert_eq!(take_peak_live(), before, "and restarts from the live bytes");
}

//! Bounds the heap allocations that building each corpus app's environment
//! and its explicit effect layer make, once the shared libraries are built.
//! A counting global allocator (per thread, so the test harness's own
//! threads do not count) sums, over every corpus app, the allocations of
//! `App::build_env` plus the three `comprdl::explicit_effects` calls a
//! Table 2 evaluation makes per app (the summary seed and the two checking
//! passes).  The core library and the DB DSLs are parsed, digested and
//! joined once per process, and the builtin class hierarchy is built once
//! and shared, so what remains should track the app: its model classes,
//! schema helpers and own annotations.  Unlike a timing
//! gate, the count repeats exactly from run to run, so a change that copies
//! library maps or names per app again fails here on any machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most allocations the eight apps' env builds and explicit layers may
/// make together: 15% above the 1,719 they make.
const MAX_ENV_ALLOCATIONS: u64 = 1_970;

#[test]
fn env_builds_and_explicit_layers_stay_under_their_allocation_bound() {
    let apps = corpus::apps::all();
    // Warm every once-per-process library table first.
    for app in &apps {
        drop(comprdl::explicit_effects(&app.build_env()));
    }
    let mut total = 0;
    let mut per_app = Vec::new();
    for app in &apps {
        let before = ALLOCATIONS.with(Cell::get);
        let env = app.build_env();
        for _ in 0..3 {
            drop(comprdl::explicit_effects(&env));
        }
        drop(env);
        let count = ALLOCATIONS.with(Cell::get) - before;
        total += count;
        per_app.push((app.name, count));
    }
    assert!(
        total <= MAX_ENV_ALLOCATIONS,
        "env builds and explicit layers made {total} allocations (bound \
         {MAX_ENV_ALLOCATIONS}); per app: {per_app:?}"
    );
}

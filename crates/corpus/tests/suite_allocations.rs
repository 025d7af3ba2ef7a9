//! Bounds the heap allocations the Table 2 suite runs make.  A counting
//! global allocator (per thread, so the test harness's own threads do not
//! count) sums the allocations and reallocations made inside
//! `eval_program` over every corpus app, in Table 2 order: for each app the
//! plain run, then the checked run.  It also sums what building each
//! checked run's hook allocates.  Unlike a timing gate, the counts repeat
//! exactly from run to run, so a change that makes the interpreter copy
//! values, names or argument lists again, or makes a hook copy the class
//! table, the checks' comp-type expressions or the store's names and
//! content again, fails here on any machine.

use comprdl::{CheckConfig, CheckOptions, SharedMemo, TypeChecker};
use ruby_interp::Interpreter;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

/// Allocations `f` makes on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// Allocations `interp.eval_program()` makes on this thread; the suite must
/// pass.
fn suite_allocations(interp: &Interpreter, app: &str) -> u64 {
    counted(|| interp.eval_program().unwrap_or_else(|e| panic!("{app}: suite fails: {e}"))).0
}

/// The most allocations both suite runs of all eight apps may make: 15%
/// above the 23,574 they make.
const MAX_SUITE_ALLOCATIONS: u64 = 27_110;

/// The most allocations the eight checked runs' hook builds may make (the
/// checks taken from the checking result, and `make_hook_shared` with its
/// arguments): 15% above the 380 they make.
const MAX_HOOK_BUILD_ALLOCATIONS: u64 = 437;

/// What the eight apps' Table 2 suite runs allocate, in Table 2 order.
struct Counts {
    /// Both suite runs of all eight apps.
    suites: u64,
    /// The eight hook builds.
    hook_builds: u64,
    /// Per app: (plain run, hook build, checked run).
    per_app: Vec<(&'static str, u64, u64, u64)>,
}

fn count_table2_runs() -> Counts {
    let memo = Arc::new(SharedMemo::new());
    let mut counts = Counts { suites: 0, hook_builds: 0, per_app: Vec::new() };
    for app in corpus::apps::all() {
        let env = app.build_env();
        let (program, _, _) = app.parse();
        let comp = TypeChecker::new(&env, &program, CheckOptions::default()).check_labeled("app");

        let plain = Interpreter::new(program.clone());
        let plain_count = suite_allocations(&plain, app.name);

        // Blame is collected, not raised: the Sequel suite blames by design.
        let (hook_count, hook) = counted(|| {
            comprdl::make_hook_shared(
                comp.checks(),
                comp.store.clone(),
                env.classes.clone(),
                env.helpers.clone(),
                CheckConfig { raise_blame: false, ..CheckConfig::default() },
                memo.clone(),
                memo.register_namespace(app.name),
            )
        });
        let mut checked = Interpreter::new(program);
        checked.set_hook(hook);
        let checked_count = suite_allocations(&checked, app.name);

        counts.suites += plain_count + checked_count;
        counts.hook_builds += hook_count;
        counts.per_app.push((app.name, plain_count, hook_count, checked_count));
    }
    counts
}

#[test]
fn the_suite_runs_stay_under_their_allocation_bound() {
    let Counts { suites, per_app, .. } = count_table2_runs();
    assert!(
        suites <= MAX_SUITE_ALLOCATIONS,
        "the suite runs made {suites} allocations (bound {MAX_SUITE_ALLOCATIONS}); \
         per app (plain, hook build, checked): {per_app:?}"
    );
}

#[test]
fn the_hook_builds_stay_under_their_allocation_bound() {
    let Counts { hook_builds, per_app, .. } = count_table2_runs();
    assert!(
        hook_builds <= MAX_HOOK_BUILD_ALLOCATIONS,
        "the hook builds made {hook_builds} allocations (bound {MAX_HOOK_BUILD_ALLOCATIONS}); \
         per app (plain, hook build, checked): {per_app:?}"
    );
}

//! Bounds the heap allocations the Table 2 suite runs make.  A counting
//! global allocator (per thread, so the test harness's own threads do not
//! count) sums the allocations and reallocations made inside
//! `eval_program` over every corpus app, in Table 2 order: for each app the
//! plain run, then the checked run.  Unlike a timing gate, the count
//! repeats exactly from run to run, so a change that makes the interpreter
//! copy values or names again fails here on any machine.

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

/// Allocations `interp.eval_program()` makes on this thread; the suite must
/// pass.
fn suite_allocations(interp: &Interpreter, app: &str) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    interp.eval_program().unwrap_or_else(|e| panic!("{app}: suite fails: {e}"));
    ALLOCATIONS.with(Cell::get) - before
}

/// The most allocations both suite runs of all eight apps may make.
const MAX_SUITE_ALLOCATIONS: u64 = 45_000;

#[test]
fn the_suite_runs_stay_under_their_allocation_bound() {
    let memo = Arc::new(SharedMemo::new());
    let mut total = 0;
    let mut per_app = Vec::new();
    for app in corpus::apps::all() {
        let env = app.build_env();
        let (program, _, _) = app.parse();
        let comp = TypeChecker::new(&env, &program, CheckOptions::default()).check_labeled("app");

        let plain = Interpreter::new(program.clone());
        let plain_count = suite_allocations(&plain, app.name);

        // Blame is collected, not raised: the Sequel suite blames by design.
        let hook = comprdl::make_hook_shared(
            comp.checks(),
            comp.store.clone(),
            env.classes.clone(),
            env.helpers.clone(),
            CheckConfig { raise_blame: false, ..CheckConfig::default() },
            memo.clone(),
            memo.register_namespace(app.name),
        );
        let mut checked = Interpreter::new(program);
        checked.set_hook(hook);
        let checked_count = suite_allocations(&checked, app.name);

        total += plain_count + checked_count;
        per_app.push((app.name, plain_count, checked_count));
    }
    assert!(
        total <= MAX_SUITE_ALLOCATIONS,
        "the suite runs made {total} allocations (bound {MAX_SUITE_ALLOCATIONS}); \
         per app (plain, checked): {per_app:?}"
    );
}

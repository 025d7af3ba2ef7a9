//! Bounds the heap allocations of one static pass over the scale workload
//! (40 methods, four DB query calls each): parse, effect summaries, comp
//! check, lints and plain-RDL check, the stages of `dense_app`'s pass.  A
//! second gate bounds the same pass over the call workload (40 methods,
//! each calling three unannotated methods of the program), where each
//! such call looks its target up in the program index: a lookup that
//! rebuilds a list of the program's methods per call fails there.
//! Almost every comp-type evaluation there is an eval-cache hit, and a hit
//! must give its call site fresh store ids without copying the cached type:
//! names are shared and store content is copy-on-write.  A counting global
//! allocator (per thread, so the harness's own threads do not count) sums
//! each stage on the test thread; every stage runs sequentially.  Unlike a
//! timing gate, the count repeats exactly from run to run, so a change that
//! copies names, store content or constraints per cache hit again fails
//! here on any machine.  Every stage also has a bound of its own.  The
//! parse allocates each distinct name of the file once and tokens own no
//! text, so a change that copies names per token or per occurrence fails
//! at the parse stage; the checks and the effect summaries share those
//! names, so one that copies them back into strings fails there; the
//! effect summaries' and the lints' dataflow facts are bit sets that
//! allocate nothing below 64 names, so one that builds name sets or copies
//! origin sets per walk fails there too.

mod scale;

use comprdl::{CacheStats, CheckOptions, TypeChecker};
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

/// The most allocations one static pass over `scale_workload(40)` may make:
/// 15% above 13,503, the count it was set from.  It now makes 13,502.
const MAX_PASS_ALLOCATIONS: u64 = 15_528;

/// The most allocations its parse stage may make: 15% above 1,515.
const MAX_PARSE_ALLOCATIONS: u64 = 1_742;

/// The most allocations its effect-summary stage may make: 15% above 425.
const MAX_SUMMARIES_ALLOCATIONS: u64 = 488;

/// The most allocations its comp-type check stage may make: 15% above
/// 6,517, the count it was set from.  It now makes 6,563: the checker's
/// program index costs ten, the labeled-method list four fewer, and each
/// installed effect summary one more string (its owner), 40.
const MAX_COMP_CHECK_ALLOCATIONS: u64 = 7_494;

/// The most allocations its lint stage may make: 15% above 1,771.
const MAX_LINTS_ALLOCATIONS: u64 = 2_036;

/// The most allocations its plain-RDL check stage may make: 15% above
/// 3,222, the count it was set from.  It now makes 3,228, for the same
/// reason.
const MAX_PLAIN_CHECK_ALLOCATIONS: u64 = 3_705;

/// The bounds of one static pass over `call_workload(40)`, each 15% above
/// the count it was set from: parse 626, summaries 787, comp check 1,468,
/// lints 1,732, plain check 817 and the pass 5,511.  The comp check now
/// makes 1,548, one owner string more per installed summary (80), and the
/// pass 5,510.
const CALL_PASS_BOUNDS: [(&str, u64); 6] = [
    ("parse", 719),
    ("summaries", 905),
    ("comp check", 1_688),
    ("lints", 1_991),
    ("plain check", 939),
    ("total", 6_337),
];

/// Runs `f`, adding the allocations it makes on this thread to `stages`.
fn counted<T>(
    stages: &mut Vec<(&'static str, u64)>,
    stage: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    stages.push((stage, ALLOCATIONS.with(Cell::get) - before));
    result
}

/// One static pass over `source`, stage by stage, as `dense_app` runs it;
/// the last entry is the pass's total.  Returns the comp check's cache
/// counters too.
fn static_pass(env: &comprdl::CompRdl, source: &str) -> (Vec<(&'static str, u64)>, CacheStats) {
    let mut stages = Vec::new();
    let program = counted(&mut stages, "parse", || {
        ruby_syntax::parse_program_strict(source).expect("generated workload parses")
    });
    let (summaries, inferred) = counted(&mut stages, "summaries", || {
        let summaries = corpus::effects_pass(&program, &corpus::seed_map(env), 1);
        let inferred = corpus::summaries_to_inferred(&summaries);
        (summaries, inferred)
    });
    let comp = counted(&mut stages, "comp check", || {
        let mut checker = TypeChecker::new(env, &program, CheckOptions::default());
        checker.install_inferred_effects(&inferred);
        checker.check_labeled("app")
    });
    counted(&mut stages, "lints", || {
        corpus::lint_bag(&corpus::lint_pass_with_summaries(&program, Some(&summaries), 1))
    });
    let plain = counted(&mut stages, "plain check", || {
        let options = CheckOptions { use_comp_types: false, ..CheckOptions::default() };
        TypeChecker::new(env, &program, options).check_labeled("app")
    });
    // The pass counts only while both checks pass.
    assert!(comp.errors().is_empty() && plain.methods_checked() == 40);
    let total = stages.iter().map(|(_, n)| n).sum();
    stages.push(("total", total));
    for (stage, n) in &stages {
        println!("{stage:>12}: {n}");
    }
    (stages, comp.cache_stats)
}

/// The second of two passes over `source` (the first builds the
/// once-per-process library tables), with each stage checked against its
/// bound.
fn assert_within_bounds(
    env: &comprdl::CompRdl,
    source: &str,
    bounds: &[(&str, u64)],
) -> CacheStats {
    static_pass(env, source);
    let (stages, cache_stats) = static_pass(env, source);
    for &(stage, bound) in bounds {
        let n = stages.iter().find(|(s, _)| *s == stage).expect("stage counted").1;
        assert!(n <= bound, "the {stage} stage made {n} allocations (bound {bound}): {stages:?}");
    }
    cache_stats
}

#[test]
fn a_static_pass_over_the_scale_workload_stays_under_its_allocation_bound() {
    let (env, source) = scale::scale_workload(40);
    let cache_stats = assert_within_bounds(
        &env,
        &source,
        &[
            ("parse", MAX_PARSE_ALLOCATIONS),
            ("summaries", MAX_SUMMARIES_ALLOCATIONS),
            ("comp check", MAX_COMP_CHECK_ALLOCATIONS),
            ("lints", MAX_LINTS_ALLOCATIONS),
            ("plain check", MAX_PLAIN_CHECK_ALLOCATIONS),
            ("total", MAX_PASS_ALLOCATIONS),
        ],
    );
    // Almost every comp-type evaluation there is a cache hit.
    assert!(cache_stats.hits > cache_stats.misses, "{cache_stats:?}");
}

#[test]
fn a_static_pass_over_the_call_workload_stays_under_its_allocation_bound() {
    let (env, source) = scale::call_workload(40);
    assert_within_bounds(&env, &source, &CALL_PASS_BOUNDS);
}

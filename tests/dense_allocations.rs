//! Bounds the heap allocations of one static pass over the scale workload
//! (40 methods, four DB query calls each): parse, effect summaries, comp
//! check, lints and plain-RDL check, the stages of `dense_app`'s pass.
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

use comprdl::{CheckOptions, TypeChecker};
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
/// 15% above the 14,014 it makes.
const MAX_PASS_ALLOCATIONS: u64 = 16_116;

/// The most allocations its parse stage may make: 15% above 1,515.
const MAX_PARSE_ALLOCATIONS: u64 = 1_742;

/// The most allocations its effect-summary stage may make: 15% above 834.
const MAX_SUMMARIES_ALLOCATIONS: u64 = 959;

/// The most allocations its comp-type check stage may make: 15% above
/// 6,517.
const MAX_COMP_CHECK_ALLOCATIONS: u64 = 7_494;

/// The most allocations its lint stage may make: 15% above 1,926.
const MAX_LINTS_ALLOCATIONS: u64 = 2_214;

/// The most allocations its plain-RDL check stage may make: 15% above
/// 3,222.
const MAX_PLAIN_CHECK_ALLOCATIONS: u64 = 3_705;

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

/// One static pass over `source`, stage by stage, as `dense_app` runs it.
fn static_pass(env: &comprdl::CompRdl, source: &str) -> Vec<(&'static str, u64)> {
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
    // The pass counts only while the comp cache hits and both checks pass.
    assert!(comp.cache_stats.hits > comp.cache_stats.misses, "{:?}", comp.cache_stats);
    assert!(comp.errors().is_empty() && plain.methods_checked() == 40);
    stages
}

#[test]
fn a_static_pass_over_the_scale_workload_stays_under_its_allocation_bound() {
    let (env, source) = scale::scale_workload(40);
    // The first pass builds the once-per-process library tables.
    static_pass(&env, &source);
    let stages = static_pass(&env, &source);
    let total: u64 = stages.iter().map(|(_, n)| n).sum();
    for (stage, n) in &stages {
        println!("{stage:>12}: {n}");
    }
    println!("{:>12}: {total}", "total");
    for (stage, bound) in [
        ("parse", MAX_PARSE_ALLOCATIONS),
        ("summaries", MAX_SUMMARIES_ALLOCATIONS),
        ("comp check", MAX_COMP_CHECK_ALLOCATIONS),
        ("lints", MAX_LINTS_ALLOCATIONS),
        ("plain check", MAX_PLAIN_CHECK_ALLOCATIONS),
    ] {
        let n = stages.iter().find(|(s, _)| *s == stage).expect("stage counted").1;
        assert!(n <= bound, "the {stage} stage made {n} allocations (bound {bound})");
    }
    assert!(
        total <= MAX_PASS_ALLOCATIONS,
        "one static pass made {total} allocations (bound {MAX_PASS_ALLOCATIONS}); per stage: \
         {stages:?}"
    );
}

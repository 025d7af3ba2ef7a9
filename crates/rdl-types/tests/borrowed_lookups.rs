//! The checker probes the class table and the annotation table at every
//! call site, so those probes must not allocate.  A counting global
//! allocator (per thread, so the test harness's own threads do not count)
//! checks that ancestor walks, subclass tests and signature lookups borrow
//! every name, on a hit and on a miss.

use rdl_types::{AnnotationTable, ClassTable, MethodKind, MethodSig, TypeExpr};
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

/// How many allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = std::hint::black_box(f());
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn class_and_annotation_probes_allocate_nothing() {
    let mut classes = ClassTable::with_builtins();
    classes.add_model_class("User", "ActiveRecord::Base");
    classes.add_class("A", Some("B"));
    classes.add_class("B", Some("A"));
    let mut table = AnnotationTable::new();
    let sig = MethodSig::simple(vec![], TypeExpr::nominal("Boolean"));
    table.add_singleton("ActiveRecord::Base", "exists?", sig.clone());
    table.add_instance("Object", "frozen?", sig);
    table.add_ivar("User", "@name", TypeExpr::nominal("String"));

    assert_eq!(allocations(|| classes.ancestors("User").count()), (3, 0));
    assert_eq!(allocations(|| classes.ancestors("A").count()), (65, 0));
    assert_eq!(allocations(|| classes.ancestors("Unknown").count()), (2, 0));
    assert_eq!(allocations(|| classes.is_subclass("Integer", "Numeric")), (true, 0));
    assert_eq!(allocations(|| classes.is_subclass("A", "Integer")), (false, 0));

    let hit = || table.lookup(&classes, "User", MethodKind::Singleton, "exists?").map(|(o, _)| o);
    assert_eq!(allocations(hit), (Some("ActiveRecord::Base"), 0));
    let inherited = || table.lookup(&classes, "Unknown", MethodKind::Instance, "frozen?").is_some();
    assert_eq!(allocations(inherited), (true, 0));
    let miss = || table.lookup(&classes, "A", MethodKind::Instance, "exists?").is_some();
    assert_eq!(allocations(miss), (false, 0));
    let exact = || table.get_exact("User", MethodKind::Singleton, "exists?").is_some();
    assert_eq!(allocations(exact), (false, 0));
    assert_eq!(allocations(|| table.ivar("User", "@name").is_some()), (true, 0));
}

//! The program index: one table of a parsed program's methods and classes.
//!
//! [`ProgramIndex`] is built from a [`Program`] in one walk of its items.
//! It borrows every owner, name and definition from the program, so a
//! build copies no name.  It is the one place that decides what a method's
//! identity is, which definitions a bare name reaches and what a class's
//! superclass is; the checker, the effect summaries, the dependency graph,
//! the lints and the corpus driver all read it.
//!
//! ```
//! use ruby_syntax::{parse_program_strict, ProgramIndex};
//!
//! let program = parse_program_strict(
//!     "class Base\n  def ping()\n    1\n  end\nend\nclass Shop < Base\nend\n",
//! )
//! .unwrap();
//! let index = ProgramIndex::new(&program);
//! assert_eq!(index.methods()[0].0, "Base");
//! assert!(index.defines_in_chain("Shop", "ping", false));
//! assert!(!index.defines_in_chain("Shop", "ping", true));
//! ```

use crate::ast::{ClassDef, Item, MethodDef, Program};
use crate::fxhash::FxHashMap;

/// A method's identity as an owned key: `(owner, name, singleton)`, with
/// `"Object"` as the owner of a top-level method.
pub type MethodId = (String, String, bool);

/// How many classes [`ProgramIndex::defines_in_chain`] visits: the
/// receiver's class and at most 15 of its superclasses, so a cyclic chain
/// ends too.
pub const SUPERCLASS_STEPS: usize = 16;

/// Marks the end of a chain of same-named definitions.
const NONE: usize = usize::MAX;

/// Where a program defines one `(owner, name, singleton)` identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Definitions {
    /// The first definition, as an index into [`ProgramIndex::methods`].
    pub first: usize,
    /// The last definition: the one a call reaches, since a redefinition
    /// replaces the method.
    pub last: usize,
    /// How many times the program defines the identity.
    pub count: usize,
}

/// Every method definition and class of one program, with method identity,
/// by-name call targets and superclasses resolved once.  See the module
/// docs.
#[derive(Debug, Clone, Default)]
pub struct ProgramIndex<'p> {
    methods: Vec<(&'p str, &'p MethodDef)>,
    /// For each definition, the next one with the same name ([`NONE`] at
    /// the end), so the definitions of a name chain in program order.
    next_named: Vec<usize>,
    /// Each method name's first definition.
    names: FxHashMap<&'p str, usize>,
    identities: FxHashMap<(&'p str, &'p str, bool), Definitions>,
    classes: Vec<&'p ClassDef>,
    /// Each class name's first definition, which supplies its superclass.
    class_named: FxHashMap<&'p str, &'p ClassDef>,
}

impl<'p> ProgramIndex<'p> {
    /// Indexes `program`: one walk of its items, nested classes included.
    /// A method's owner is its innermost enclosing class, `"Object"` at top
    /// level.
    pub fn new(program: &'p Program) -> Self {
        fn walk<'p>(
            owner: &'p str,
            items: &'p [Item],
            methods: &mut Vec<(&'p str, &'p MethodDef)>,
            classes: &mut Vec<&'p ClassDef>,
        ) {
            for item in items {
                match item {
                    Item::Method(m) => methods.push((owner, m)),
                    Item::Class(c) => {
                        classes.push(c);
                        walk(&c.name, &c.body, methods, classes);
                    }
                    Item::Expr(_) => {}
                }
            }
        }
        let (mut methods, mut classes) = (Vec::new(), Vec::new());
        walk("Object", &program.items, &mut methods, &mut classes);

        // Walking backwards, inserting a definition into `names` returns
        // the next definition with its name in program order; the map ends
        // holding each name's first definition.
        let mut next_named = vec![NONE; methods.len()];
        let mut names = FxHashMap::default();
        let mut identities: FxHashMap<_, Definitions> = FxHashMap::default();
        names.reserve(methods.len());
        identities.reserve(methods.len());
        for (i, &(owner, def)) in methods.iter().enumerate().rev() {
            next_named[i] = names.insert(def.name.as_str(), i).unwrap_or(NONE);
            identities
                .entry((owner, def.name.as_str(), def.singleton))
                .and_modify(|d| {
                    d.first = i;
                    d.count += 1;
                })
                .or_insert(Definitions { first: i, last: i, count: 1 });
        }
        // Backwards too, so a class's first definition is inserted last.
        let mut class_named = FxHashMap::default();
        for &c in classes.iter().rev() {
            class_named.insert(c.name.as_str(), c);
        }
        ProgramIndex { methods, next_named, names, identities, classes, class_named }
    }

    /// Every method definition in program order, with its owner.
    pub fn methods(&self) -> &[(&'p str, &'p MethodDef)] {
        &self.methods
    }

    /// The definitions named `name`, on any owner, as indices into
    /// [`ProgramIndex::methods`] in program order.  These are the targets
    /// of a by-name call.
    pub fn definitions_named(&self, name: &str) -> impl Iterator<Item = usize> + '_ {
        let first = self.names.get(name).copied();
        std::iter::successors(first, |&i| Some(self.next_named[i]).filter(|&next| next != NONE))
    }

    /// Whether the program defines a method named `name` on any owner.
    pub fn defines_name(&self, name: &str) -> bool {
        self.names.contains_key(name)
    }

    /// Where the program defines the identity `(owner, name, singleton)`,
    /// or `None` when it does not.
    pub fn identity(&self, owner: &str, name: &str, singleton: bool) -> Option<Definitions> {
        self.identities.get(&(owner, name, singleton)).copied()
    }

    /// Every class definition in program order, reopenings included.
    pub fn classes(&self) -> &[&'p ClassDef] {
        &self.classes
    }

    /// Whether the program defines a class named `name`.
    pub fn defines_class(&self, name: &str) -> bool {
        self.class_named.contains_key(name)
    }

    /// The superclass that the first definition of class `name` names, or
    /// `None` when it names none or the program does not define `name`.
    pub fn superclass(&self, name: &str) -> Option<&'p str> {
        self.class_named.get(name).and_then(|c| c.superclass.as_deref())
    }

    /// Whether `class`, or a superclass the program defines for it, defines
    /// the method `(name, singleton)`.  The walk visits at most
    /// [`SUPERCLASS_STEPS`] classes and stops at the first class the
    /// program does not define.
    pub fn defines_in_chain(&self, class: &str, name: &str, singleton: bool) -> bool {
        std::iter::successors(Some(class), |c| self.superclass(c))
            .take(SUPERCLASS_STEPS)
            .any(|c| self.identities.contains_key(&(c, name, singleton)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program_strict;

    fn index_of(src: &str, check: impl FnOnce(&ProgramIndex)) {
        let program = parse_program_strict(src).unwrap();
        check(&ProgramIndex::new(&program));
    }

    #[test]
    fn nested_classes_and_top_level_methods_get_their_owners() {
        index_of(
            "def top()\n  1\nend\nclass Outer\n  def a()\n    1\n  end\n  class Inner\n    \
             def b()\n      1\n    end\n  end\n  def c()\n    1\n  end\nend\n",
            |index| {
                let owners: Vec<(&str, &str)> =
                    index.methods().iter().map(|(o, d)| (*o, d.name.as_str())).collect();
                assert_eq!(
                    owners,
                    [("Object", "top"), ("Outer", "a"), ("Inner", "b"), ("Outer", "c")]
                );
                let classes: Vec<&str> = index.classes().iter().map(|c| c.name.as_str()).collect();
                assert_eq!(classes, ["Outer", "Inner"]);
                assert!(index.defines_class("Inner") && !index.defines_class("Object"));
                assert!(index.identity("Object", "top", false).is_some());
                assert!(index.identity("Outer", "b", false).is_none());
            },
        );
    }

    #[test]
    fn singleton_and_instance_methods_are_distinct_identities() {
        index_of(
            "class Shop\n  def self.open()\n    1\n  end\n  def open()\n    2\n  end\nend\n",
            |index| {
                let class = index.identity("Shop", "open", true).unwrap();
                let instance = index.identity("Shop", "open", false).unwrap();
                assert_eq!((class.first, class.count), (0, 1));
                assert_eq!((instance.first, instance.count), (1, 1));
                assert_eq!(index.definitions_named("open").collect::<Vec<_>>(), [0, 1]);
                assert!(index.definitions_named("close").next().is_none());
                assert!(index.defines_name("open") && !index.defines_name("close"));
            },
        );
    }

    #[test]
    fn a_redefinition_counts_and_keeps_both_definitions() {
        index_of(
            "class Shop\n  def m(x)\n    x + 1\n  end\n  def n()\n    1\n  end\n  \
             def m(x)\n    x + 2\n  end\nend\ndef m()\n  3\nend\n",
            |index| {
                let m = index.identity("Shop", "m", false).unwrap();
                assert_eq!(m, Definitions { first: 0, last: 2, count: 2 });
                assert_eq!(index.identity("Object", "m", false).unwrap().count, 1);
                // A by-name call reaches every definition, on every owner.
                assert_eq!(index.definitions_named("m").collect::<Vec<_>>(), [0, 2, 3]);
            },
        );
    }

    #[test]
    fn superclass_chains_resolve_through_the_first_class_definition() {
        index_of(
            "class A\n  def self.make()\n    1\n  end\nend\nclass B < A\nend\nclass C < B\nend\n\
             class C < A\nend\n",
            |index| {
                assert_eq!(index.superclass("C"), Some("B"));
                assert_eq!(index.superclass("A"), None);
                assert!(index.defines_in_chain("C", "make", true));
                assert!(!index.defines_in_chain("C", "make", false));
                assert!(!index.defines_in_chain("Unknown", "make", true));
            },
        );
    }

    #[test]
    fn a_cyclic_or_long_superclass_chain_stops_after_sixteen_classes() {
        index_of("class A < B\nend\nclass B < A\nend\n", |index| {
            assert!(!index.defines_in_chain("A", "m", false));
        });
        // K0 < K1 < ... < K16: K15 is the sixteenth class the walk visits.
        let mut src = String::new();
        for i in 0..=SUPERCLASS_STEPS {
            src.push_str(&format!("class K{i} < K{}\nend\n", i + 1));
        }
        let at = |depth: usize| format!("{src}class K{depth}\n  def m()\n    1\n  end\nend\n");
        index_of(&at(SUPERCLASS_STEPS - 1), |index| {
            assert!(index.defines_in_chain("K0", "m", false))
        });
        index_of(&at(SUPERCLASS_STEPS), |index| assert!(!index.defines_in_chain("K0", "m", false)));
    }
}

//! The class hierarchy.
//!
//! RDL tracks a class table mapping class names to their superclasses; the
//! subtype relation on nominal types follows the subclass relation, with
//! `Object` at the top (the paper's λC similarly assumes the classes form a
//! lattice with `Obj` as top).
//!
//! The table is shared copy-on-write behind an [`Arc`]: cloning it (as every
//! run-time check hook does with its environment's table) copies a pointer,
//! and a write copies the map only while another clone still shares it.

use crate::name::Name;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Information recorded about a class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassInfo {
    /// The superclass name (`None` only for `Object`).
    pub superclass: Option<Name>,
    /// Generic type parameter names declared for the class (e.g. `Array`
    /// has `["a"]`, `Hash` has `["k", "v"]`).
    pub type_params: Vec<Name>,
    /// Whether the class models a Rails `ActiveRecord` / `Sequel` model
    /// backed by a DB table.
    pub is_model: bool,
}

impl Default for ClassInfo {
    fn default() -> Self {
        ClassInfo { superclass: Some("Object".into()), type_params: vec![], is_model: false }
    }
}

/// How many superclass steps [`ClassTable::ancestors`] takes at most.
const MAX_SUPERCLASS_STEPS: usize = 64;

/// The class hierarchy: class name → [`ClassInfo`], shared copy-on-write
/// (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassTable {
    classes: Arc<BTreeMap<Name, ClassInfo>>,
}

impl ClassTable {
    /// An empty class table containing only `Object`.
    pub fn new() -> Self {
        let mut ct = ClassTable::default();
        ct.insert("Object", ClassInfo { superclass: None, type_params: vec![], is_model: false });
        ct
    }

    /// Adds (or replaces) `name`, copying the map first if another clone
    /// shares it.
    fn insert(&mut self, name: &str, info: ClassInfo) {
        Arc::make_mut(&mut self.classes).insert(name.into(), info);
    }

    /// A class table pre-populated with the Ruby core classes CompRDL's
    /// standard library annotations refer to.
    pub fn with_builtins() -> Self {
        let mut ct = ClassTable::new();
        for (name, superclass) in [
            ("BasicObject", "Object"),
            ("Module", "Object"),
            ("Class", "Module"),
            ("NilClass", "Object"),
            ("Boolean", "Object"),
            ("TrueClass", "Boolean"),
            ("FalseClass", "Boolean"),
            ("Comparable", "Object"),
            ("Numeric", "Object"),
            ("Integer", "Numeric"),
            ("Float", "Numeric"),
            ("String", "Comparable"),
            ("Symbol", "Object"),
            ("Regexp", "Object"),
            ("Range", "Object"),
            ("Proc", "Object"),
            ("Exception", "Object"),
            ("StandardError", "Exception"),
            ("ArgumentError", "StandardError"),
            ("TypeError", "StandardError"),
            ("RuntimeError", "StandardError"),
            ("IO", "Object"),
            ("Time", "Object"),
            ("Date", "Object"),
            ("JSON", "Object"),
            ("RDL", "Object"),
            ("Kernel", "Object"),
            ("Struct", "Object"),
            ("ActiveRecord", "Object"),
            ("ActiveRecord::Base", "Object"),
            ("ActiveRecord::Relation", "Object"),
            ("Sequel", "Object"),
            ("Sequel::Model", "Object"),
            ("Sequel::Dataset", "Object"),
        ] {
            ct.add_class(name, Some(superclass));
        }
        ct.add_generic_class("Array", Some("Object"), &["a"]);
        ct.add_generic_class("Hash", Some("Object"), &["k", "v"]);
        ct.add_generic_class("Table", Some("Object"), &["t"]);
        ct.add_generic_class("Enumerator", Some("Object"), &["a"]);
        ct
    }

    /// Adds (or replaces) a class.
    pub fn add_class(&mut self, name: &str, superclass: Option<&str>) {
        self.insert(
            name,
            ClassInfo {
                superclass: superclass.map(Name::from),
                type_params: vec![],
                is_model: false,
            },
        );
    }

    /// Adds a class with generic type parameters.
    pub fn add_generic_class(&mut self, name: &str, superclass: Option<&str>, params: &[&str]) {
        self.insert(
            name,
            ClassInfo {
                superclass: superclass.map(Name::from),
                type_params: params.iter().map(|&p| p.into()).collect(),
                is_model: false,
            },
        );
    }

    /// Marks a class as a DB-backed model class.
    pub fn add_model_class(&mut self, name: &str, superclass: &str) {
        self.insert(
            name,
            ClassInfo { superclass: Some(superclass.into()), type_params: vec![], is_model: true },
        );
    }

    /// Looks up a class.
    pub fn get(&self, name: &str) -> Option<&ClassInfo> {
        self.classes.get(name)
    }

    /// True if the class is known.
    pub fn contains(&self, name: &str) -> bool {
        self.classes.contains_key(name)
    }

    /// True if the class was registered as a DB model.
    pub fn is_model(&self, name: &str) -> bool {
        self.get(name).map(|c| c.is_model).unwrap_or(false)
    }

    /// All class names in the table.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.classes.keys().map(|s| s.as_str())
    }

    /// The superclass chain of `name`: `name` itself, then its superclass,
    /// and so on for at most 64 steps, so a cyclic hierarchy still ends.
    /// The chain ends early at a class with no superclass or at an
    /// unregistered one.  An unknown `name` gets the chain `[name,
    /// "Object"]`, so user code referencing unregistered classes still
    /// type checks against `Object`.
    ///
    /// The walk borrows every name from `name` or from the table and
    /// allocates nothing; a caller that needs a `Vec` collects it.
    pub fn ancestors<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        let fallback = (name != "Object" && !self.classes.contains_key(name)).then_some("Object");
        std::iter::successors(Some(name), |class| self.classes.get(*class)?.superclass.as_deref())
            .take(MAX_SUPERCLASS_STEPS + 1)
            .chain(fallback)
    }

    /// True if `sub` is `sup` or a (transitive) subclass of it.
    pub fn is_subclass(&self, sub: &str, sup: &str) -> bool {
        if sup == "Object" || sub == sup {
            return true;
        }
        self.ancestors(sub).any(|a| a == sup)
    }

    /// The nearest common ancestor of two classes: the first of `a`'s
    /// ancestors that is also one of `b`'s, else `Object`.
    pub fn common_ancestor<'a>(&'a self, a: &'a str, b: &'a str) -> &'a str {
        self.ancestors(a).find(|anc| self.ancestors(b).any(|x| x == *anc)).unwrap_or("Object")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_have_expected_hierarchy() {
        let ct = ClassTable::with_builtins();
        assert!(ct.is_subclass("Integer", "Numeric"));
        assert!(ct.is_subclass("Integer", "Object"));
        assert!(ct.is_subclass("TrueClass", "Boolean"));
        assert!(!ct.is_subclass("String", "Numeric"));
        assert_eq!(ct.common_ancestor("Integer", "Float"), "Numeric");
        assert_eq!(ct.common_ancestor("Integer", "String"), "Object");
    }

    #[test]
    fn user_classes_and_models() {
        let mut ct = ClassTable::with_builtins();
        ct.add_model_class("User", "ActiveRecord::Base");
        assert!(ct.is_model("User"));
        assert!(ct.is_subclass("User", "ActiveRecord::Base"));
        assert!(!ct.is_model("String"));
    }

    #[test]
    fn unknown_classes_default_to_object() {
        let ct = ClassTable::with_builtins();
        assert!(ct.is_subclass("SomethingUnknown", "Object"));
        assert_eq!(chain(&ct, "SomethingUnknown"), ["SomethingUnknown", "Object"]);
    }

    #[test]
    fn clones_share_the_map_until_one_writes() {
        let base = ClassTable::with_builtins();
        let mut app = base.clone();
        assert!(Arc::ptr_eq(&base.classes, &app.classes));
        app.add_model_class("User", "ActiveRecord::Base");
        assert!(!Arc::ptr_eq(&base.classes, &app.classes));
        assert!(app.is_model("User") && !base.contains("User"));
    }

    #[test]
    fn generic_params_are_recorded() {
        let ct = ClassTable::with_builtins();
        assert_eq!(ct.get("Hash").unwrap().type_params, vec!["k", "v"]);
        assert_eq!(ct.get("Array").unwrap().type_params, vec!["a"]);
    }

    /// `name`'s whole ancestor chain, for exact comparisons.
    fn chain<'a>(ct: &'a ClassTable, name: &'a str) -> Vec<&'a str> {
        ct.ancestors(name).collect()
    }

    #[test]
    fn ancestors_terminate_on_cycles() {
        let mut ct = ClassTable::new();
        ct.add_class("A", Some("B"));
        ct.add_class("B", Some("A"));
        // The class itself, then 64 superclass steps around the cycle.
        let expected: Vec<&str> = (0..65).map(|i| if i % 2 == 0 { "A" } else { "B" }).collect();
        assert_eq!(chain(&ct, "A"), expected);
        assert!(ct.is_subclass("A", "B"));
        assert!(ct.is_subclass("B", "A"));
        assert!(!ct.is_subclass("A", "C"));
        assert_eq!(ct.common_ancestor("A", "B"), "A");
        assert_eq!(ct.common_ancestor("B", "A"), "B");
        assert_eq!(ct.common_ancestor("A", "C"), "Object");
    }

    #[test]
    fn ancestor_chains_are_exact() {
        // C0 < C1 < ... < C69 < Object: the walk stops after 64 steps.
        let mut ct = ClassTable::new();
        for i in 0..70 {
            let sup = if i == 69 { "Object".to_string() } else { format!("C{}", i + 1) };
            ct.add_class(&format!("C{i}"), Some(&sup));
        }
        let expected: Vec<String> = (0..=64).map(|i| format!("C{i}")).collect();
        assert_eq!(chain(&ct, "C0"), expected);
        assert_eq!(chain(&ct, "C68"), ["C68", "C69", "Object"]);
        // An unknown class falls back to `Object`; `Object` is its own chain.
        assert_eq!(chain(&ct, "X"), ["X", "Object"]);
        assert_eq!(chain(&ct, "Object"), ["Object"]);
        assert_eq!(chain(&ClassTable::default(), "Object"), ["Object"]);
        // A known class stops at an unregistered superclass, with no fallback.
        ct.add_class("Orphan", Some("Missing"));
        assert_eq!(chain(&ct, "Orphan"), ["Orphan", "Missing"]);
        assert!(!ct.is_subclass("Orphan", "C0"));
        assert_eq!(ct.common_ancestor("Orphan", "C0"), "Object");
        assert_eq!(ct.common_ancestor("C3", "C0"), "C3");
    }
}

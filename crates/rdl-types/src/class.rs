//! The class hierarchy.
//!
//! RDL tracks a class table mapping class names to their superclasses; the
//! subtype relation on nominal types follows the subclass relation, with
//! `Object` at the top (the paper's λC similarly assumes the classes form a
//! lattice with `Obj` as top).

use std::collections::BTreeMap;

/// Information recorded about a class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassInfo {
    /// The superclass name (`None` only for `Object`).
    pub superclass: Option<String>,
    /// Generic type parameter names declared for the class (e.g. `Array`
    /// has `["a"]`, `Hash` has `["k", "v"]`).
    pub type_params: Vec<String>,
    /// Whether the class models a Rails `ActiveRecord` / `Sequel` model
    /// backed by a DB table.
    pub is_model: bool,
}

impl Default for ClassInfo {
    fn default() -> Self {
        ClassInfo { superclass: Some("Object".to_string()), type_params: vec![], is_model: false }
    }
}

/// The class hierarchy: class name → [`ClassInfo`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassTable {
    classes: BTreeMap<String, ClassInfo>,
}

impl ClassTable {
    /// An empty class table containing only `Object`.
    pub fn new() -> Self {
        let mut ct = ClassTable::default();
        ct.classes.insert(
            "Object".to_string(),
            ClassInfo { superclass: None, type_params: vec![], is_model: false },
        );
        ct
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
        self.classes.insert(
            name.to_string(),
            ClassInfo {
                superclass: superclass.map(|s| s.to_string()),
                type_params: vec![],
                is_model: false,
            },
        );
    }

    /// Adds a class with generic type parameters.
    pub fn add_generic_class(&mut self, name: &str, superclass: Option<&str>, params: &[&str]) {
        self.classes.insert(
            name.to_string(),
            ClassInfo {
                superclass: superclass.map(|s| s.to_string()),
                type_params: params.iter().map(|p| p.to_string()).collect(),
                is_model: false,
            },
        );
    }

    /// Marks a class as a DB-backed model class.
    pub fn add_model_class(&mut self, name: &str, superclass: &str) {
        self.classes.insert(
            name.to_string(),
            ClassInfo {
                superclass: Some(superclass.to_string()),
                type_params: vec![],
                is_model: true,
            },
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

    /// The superclass chain of `name`, starting with `name` itself and
    /// ending with `Object`.  Unknown classes get the chain `[name,
    /// "Object"]` so user code referencing unregistered classes still type
    /// checks against `Object`.
    pub fn ancestors(&self, name: &str) -> Vec<String> {
        let mut out = vec![name.to_string()];
        let mut current = name.to_string();
        let mut fuel = 64;
        while fuel > 0 {
            fuel -= 1;
            match self.classes.get(&current).and_then(|c| c.superclass.clone()) {
                Some(sup) => {
                    out.push(sup.clone());
                    current = sup;
                }
                None => break,
            }
        }
        if !self.classes.contains_key(name) && !out.contains(&"Object".to_string()) {
            out.push("Object".to_string());
        }
        out
    }

    /// True if `sub` is `sup` or a (transitive) subclass of it.
    pub fn is_subclass(&self, sub: &str, sup: &str) -> bool {
        if sup == "Object" || sub == sup {
            return true;
        }
        self.ancestors(sub).iter().any(|a| a == sup)
    }

    /// The nearest common ancestor of two classes.
    pub fn common_ancestor(&self, a: &str, b: &str) -> String {
        let bs = self.ancestors(b);
        for anc in self.ancestors(a) {
            if bs.contains(&anc) {
                return anc;
            }
        }
        "Object".to_string()
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
        assert_eq!(ct.ancestors("SomethingUnknown"), vec!["SomethingUnknown", "Object"]);
    }

    #[test]
    fn generic_params_are_recorded() {
        let ct = ClassTable::with_builtins();
        assert_eq!(ct.get("Hash").unwrap().type_params, vec!["k", "v"]);
        assert_eq!(ct.get("Array").unwrap().type_params, vec!["a"]);
    }

    #[test]
    fn ancestors_terminate_on_cycles() {
        let mut ct = ClassTable::new();
        ct.add_class("A", Some("B"));
        ct.add_class("B", Some("A"));
        // Must not loop forever.
        let anc = ct.ancestors("A");
        assert!(anc.len() <= 66);
    }
}

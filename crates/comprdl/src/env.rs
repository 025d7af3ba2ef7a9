//! The CompRDL environment: class table, annotation table, helper registry.
//!
//! This mirrors RDL's global state populated by `type`, `var_type` and
//! `global_type` calls.  Library annotation sets (the Ruby core library in
//! [`crate::stdlib`], the database DSLs in the `db-types` crate) are each
//! parsed once per process into a [`CompRdl`] value that
//! [`CompRdl::merge_library`] shares into every environment, and
//! applications add their own annotations for the methods they want
//! checked.

use crate::tlc::{HelperRegistry, TlcCtx, TlcResult, TlcValue};
use rdl_types::{
    parse_method_sig, parse_type_expr, AnnotationTable, ClassTable, MethodSig, PurityEffect,
    TermEffect,
};
use std::sync::OnceLock;

/// The assembled CompRDL environment.
#[derive(Debug, Clone, Default)]
pub struct CompRdl {
    /// The class hierarchy.
    pub classes: ClassTable,
    /// Registered method / variable type annotations.
    pub annotations: AnnotationTable,
    /// Helper methods callable from type-level code.
    pub helpers: HelperRegistry,
    /// Lines of type-level code registered per library (class name →
    /// annotation LoC), used to regenerate Table 1.
    loc_per_library: std::collections::BTreeMap<String, usize>,
}

impl CompRdl {
    /// A fresh environment with the builtin class hierarchy and no
    /// annotations.  The hierarchy is built once per process and shared
    /// copy-on-write, so an env's first class declaration copies the map's
    /// nodes and reference counts, not its names.
    pub fn new() -> Self {
        static BUILTIN_CLASSES: OnceLock<ClassTable> = OnceLock::new();
        CompRdl {
            classes: BUILTIN_CLASSES.get_or_init(ClassTable::with_builtins).clone(),
            annotations: AnnotationTable::new(),
            helpers: HelperRegistry::new(),
            loc_per_library: Default::default(),
        }
    }

    // ---- classes --------------------------------------------------------

    /// Declares a class.
    pub fn add_class(&mut self, name: &str, superclass: &str) {
        self.classes.add_class(name, Some(superclass));
    }

    /// Declares a DB-backed model class (ActiveRecord / Sequel model).
    pub fn add_model_class(&mut self, name: &str, superclass: &str) {
        self.classes.add_model_class(name, superclass);
    }

    // ---- method annotations ---------------------------------------------

    fn record_loc(&mut self, class: &str, sig_src: &str) {
        *self.loc_per_library.entry(class.to_string()).or_default() +=
            sig_src.lines().filter(|l| !l.trim().is_empty()).count().max(1);
    }

    /// Registers an instance method annotation, e.g.
    /// `type_sig("Hash", "[]", "(t<:Object) -> «...»", None)`.
    ///
    /// # Panics
    ///
    /// Panics if the annotation string does not parse; annotations are
    /// library-author input, so a parse failure is a programming error.
    pub fn type_sig(&mut self, class: &str, method: &str, sig: &str, label: Option<&str>) {
        let parsed = self.parse_sig(class, method, sig, label);
        self.annotations.add_instance(class, method, parsed);
    }

    /// Registers a class (singleton) method annotation.
    ///
    /// # Panics
    ///
    /// Panics if the annotation string does not parse.
    pub fn type_sig_singleton(
        &mut self,
        class: &str,
        method: &str,
        sig: &str,
        label: Option<&str>,
    ) {
        let parsed = self.parse_sig(class, method, sig, label);
        self.annotations.add_singleton(class, method, parsed);
    }

    /// Registers an instance method annotation with explicit termination and
    /// purity effects (`terminates:` / `pure:` in the paper).
    ///
    /// # Panics
    ///
    /// Panics if the annotation string does not parse.
    pub fn type_sig_with_effects(
        &mut self,
        class: &str,
        method: &str,
        sig: &str,
        term: TermEffect,
        purity: PurityEffect,
    ) {
        let parsed = self.parse_sig(class, method, sig, None).with_term(term).with_purity(purity);
        self.annotations.add_instance(class, method, parsed);
    }

    fn parse_sig(
        &mut self,
        class: &str,
        method: &str,
        sig: &str,
        label: Option<&str>,
    ) -> MethodSig {
        self.record_loc(class, sig);
        let mut parsed = parse_method_sig(sig).unwrap_or_else(|e| {
            panic!("invalid type annotation for {class}#{method}: {e}\n  {sig}")
        });
        if let Some(label) = label {
            parsed = parsed.with_label(label);
        }
        parsed
    }

    /// Registers an instance variable type (`var_type :@x, "T"`).
    ///
    /// # Panics
    ///
    /// Panics if the annotation string does not parse.
    pub fn var_type(&mut self, class: &str, ivar: &str, ty: &str) {
        let te = parse_type_expr(ty)
            .unwrap_or_else(|e| panic!("invalid var_type for {class}@{ivar}: {e}"));
        self.annotations.add_ivar(class, ivar, te);
    }

    /// Registers a global variable type.
    ///
    /// # Panics
    ///
    /// Panics if the annotation string does not parse.
    pub fn global_type(&mut self, name: &str, ty: &str) {
        let te =
            parse_type_expr(ty).unwrap_or_else(|e| panic!("invalid global_type for ${name}: {e}"));
        self.annotations.add_gvar(name, te);
    }

    // ---- helpers ----------------------------------------------------------

    /// Registers a native (Rust) helper callable from type-level code.
    /// Helpers must be `Send + Sync` so the assembled environment can be
    /// shared across the threads of a parallel checking run.
    pub fn register_helper_native(
        &mut self,
        name: &str,
        f: impl Fn(&mut TlcCtx<'_>, &[TlcValue]) -> TlcResult + Send + Sync + 'static,
    ) {
        self.helpers.register_native(name, f);
    }

    /// Registers helper methods written in the Ruby subset.
    ///
    /// # Panics
    ///
    /// Panics if the helper source does not parse.
    pub fn register_helpers_ruby(&mut self, src: &str) {
        self.helpers.register_ruby(src).unwrap_or_else(|e| panic!("invalid helper methods: {e}"));
    }

    // ---- shared libraries -------------------------------------------------

    /// Merges a library environment into this one.  Later registrations
    /// win, and the library's Table 1 LoC adds to this environment's, so
    /// the result equals registering the library's annotations here
    /// directly.
    ///
    /// Where this environment has none yet, each annotated class's
    /// signature map, each helper map and the annotations' effect join (see
    /// [`AnnotationTable`]) are shared by one `Arc` clone.  A class or map
    /// both sides hold is copied once and merged entry by entry, and a
    /// later registration copies only the class it touches.  So a
    /// library's maps and effect join are built once per process, in the
    /// `OnceLock` that holds it.
    ///
    /// A library declares no classes, so classes are not merged.
    pub fn merge_library(&mut self, library: &CompRdl) {
        self.annotations.merge(&library.annotations);
        self.helpers.merge(&library.helpers);
        for (class, loc) in &library.loc_per_library {
            *self.loc_per_library.entry(class.clone()).or_default() += loc;
        }
    }

    // ---- statistics (Table 1) ---------------------------------------------

    /// Number of comp-type annotations registered for `class`.
    pub fn comp_type_count(&self, class: &str) -> usize {
        self.annotations.comp_count_for(class)
    }

    /// Number of annotations (comp or not) registered for `class`.
    pub fn annotation_count(&self, class: &str) -> usize {
        self.annotations.method_count_for(class)
    }

    /// Lines of type-level code registered for `class` (annotation strings).
    pub fn annotation_loc(&self, class: &str) -> usize {
        self.loc_per_library.get(class).copied().unwrap_or(0)
    }

    /// Number of registered helper methods (shared across libraries).
    pub fn helper_count(&self) -> usize {
        self.helpers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdl_types::MethodKind;

    #[test]
    fn registration_and_lookup() {
        let mut env = CompRdl::new();
        env.add_model_class("User", "ActiveRecord::Base");
        env.type_sig("Hash", "[]", "(k) -> v", None);
        env.type_sig_singleton("User", "find", "(Integer) -> User", None);
        env.var_type("User", "name", "String");
        env.global_type("$schema", "Hash<Symbol, Object>");

        assert!(env.annotations.lookup(&env.classes, "Hash", MethodKind::Instance, "[]").is_some());
        assert!(env
            .annotations
            .lookup(&env.classes, "User", MethodKind::Singleton, "find")
            .is_some());
        assert!(env.annotations.ivar("User", "name").is_some());
        assert!(env.annotations.gvar("$schema").is_some());
        assert!(env.classes.is_model("User"));
        assert_eq!(env.annotation_count("Hash"), 1);
        assert!(env.annotation_loc("Hash") >= 1);
    }

    #[test]
    fn comp_counting() {
        let mut env = CompRdl::new();
        env.type_sig("Hash", "keys", "() -> Array<k>", None);
        env.type_sig(
            "Hash",
            "[]",
            "(t<:Object) -> «if tself.is_a?(FiniteHash) then tself.value_type else tself.value_type end»",
            None,
        );
        assert_eq!(env.annotation_count("Hash"), 2);
        assert_eq!(env.comp_type_count("Hash"), 1);
    }

    #[test]
    fn effects_are_recorded() {
        let mut env = CompRdl::new();
        env.type_sig_with_effects(
            "Array",
            "map",
            "() { (a) -> b } -> Array<b>",
            TermEffect::BlockDep,
            PurityEffect::Pure,
        );
        let (_, sig) =
            env.annotations.lookup(&env.classes, "Array", MethodKind::Instance, "map").unwrap();
        assert_eq!(sig.term, TermEffect::BlockDep);
        assert_eq!(sig.purity, PurityEffect::Pure);
    }

    #[test]
    #[should_panic(expected = "invalid type annotation")]
    fn bad_annotations_panic() {
        let mut env = CompRdl::new();
        env.type_sig("Hash", "broken", "not a signature", None);
    }
}

//! Method signatures, comp types, effects and the annotation table.
//!
//! A CompRDL method annotation such as
//!
//! ```text
//! type Table, :joins, "(t<:Symbol) -> «if t.is_a?(Singleton) then ... end»"
//! ```
//!
//! is represented as a [`MethodSig`] whose parameter and return positions
//! hold [`TypeExpr`]s: either ordinary (static) types or *comp types* —
//! Ruby-subset expressions evaluated during type checking (paper §2).
//!
//! Because tuple / finite-hash / const-string types are store-backed (see
//! [`TypeStore`]), signatures store a structural [`TypeExpr`] and are
//! *instantiated* into a concrete [`Type`] against a particular store when
//! they are used.

use crate::class::ClassTable;
use crate::store::TypeStore;
use crate::ty::{HashKey, Type};
use ruby_syntax::Expr;
use std::collections::HashMap;
use std::fmt;

/// Termination effect of a method (paper §4, Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TermEffect {
    /// `:+` — the method always terminates.
    Terminates,
    /// `:-` — the method may diverge.
    #[default]
    MayDiverge,
    /// `:blockdep` — an iterator that terminates iff its block terminates
    /// and is pure.
    BlockDep,
}

/// Purity effect of a method (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PurityEffect {
    /// `:+` — the method writes no instance/class/global state and calls
    /// only pure methods.
    Pure,
    /// `:-` — the method may mutate state.
    #[default]
    Impure,
}

/// A type-level computation: a Ruby-subset expression evaluated during type
/// checking to produce a type.
#[derive(Debug, Clone, PartialEq)]
pub struct CompSpec {
    /// The parsed type-level expression.
    pub expr: Expr,
    /// The original source text between `«` and `»`.
    pub source: String,
    /// A static fallback bound used when comp-type evaluation is disabled
    /// (plain-RDL mode) and by λC-style checking of the comp type itself.
    pub bound: Box<TypeExpr>,
}

/// A structural type expression as written in an annotation.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeExpr {
    /// An ordinary type that needs no store allocation.
    Simple(Type),
    /// A generic instantiation whose arguments may themselves need
    /// instantiation, e.g. `Table<{id: Integer}>`.
    Generic(String, Vec<TypeExpr>),
    /// A union of type expressions.
    Union(Vec<TypeExpr>),
    /// An optional parameter type `?T`.
    Optional(Box<TypeExpr>),
    /// A vararg parameter type `*T`.
    Vararg(Box<TypeExpr>),
    /// A tuple type `[T1, ..., Tn]` (instantiates to a store-backed tuple).
    Tuple(Vec<TypeExpr>),
    /// A finite hash type `{ a: T1, b: T2 }` (store-backed).
    FiniteHash(Vec<(HashKey, TypeExpr)>),
    /// A const string type with a known literal value (store-backed).
    ConstString(String),
    /// A type-level computation `«expr»`.
    Comp(CompSpec),
}

impl TypeExpr {
    /// A simple nominal type expression.
    pub fn nominal(name: &str) -> TypeExpr {
        TypeExpr::Simple(Type::nominal(name))
    }

    /// True if this expression (or any nested part of it) is a comp type.
    pub fn has_comp(&self) -> bool {
        match self {
            TypeExpr::Comp(_) => true,
            TypeExpr::Generic(_, args) | TypeExpr::Union(args) | TypeExpr::Tuple(args) => {
                args.iter().any(TypeExpr::has_comp)
            }
            TypeExpr::Optional(t) | TypeExpr::Vararg(t) => t.has_comp(),
            TypeExpr::FiniteHash(entries) => entries.iter().any(|(_, t)| t.has_comp()),
            _ => false,
        }
    }

    /// Instantiates the expression into a concrete [`Type`], allocating
    /// store entries for tuples, finite hashes and const strings.  Comp
    /// types instantiate to their static *bound* (callers that want to run
    /// the computation do so via the CompRDL type-level evaluator instead).
    pub fn instantiate(&self, store: &mut TypeStore) -> Type {
        match self {
            TypeExpr::Simple(t) => t.clone(),
            TypeExpr::Generic(base, args) => Type::Generic {
                base: base.clone(),
                args: args.iter().map(|a| a.instantiate(store)).collect(),
            },
            TypeExpr::Union(ts) => Type::union(ts.iter().map(|t| t.instantiate(store))),
            TypeExpr::Optional(t) => Type::Optional(Box::new(t.instantiate(store))),
            TypeExpr::Vararg(t) => Type::Vararg(Box::new(t.instantiate(store))),
            TypeExpr::Tuple(ts) => {
                let elems = ts.iter().map(|t| t.instantiate(store)).collect();
                store.new_tuple(elems)
            }
            TypeExpr::FiniteHash(entries) => {
                let entries =
                    entries.iter().map(|(k, t)| (k.clone(), t.instantiate(store))).collect();
                store.new_finite_hash(entries)
            }
            TypeExpr::ConstString(s) => store.new_const_string(s.clone()),
            TypeExpr::Comp(spec) => spec.bound.instantiate(store),
        }
    }
}

impl fmt::Display for TypeExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeExpr::Simple(t) => write!(f, "{t}"),
            TypeExpr::Generic(base, args) => {
                write!(f, "{base}<")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ">")
            }
            TypeExpr::Union(ts) => {
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " or ")?;
                    }
                    write!(f, "{t}")?;
                }
                Ok(())
            }
            TypeExpr::Optional(t) => write!(f, "?{t}"),
            TypeExpr::Vararg(t) => write!(f, "*{t}"),
            TypeExpr::Tuple(ts) => {
                write!(f, "[")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, "]")
            }
            TypeExpr::FiniteHash(entries) => {
                write!(f, "{{ ")?;
                for (i, (k, t)) in entries.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k} {t}")?;
                }
                write!(f, " }}")
            }
            TypeExpr::ConstString(s) => write!(f, "{s:?}"),
            TypeExpr::Comp(spec) => write!(f, "«{}»", spec.source),
        }
    }
}

/// A single parameter of a method signature.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSig {
    /// The binder name (`t` in `t<:Symbol`) that the return comp type may
    /// refer to; `None` when the parameter is unnamed.
    pub binder: Option<String>,
    /// The parameter's type expression.
    pub ty: TypeExpr,
}

impl ParamSig {
    /// An unnamed parameter with the given type expression.
    pub fn unnamed(ty: TypeExpr) -> Self {
        ParamSig { binder: None, ty }
    }

    /// True if the parameter is optional (`?T`).
    pub fn is_optional(&self) -> bool {
        matches!(self.ty, TypeExpr::Optional(_))
    }

    /// True if the parameter is a vararg (`*T`).
    pub fn is_vararg(&self) -> bool {
        matches!(self.ty, TypeExpr::Vararg(_))
    }
}

/// Whether a signature describes an instance method or a class (singleton)
/// method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// An ordinary instance method (`A#m`).
    Instance,
    /// A class method (`A.m`).
    Singleton,
}

/// A full method type signature.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodSig {
    /// Parameter signatures in positional order.
    pub params: Vec<ParamSig>,
    /// The return type expression.
    pub ret: TypeExpr,
    /// The block parameter's signature, if the method takes a block.
    pub block: Option<Box<MethodSig>>,
    /// Termination effect annotation.
    pub term: TermEffect,
    /// Purity effect annotation.
    pub purity: PurityEffect,
    /// The original annotation source string (for error messages and LoC
    /// accounting).
    pub source: String,
    /// Label controlling when the method body itself is statically checked
    /// (mirrors RDL's `typecheck:` argument); `None` means the body is
    /// trusted and calls are dynamically checked instead.
    pub typecheck_label: Option<String>,
}

impl MethodSig {
    /// A signature with only static types and default effects.
    pub fn simple(params: Vec<TypeExpr>, ret: TypeExpr) -> Self {
        MethodSig {
            params: params.into_iter().map(ParamSig::unnamed).collect(),
            ret,
            block: None,
            term: TermEffect::default(),
            purity: PurityEffect::default(),
            source: String::new(),
            typecheck_label: None,
        }
    }

    /// True if any position of the signature uses a comp type.
    pub fn is_comp(&self) -> bool {
        self.ret.has_comp() || self.params.iter().any(|p| p.ty.has_comp())
    }

    /// Number of required (non-optional, non-vararg) parameters.
    pub fn required_arity(&self) -> usize {
        self.params.iter().filter(|p| !p.is_optional() && !p.is_vararg()).count()
    }

    /// True if the signature accepts a call with `n` positional arguments.
    pub fn accepts_arity(&self, n: usize) -> bool {
        let required = self.required_arity();
        let has_vararg = self.params.iter().any(|p| p.is_vararg());
        n >= required && (has_vararg || n <= self.params.len())
    }

    /// Sets the termination effect (builder style).
    pub fn with_term(mut self, term: TermEffect) -> Self {
        self.term = term;
        self
    }

    /// Sets the purity effect (builder style).
    pub fn with_purity(mut self, purity: PurityEffect) -> Self {
        self.purity = purity;
        self
    }

    /// Sets the typecheck label (builder style).
    pub fn with_label(mut self, label: &str) -> Self {
        self.typecheck_label = Some(label.to_string());
        self
    }
}

/// The global annotation table: method signatures plus variable type
/// annotations, mirroring RDL's global tables populated by `type`, `var_type`
/// and `global_type` calls.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnnotationTable {
    methods: HashMap<(String, MethodKind, String), MethodSig>,
    ivars: HashMap<(String, String), TypeExpr>,
    gvars: HashMap<String, TypeExpr>,
}

impl AnnotationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        AnnotationTable::default()
    }

    /// Registers an instance method signature (`A#m`).
    pub fn add_instance(&mut self, class: &str, method: &str, sig: MethodSig) {
        self.methods.insert((class.to_string(), MethodKind::Instance, method.to_string()), sig);
    }

    /// Registers a class method signature (`A.m`).
    pub fn add_singleton(&mut self, class: &str, method: &str, sig: MethodSig) {
        self.methods.insert((class.to_string(), MethodKind::Singleton, method.to_string()), sig);
    }

    /// Registers an instance variable type (`var_type :@x, "T"`).
    pub fn add_ivar(&mut self, class: &str, name: &str, ty: TypeExpr) {
        self.ivars.insert((class.to_string(), name.to_string()), ty);
    }

    /// Registers a global variable type.
    pub fn add_gvar(&mut self, name: &str, ty: TypeExpr) {
        self.gvars.insert(name.to_string(), ty);
    }

    /// Looks up a method signature declared *exactly* on `class`.
    pub fn get_exact(&self, class: &str, kind: MethodKind, method: &str) -> Option<&MethodSig> {
        self.methods.get(&(class.to_string(), kind, method.to_string()))
    }

    /// Looks up a method signature on `class` or any of its ancestors.
    pub fn lookup(
        &self,
        classes: &ClassTable,
        class: &str,
        kind: MethodKind,
        method: &str,
    ) -> Option<(String, &MethodSig)> {
        for anc in classes.ancestors(class) {
            if let Some(sig) = self.get_exact(&anc, kind, method) {
                return Some((anc, sig));
            }
        }
        None
    }

    /// Looks up an instance variable type.
    pub fn ivar(&self, class: &str, name: &str) -> Option<&TypeExpr> {
        self.ivars.get(&(class.to_string(), name.to_string()))
    }

    /// Looks up a global variable type.
    pub fn gvar(&self, name: &str) -> Option<&TypeExpr> {
        self.gvars.get(name)
    }

    /// Total number of method signatures registered.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Number of method signatures registered for a specific class.
    pub fn method_count_for(&self, class: &str) -> usize {
        self.methods.keys().filter(|(c, _, _)| c == class).count()
    }

    /// Number of registered signatures for a class that use comp types.
    pub fn comp_count_for(&self, class: &str) -> usize {
        self.methods.iter().filter(|((c, _, _), sig)| c == class && sig.is_comp()).count()
    }

    /// Iterates over every registered method signature.
    pub fn iter(&self) -> impl Iterator<Item = (&(String, MethodKind, String), &MethodSig)> {
        self.methods.iter()
    }

    /// Every variable type annotation as `(owner, name, type)`, sorted by
    /// owner then name: instance variables under their class, globals
    /// under the empty owner.
    pub fn var_types(&self) -> impl Iterator<Item = (&str, &str, &TypeExpr)> {
        let mut vars: Vec<(&str, &str, &TypeExpr)> = self
            .ivars
            .iter()
            .map(|((class, name), ty)| (class.as_str(), name.as_str(), ty))
            .chain(self.gvars.iter().map(|(name, ty)| ("", name.as_str(), ty)))
            .collect();
        vars.sort_by_key(|&(owner, name, _)| (owner, name));
        vars.into_iter()
    }

    /// Merges all annotations from `other` into `self` (later registrations
    /// win).
    pub fn merge(&mut self, other: &AnnotationTable) {
        for (k, v) in &other.methods {
            self.methods.insert(k.clone(), v.clone());
        }
        for (k, v) in &other.ivars {
            self.ivars.insert(k.clone(), v.clone());
        }
        for (k, v) in &other.gvars {
            self.gvars.insert(k.clone(), v.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig_returning(ret: TypeExpr) -> MethodSig {
        MethodSig::simple(vec![], ret)
    }

    #[test]
    fn instantiation_allocates_store_entries() {
        let mut store = TypeStore::new();
        let te = TypeExpr::FiniteHash(vec![
            (
                HashKey::Sym("info".into()),
                TypeExpr::Generic("Array".into(), vec![TypeExpr::nominal("String")]),
            ),
            (HashKey::Sym("title".into()), TypeExpr::nominal("String")),
        ]);
        let t = te.instantiate(&mut store);
        assert!(matches!(t, Type::FiniteHash(_)));
        assert_eq!(store.len(), 1);
        // Instantiating twice yields distinct store objects.
        let t2 = te.instantiate(&mut store);
        assert_ne!(t, t2);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn comp_detection() {
        let comp = TypeExpr::Comp(CompSpec {
            expr: ruby_syntax::parse_expr("schema_type(tself)").unwrap(),
            source: "schema_type(tself)".into(),
            bound: Box::new(TypeExpr::nominal("Object")),
        });
        assert!(comp.has_comp());
        let sig = MethodSig::simple(vec![comp], TypeExpr::nominal("Boolean"));
        assert!(sig.is_comp());
        let plain =
            MethodSig::simple(vec![TypeExpr::nominal("String")], TypeExpr::nominal("String"));
        assert!(!plain.is_comp());
    }

    #[test]
    fn arity_with_optionals_and_varargs() {
        let sig = MethodSig {
            params: vec![
                ParamSig::unnamed(TypeExpr::nominal("String")),
                ParamSig::unnamed(TypeExpr::Optional(Box::new(TypeExpr::nominal("Integer")))),
            ],
            ..MethodSig::simple(vec![], TypeExpr::nominal("String"))
        };
        assert_eq!(sig.required_arity(), 1);
        assert!(sig.accepts_arity(1));
        assert!(sig.accepts_arity(2));
        assert!(!sig.accepts_arity(3));
        assert!(!sig.accepts_arity(0));

        let var = MethodSig {
            params: vec![ParamSig::unnamed(TypeExpr::Vararg(Box::new(TypeExpr::nominal(
                "Object",
            ))))],
            ..MethodSig::simple(vec![], TypeExpr::nominal("Object"))
        };
        assert!(var.accepts_arity(0));
        assert!(var.accepts_arity(5));
    }

    #[test]
    fn annotation_lookup_walks_ancestors() {
        let mut classes = ClassTable::with_builtins();
        classes.add_model_class("User", "ActiveRecord::Base");
        let mut table = AnnotationTable::new();
        table.add_singleton(
            "ActiveRecord::Base",
            "exists?",
            sig_returning(TypeExpr::Simple(Type::Bool)),
        );
        table.add_instance("Array", "first", sig_returning(TypeExpr::nominal("Object")));

        let (owner, _) = table
            .lookup(&classes, "User", MethodKind::Singleton, "exists?")
            .expect("inherited signature");
        assert_eq!(owner, "ActiveRecord::Base");
        assert!(table.lookup(&classes, "User", MethodKind::Instance, "exists?").is_none());
        assert!(table.lookup(&classes, "Array", MethodKind::Instance, "first").is_some());
    }

    #[test]
    fn counting_and_merge() {
        let mut a = AnnotationTable::new();
        a.add_instance("Hash", "[]", sig_returning(TypeExpr::nominal("Object")));
        let mut b = AnnotationTable::new();
        b.add_instance("Hash", "keys", sig_returning(TypeExpr::nominal("Array")));
        b.add_gvar("$schema", TypeExpr::nominal("Hash"));
        a.merge(&b);
        assert_eq!(a.method_count(), 2);
        assert_eq!(a.method_count_for("Hash"), 2);
        assert!(a.gvar("$schema").is_some());
    }
}

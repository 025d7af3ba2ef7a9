//! The RDL type language.
//!
//! CompRDL reuses RDL's type representation (paper §2): nominal class types,
//! singleton types (symbols, integers, booleans, `nil`, class objects),
//! generic types, union types, optional argument types, type variables,
//! *finite hash* types (heterogeneous hashes), *tuple* types (heterogeneous
//! arrays), and *const string* types (strings that are never written to,
//! treated as singletons; §2.2).
//!
//! Tuple, finite-hash and const-string types are **mutable**: RDL performs
//! weak updates on them when the underlying value is mutated (§4).  They are
//! therefore represented as indices into a [`TypeStore`](crate::store::TypeStore)
//! rather than inline data, so that aliases share a single entry exactly as
//! RDL's Ruby objects do.

use crate::name::Name;
use std::fmt;

/// Index of a tuple type in the [`TypeStore`](crate::store::TypeStore).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(pub u32);

/// Index of a finite hash type in the [`TypeStore`](crate::store::TypeStore).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiniteHashId(pub u32);

/// Index of a const string type in the [`TypeStore`](crate::store::TypeStore).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstStringId(pub u32);

/// A value that may inhabit a singleton type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SingVal {
    /// `nil`.
    Nil,
    /// `true`.
    True,
    /// `false`.
    False,
    /// An integer constant.
    Int(i64),
    /// A float constant, stored by bit pattern so the type is `Eq`/`Hash`.
    FloatBits(u64),
    /// A symbol such as `:emails`.
    Sym(Name),
    /// A class object such as `User` (the receiver of `User.exists?`).
    Class(Name),
}

impl SingVal {
    /// A float singleton value.
    pub fn float(f: f64) -> Self {
        SingVal::FloatBits(f.to_bits())
    }

    /// The name of the class this value belongs to.
    pub fn class_of(&self) -> &str {
        match self {
            SingVal::Nil => "NilClass",
            SingVal::True => "TrueClass",
            SingVal::False => "FalseClass",
            SingVal::Int(_) => "Integer",
            SingVal::FloatBits(_) => "Float",
            SingVal::Sym(_) => "Symbol",
            SingVal::Class(_) => "Class",
        }
    }
}

impl fmt::Display for SingVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SingVal::Nil => write!(f, "nil"),
            SingVal::True => write!(f, "true"),
            SingVal::False => write!(f, "false"),
            SingVal::Int(i) => write!(f, "{i}"),
            SingVal::FloatBits(b) => write!(f, "{}", f64::from_bits(*b)),
            SingVal::Sym(s) => write!(f, ":{s}"),
            SingVal::Class(c) => write!(f, "${{{c}}}"),
        }
    }
}

/// A key of a finite hash type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HashKey {
    /// A symbol key (`{ info: ... }`).
    Sym(Name),
    /// A string key.
    Str(Name),
    /// An integer key.
    Int(i64),
}

impl fmt::Display for HashKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HashKey::Sym(s) => write!(f, "{s}:"),
            HashKey::Str(s) => write!(f, "{s:?} =>"),
            HashKey::Int(i) => write!(f, "{i} =>"),
        }
    }
}

/// An RDL type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// `%any` — the top type.
    Top,
    /// `%bot` — the bottom type.
    Bot,
    /// `%bool` — `true or false`.
    Bool,
    /// `%dyn` — the dynamic type, compatible in both directions.
    Dynamic,
    /// A nominal class type such as `String`.
    Nominal(Name),
    /// A singleton type containing exactly one value.
    Singleton(SingVal),
    /// A generic instantiation such as `Array<String>` or `Table<{...}>`.
    Generic {
        /// The base class name.
        base: Name,
        /// The type arguments.
        args: Vec<Type>,
    },
    /// A union `T1 or T2 or ...` (kept sorted and deduplicated).
    Union(Vec<Type>),
    /// An optional argument type `?T` (only meaningful in parameter position).
    Optional(Box<Type>),
    /// A vararg type `*T` (only meaningful in parameter position).
    Vararg(Box<Type>),
    /// A type variable such as `t`, `k`, `v`.
    Var(Name),
    /// A tuple (heterogeneous array) type, stored in the type store.
    Tuple(TupleId),
    /// A finite hash (heterogeneous hash) type, stored in the type store.
    FiniteHash(FiniteHashId),
    /// A const string type, stored in the type store.
    ConstString(ConstStringId),
}

impl Type {
    /// The nominal `Object` type.
    pub fn object() -> Type {
        Type::Nominal("Object".into())
    }

    /// A nominal type with the given class name.
    pub fn nominal(name: impl Into<Name>) -> Type {
        Type::Nominal(name.into())
    }

    /// The singleton type of a symbol.
    pub fn sym(name: impl Into<Name>) -> Type {
        Type::Singleton(SingVal::Sym(name.into()))
    }

    /// The singleton type of an integer.
    pub fn int(value: i64) -> Type {
        Type::Singleton(SingVal::Int(value))
    }

    /// The singleton type of a class object.
    pub fn class_of(name: impl Into<Name>) -> Type {
        Type::Singleton(SingVal::Class(name.into()))
    }

    /// The singleton type of `nil`.
    pub fn nil() -> Type {
        Type::Singleton(SingVal::Nil)
    }

    /// `Array<elem>`.
    pub fn array(elem: Type) -> Type {
        Type::Generic { base: "Array".into(), args: vec![elem] }
    }

    /// `Hash<key, value>`.
    pub fn hash(key: Type, value: Type) -> Type {
        Type::Generic { base: "Hash".into(), args: vec![key, value] }
    }

    /// `Table<schema>` — the generic DB table type introduced in §2.1.
    pub fn table(schema: Type) -> Type {
        Type::Generic { base: "Table".into(), args: vec![schema] }
    }

    /// Builds a normalized union of the given types: flattens nested unions,
    /// removes duplicates and `%bot`, and collapses singleton-element unions.
    pub fn union(types: impl IntoIterator<Item = Type>) -> Type {
        let mut flat: Vec<Type> = Vec::new();
        fn push(t: Type, out: &mut Vec<Type>) {
            match t {
                Type::Union(ts) => {
                    for t in ts {
                        push(t, out);
                    }
                }
                Type::Bot => {}
                other => {
                    if !out.contains(&other) {
                        out.push(other);
                    }
                }
            }
        }
        for t in types {
            push(t, &mut flat);
        }
        if flat.contains(&Type::Top) {
            return Type::Top;
        }
        // Collapse `true or false` into `%bool`.
        let has_true = flat.contains(&Type::Singleton(SingVal::True));
        let has_false = flat.contains(&Type::Singleton(SingVal::False));
        if has_true && has_false {
            flat.retain(|t| {
                !matches!(t, Type::Singleton(SingVal::True) | Type::Singleton(SingVal::False))
            });
            if !flat.contains(&Type::Bool) {
                flat.push(Type::Bool);
            }
        }
        flat.sort();
        flat.dedup();
        match flat.len() {
            0 => Type::Bot,
            1 => flat.pop().expect("non-empty"),
            _ => Type::Union(flat),
        }
    }

    /// True for the three kinds of mutable (store-backed) types.
    pub fn is_store_backed(&self) -> bool {
        matches!(self, Type::Tuple(_) | Type::FiniteHash(_) | Type::ConstString(_))
    }

    /// True if the type mentions a store-backed type anywhere in its
    /// structure (including inside generics, unions and optional/vararg
    /// wrappers).  Used by the comp-type evaluation cache to decide whether
    /// an entry must be revalidated against the store generation.
    pub fn contains_store_backed(&self) -> bool {
        match self {
            Type::Tuple(_) | Type::FiniteHash(_) | Type::ConstString(_) => true,
            Type::Generic { args, .. } => args.iter().any(Type::contains_store_backed),
            Type::Union(ts) => ts.iter().any(Type::contains_store_backed),
            Type::Optional(t) | Type::Vararg(t) => t.contains_store_backed(),
            _ => false,
        }
    }

    /// True if the type is a singleton type (including const strings, which
    /// CompRDL treats as singletons; §2.2).
    pub fn is_singleton(&self) -> bool {
        matches!(self, Type::Singleton(_) | Type::ConstString(_))
    }

    /// True if the type mentions no type variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Type::Var(_) => false,
            Type::Generic { args: ts, .. } | Type::Union(ts) => ts.iter().all(Type::is_ground),
            Type::Optional(t) | Type::Vararg(t) => t.is_ground(),
            _ => true,
        }
    }

    /// Substitutes type variables using `lookup` (variables with no mapping
    /// are left in place).
    pub fn subst(&self, lookup: &dyn Fn(&str) -> Option<Type>) -> Type {
        match self {
            Type::Var(v) => lookup(v).unwrap_or_else(|| self.clone()),
            Type::Generic { base, args } => Type::Generic {
                base: base.clone(),
                args: args.iter().map(|a| a.subst(lookup)).collect(),
            },
            Type::Union(ts) => Type::union(ts.iter().map(|t| t.subst(lookup))),
            Type::Optional(t) => Type::Optional(Box::new(t.subst(lookup))),
            Type::Vararg(t) => Type::Vararg(Box::new(t.subst(lookup))),
            other => other.clone(),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Top => write!(f, "%any"),
            Type::Bot => write!(f, "%bot"),
            Type::Bool => write!(f, "%bool"),
            Type::Dynamic => write!(f, "%dyn"),
            Type::Nominal(n) => write!(f, "{n}"),
            Type::Singleton(v) => write!(f, "{v}"),
            Type::Generic { base, args } => {
                write!(f, "{base}<")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ">")
            }
            Type::Union(ts) => {
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " or ")?;
                    }
                    write!(f, "{t}")?;
                }
                Ok(())
            }
            Type::Optional(t) => write!(f, "?{t}"),
            Type::Vararg(t) => write!(f, "*{t}"),
            Type::Var(v) => write!(f, "{v}"),
            Type::Tuple(id) => write!(f, "#tuple{}", id.0),
            Type::FiniteHash(id) => write!(f, "#fhash{}", id.0),
            Type::ConstString(id) => write!(f, "#cstr{}", id.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_normalizes() {
        let t = Type::union([Type::nominal("String"), Type::nominal("String"), Type::Bot]);
        assert_eq!(t, Type::nominal("String"));
        let t = Type::union([Type::nominal("String"), Type::nominal("Integer")]);
        assert!(matches!(&t, Type::Union(ts) if ts.len() == 2));
        let t2 = Type::union([t.clone(), Type::nominal("Integer")]);
        assert_eq!(t, t2);
    }

    #[test]
    fn union_collapses_bools_and_top() {
        let t = Type::union([Type::Singleton(SingVal::True), Type::Singleton(SingVal::False)]);
        assert_eq!(t, Type::Bool);
        let t = Type::union([Type::nominal("String"), Type::Top]);
        assert_eq!(t, Type::Top);
        assert_eq!(Type::union([]), Type::Bot);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Type::sym("emails").to_string(), ":emails");
        assert_eq!(Type::array(Type::nominal("String")).to_string(), "Array<String>");
        assert_eq!(
            Type::union([Type::nominal("Integer"), Type::nominal("String")]).to_string(),
            "Integer or String"
        );
        assert_eq!(Type::class_of("User").to_string(), "${User}");
        assert_eq!(Type::Optional(Box::new(Type::Bool)).to_string(), "?%bool");
    }

    #[test]
    fn vars_and_substitution() {
        let t = Type::Generic {
            base: "Hash".into(),
            args: vec![Type::Var("k".into()), Type::Var("v".into())],
        };
        assert!(!t.is_ground());
        assert!(!Type::union([Type::nominal("String"), Type::Var("t".into())]).is_ground());
        let s = t.subst(&|v| {
            if v == "k" {
                Some(Type::nominal("Symbol"))
            } else {
                Some(Type::nominal("Object"))
            }
        });
        assert_eq!(s, Type::hash(Type::nominal("Symbol"), Type::nominal("Object")));
        assert!(s.is_ground());
    }

    #[test]
    fn singleton_classification() {
        assert!(Type::sym("a").is_singleton());
        assert!(!Type::nominal("Symbol").is_singleton());
        assert_eq!(SingVal::Sym("a".into()).class_of(), "Symbol");
        assert_eq!(SingVal::Int(3).class_of(), "Integer");
        assert_eq!(SingVal::float(1.5).class_of(), "Float");
    }
}

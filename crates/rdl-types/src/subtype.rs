//! Subtyping, least upper bounds, and constraint replay.
//!
//! [`Subtyper::is_subtype`] is one structural walk over both operands.
//! Store-backed parts (tuples, finite hashes, const strings) are looked up
//! in the [`TypeStore`] during the walk and nothing is cached, so a
//! promotion or weak update is seen by the very next query.

use crate::class::ClassTable;
use crate::store::{Constraint, TypeStore};
use crate::ty::{HashKey, SingVal, Type};

/// Answers subtyping queries relative to a class table.
#[derive(Debug, Clone, Copy)]
pub struct Subtyper<'a> {
    classes: &'a ClassTable,
}

impl<'a> Subtyper<'a> {
    /// Creates a subtyper over the given class hierarchy.
    pub fn new(classes: &'a ClassTable) -> Self {
        Subtyper { classes }
    }

    /// The class table this subtyper consults.
    pub fn classes(&self) -> &ClassTable {
        self.classes
    }

    /// Returns `true` if `sub <= sup`.
    ///
    /// Store-backed types are *not* promoted by this query, but already
    /// performed promotions are honoured via [`TypeStore::resolve`].
    pub fn is_subtype(&self, store: &TypeStore, sub: &Type, sup: &Type) -> bool {
        self.is_subtype_resolved(store, &store.resolved(sub), &store.resolved(sup))
    }

    fn is_subtype_resolved(&self, store: &TypeStore, sub: &Type, sup: &Type) -> bool {
        use Type::*;
        if sub == sup {
            return true;
        }
        match (sub, sup) {
            // Dynamic is compatible in both directions; Bot/Top as usual.
            (Dynamic, _) | (_, Dynamic) => true,
            (Bot, _) => true,
            (_, Top) => true,
            (Top, _) => false,
            // `nil` is allowed wherever any object is expected (the paper's
            // λC does the same; errors surface as blame at run time).
            (Singleton(SingVal::Nil), _) => true,
            // Optional / vararg wrappers are transparent for subtyping.
            (Optional(t), _) => self.is_subtype_resolved(store, t, sup),
            (_, Optional(t)) => self.is_subtype_resolved(store, sub, t),
            (Vararg(t), _) => self.is_subtype_resolved(store, t, sup),
            (_, Vararg(t)) => self.is_subtype_resolved(store, sub, t),
            // Unions.
            (Union(ts), _) => ts.iter().all(|t| self.is_subtype_resolved(store, t, sup)),
            (_, Union(ts)) => ts.iter().any(|t| self.is_subtype_resolved(store, sub, t)),
            // Booleans.
            (Singleton(SingVal::True), Bool) | (Singleton(SingVal::False), Bool) => true,
            (Nominal(n), Bool) => n == "TrueClass" || n == "FalseClass" || n == "Boolean",
            (Bool, Nominal(n)) => self.classes.is_subclass("Boolean", n),
            (Bool, _) => false,
            // Singletons are subtypes of their class.
            (Singleton(v), Nominal(n)) => self.classes.is_subclass(v.class_of(), n),
            (Singleton(SingVal::Class(_)), Generic { base, .. }) => base == "Class",
            // Const strings behave like String (and like each other only if
            // identical, which the `sub == sup` case already covered).
            (ConstString(_), Nominal(n)) => self.classes.is_subclass("String", n),
            (ConstString(a), ConstString(b)) => {
                match (store.const_string_value(*a), store.const_string_value(*b)) {
                    (Some(x), Some(y)) => x == y,
                    _ => false,
                }
            }
            // Nominal subtyping follows the class hierarchy.
            (Nominal(a), Nominal(b)) => self.classes.is_subclass(a, b),
            // Generic types: base must be a subclass, arguments covariant.
            (Generic { base: b1, args: a1 }, Generic { base: b2, args: a2 }) => {
                self.classes.is_subclass(b1, b2)
                    && a1.len() == a2.len()
                    && a1.iter().zip(a2.iter()).all(|(x, y)| self.is_subtype_resolved(store, x, y))
            }
            (Generic { base, .. }, Nominal(n)) => self.classes.is_subclass(base, n),
            (Nominal(_), Generic { .. }) => false,
            // Tuples.
            (Tuple(id1), Tuple(id2)) => {
                let t1 = store.tuple(*id1);
                let t2 = store.tuple(*id2);
                t1.elems.len() == t2.elems.len()
                    && t1
                        .elems
                        .iter()
                        .zip(t2.elems.iter())
                        .all(|(x, y)| self.is_subtype_resolved(store, x, y))
            }
            (Tuple(id), Generic { base, args }) if base == "Array" && args.len() == 1 => {
                store.tuple(*id).elems.iter().all(|e| self.is_subtype_resolved(store, e, &args[0]))
            }
            (Tuple(_), Nominal(n)) => self.classes.is_subclass("Array", n),
            // Finite hashes.  RDL does not allow width subtyping: every key
            // of the subtype must exist in the supertype (otherwise e.g. a
            // query hash mentioning an unknown column would be accepted),
            // and every non-optional key of the supertype must be present.
            (FiniteHash(id1), FiniteHash(id2)) => {
                let h1 = store.finite_hash(*id1);
                let h2 = store.finite_hash(*id2);
                let required_present = h2.entries.iter().all(|(k, v2)| match h1.get(k) {
                    Some(v1) => self.is_subtype_resolved(store, v1, v2),
                    None => matches!(v2, Type::Optional(_)),
                });
                let no_extra_keys = h1.entries.iter().all(|(k, _)| h2.get(k).is_some());
                required_present && no_extra_keys
            }
            (FiniteHash(id), Generic { base, args }) if base == "Hash" && args.len() == 2 => {
                let h = store.finite_hash(*id);
                h.entries.iter().all(|(k, v)| {
                    let kt = match k {
                        HashKey::Sym(s) => Type::sym(s.clone()),
                        HashKey::Str(_) => Type::nominal("String"),
                        HashKey::Int(i) => Type::int(*i),
                    };
                    self.is_subtype_resolved(store, &kt, &args[0])
                        && self.is_subtype_resolved(store, v, &args[1])
                })
            }
            (FiniteHash(_), Nominal(n)) => self.classes.is_subclass("Hash", n),
            // Type variables are only compatible with themselves (and Top,
            // handled above); instantiation happens before checking.
            (Var(a), Var(b)) => a == b,
            (Var(_), _) | (_, Var(_)) => false,
            _ => false,
        }
    }

    /// Asserts `sub <= sup`, recording the constraint against any
    /// store-backed types involved so it can be replayed after weak updates.
    /// Returns whether the constraint currently holds.
    pub fn constrain(&self, store: &mut TypeStore, sub: &Type, sup: &Type, origin: &str) -> bool {
        if sub.is_store_backed() {
            store.record_constraint(sub, sub.clone(), sup.clone(), origin);
        }
        if sup.is_store_backed() && sup != sub {
            store.record_constraint(sup, sub.clone(), sup.clone(), origin);
        }
        self.is_subtype(store, sub, sup)
    }

    /// Re-checks previously recorded constraints (used after weak updates;
    /// §4).  Returns the constraints that no longer hold.
    pub fn replay(&self, store: &TypeStore, constraints: &[Constraint]) -> Vec<Constraint> {
        constraints.iter().filter(|c| !self.is_subtype(store, &c.lhs, &c.rhs)).cloned().collect()
    }

    /// The least upper bound (join) of two types, used at conditional join
    /// points.
    pub fn lub(&self, store: &TypeStore, a: &Type, b: &Type) -> Type {
        if self.is_subtype(store, a, b) {
            return store.resolve(b);
        }
        if self.is_subtype(store, b, a) {
            return store.resolve(a);
        }
        let ra = store.resolve(a);
        let rb = store.resolve(b);
        match (&ra, &rb) {
            (Type::Nominal(x), Type::Nominal(y)) => {
                let anc = self.classes.common_ancestor(x, y);
                if anc != "Object" {
                    return Type::Nominal(anc);
                }
                Type::union([ra.clone(), rb.clone()])
            }
            _ => Type::union([ra.clone(), rb.clone()]),
        }
    }

    /// The join of a whole sequence of types (`%bot` for an empty sequence).
    pub fn lub_all(&self, store: &TypeStore, types: &[Type]) -> Type {
        let mut acc = Type::Bot;
        for t in types {
            acc = self.lub(store, &acc, t);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassTable;

    fn setup() -> (ClassTable, TypeStore) {
        let mut ct = ClassTable::with_builtins();
        ct.add_model_class("User", "ActiveRecord::Base");
        (ct, TypeStore::new())
    }

    #[test]
    fn reflexivity_and_top_bottom() {
        let (ct, store) = setup();
        let sub = Subtyper::new(&ct);
        for t in [
            Type::nominal("String"),
            Type::sym("a"),
            Type::Bool,
            Type::array(Type::nominal("Integer")),
        ] {
            assert!(sub.is_subtype(&store, &t, &t));
            assert!(sub.is_subtype(&store, &t, &Type::Top));
            assert!(sub.is_subtype(&store, &Type::Bot, &t));
        }
        assert!(!sub.is_subtype(&store, &Type::Top, &Type::nominal("String")));
    }

    #[test]
    fn singleton_and_nominal() {
        let (ct, store) = setup();
        let sub = Subtyper::new(&ct);
        assert!(sub.is_subtype(&store, &Type::sym("emails"), &Type::nominal("Symbol")));
        assert!(sub.is_subtype(&store, &Type::int(3), &Type::nominal("Integer")));
        assert!(sub.is_subtype(&store, &Type::int(3), &Type::nominal("Numeric")));
        assert!(!sub.is_subtype(&store, &Type::nominal("Symbol"), &Type::sym("emails")));
        assert!(sub.is_subtype(&store, &Type::class_of("User"), &Type::nominal("Class")));
        assert!(sub.is_subtype(&store, &Type::Singleton(SingVal::True), &Type::Bool));
        assert!(sub.is_subtype(&store, &Type::Bool, &Type::object()));
    }

    #[test]
    fn nil_is_allowed_anywhere() {
        let (ct, store) = setup();
        let sub = Subtyper::new(&ct);
        assert!(sub.is_subtype(&store, &Type::nil(), &Type::nominal("String")));
        assert!(sub.is_subtype(&store, &Type::nil(), &Type::array(Type::nominal("Integer"))));
    }

    #[test]
    fn union_rules() {
        let (ct, store) = setup();
        let sub = Subtyper::new(&ct);
        let u = Type::union([Type::nominal("Integer"), Type::nominal("String")]);
        assert!(sub.is_subtype(&store, &Type::nominal("Integer"), &u));
        assert!(sub.is_subtype(&store, &u, &Type::object()));
        assert!(!sub.is_subtype(&store, &u, &Type::nominal("Integer")));
    }

    #[test]
    fn generics_are_covariant() {
        let (ct, store) = setup();
        let sub = Subtyper::new(&ct);
        assert!(sub.is_subtype(
            &store,
            &Type::array(Type::nominal("Integer")),
            &Type::array(Type::nominal("Numeric"))
        ));
        assert!(!sub.is_subtype(
            &store,
            &Type::array(Type::nominal("Numeric")),
            &Type::array(Type::nominal("Integer"))
        ));
        assert!(sub.is_subtype(
            &store,
            &Type::array(Type::nominal("Integer")),
            &Type::nominal("Array")
        ));
    }

    #[test]
    fn tuple_subtyping_and_promotion() {
        let (ct, mut store) = setup();
        let t = store.new_tuple(vec![Type::int(1), Type::nominal("String")]);
        let sub = Subtyper::new(&ct);
        assert!(sub.is_subtype(
            &store,
            &t,
            &Type::array(Type::union([Type::nominal("Integer"), Type::nominal("String")]))
        ));
        assert!(sub.is_subtype(&store, &t, &Type::nominal("Array")));
        assert!(!sub.is_subtype(&store, &t, &Type::array(Type::nominal("Integer"))));
        // After promotion the tuple behaves as the promoted array type.
        let Type::Tuple(id) = t else { panic!() };
        store.promote_tuple(id);
        assert!(sub.is_subtype(&store, &t, &Type::nominal("Array")));
    }

    #[test]
    fn finite_hash_subtyping() {
        let (ct, mut store) = setup();
        let h = store.new_finite_hash(vec![
            (HashKey::Sym("name".into()), Type::nominal("String")),
            (HashKey::Sym("age".into()), Type::int(30)),
        ]);
        let sub = Subtyper::new(&ct);
        assert!(sub.is_subtype(&store, &h, &Type::hash(Type::nominal("Symbol"), Type::object())));
        // Width subtyping is not allowed: `h` has a key `narrower` lacks.
        let narrower =
            store.new_finite_hash(vec![(HashKey::Sym("name".into()), Type::nominal("String"))]);
        assert!(!sub.is_subtype(&store, &h, &narrower));
        assert!(!sub.is_subtype(&store, &narrower, &h));
        // But missing keys are fine when the supertype marks them optional.
        let optionalized = store.new_finite_hash(vec![
            (HashKey::Sym("name".into()), Type::Optional(Box::new(Type::nominal("String")))),
            (HashKey::Sym("age".into()), Type::Optional(Box::new(Type::nominal("Integer")))),
        ]);
        assert!(sub.is_subtype(&store, &narrower, &optionalized));
        assert!(sub.is_subtype(&store, &h, &optionalized));
    }

    #[test]
    fn const_string_is_a_string() {
        let (ct, mut store) = setup();
        let s = store.new_const_string("hello");
        let sub = Subtyper::new(&ct);
        assert!(sub.is_subtype(&store, &s, &Type::nominal("String")));
        assert!(sub.is_subtype(&store, &s, &Type::object()));
        let s2 = store.new_const_string("hello");
        let s3 = store.new_const_string("other");
        assert!(sub.is_subtype(&store, &s, &s2));
        assert!(!sub.is_subtype(&store, &s, &s3));
    }

    #[test]
    fn lub_prefers_common_ancestor() {
        let (ct, store) = setup();
        let sub = Subtyper::new(&ct);
        assert_eq!(
            sub.lub(&store, &Type::nominal("Integer"), &Type::nominal("Float")),
            Type::nominal("Numeric")
        );
        assert_eq!(
            sub.lub(&store, &Type::nominal("Integer"), &Type::nominal("Integer")),
            Type::nominal("Integer")
        );
        let u = sub.lub(&store, &Type::nominal("String"), &Type::array(Type::Top));
        assert!(matches!(u, Type::Union(_)));
        assert_eq!(sub.lub_all(&store, &[]), Type::Bot);
    }

    #[test]
    fn constrain_records_and_replays() {
        let (ct, mut store) = setup();
        let sub = Subtyper::new(&ct);
        let t = store.new_tuple(vec![Type::nominal("Integer"), Type::nominal("String")]);
        assert!(sub.constrain(
            &mut store,
            &t,
            &Type::array(Type::union([Type::nominal("Integer"), Type::nominal("String")])),
            "assignment"
        ));
        let Type::Tuple(id) = t else { panic!() };
        // Weak update with a compatible type: constraints still hold.
        let cs = store.weak_update_tuple(id, 0, Type::nominal("String"));
        assert!(sub.replay(&store, &cs).is_empty());
        // Weak update with an incompatible type: the recorded constraint is
        // now violated and replay reports it.
        let cs = store.weak_update_tuple(id, 1, Type::nominal("Float"));
        let violated = sub.replay(&store, &cs);
        assert_eq!(violated.len(), 1);
        assert_eq!(violated[0].origin, "assignment");
    }

    #[test]
    fn dynamic_is_bidirectional() {
        let (ct, store) = setup();
        let sub = Subtyper::new(&ct);
        assert!(sub.is_subtype(&store, &Type::Dynamic, &Type::nominal("String")));
        assert!(sub.is_subtype(&store, &Type::nominal("String"), &Type::Dynamic));
    }

    #[test]
    fn verdicts_follow_class_table_mutations() {
        let mut ct = ClassTable::with_builtins();
        ct.add_class("Staff", Some("Object"));
        let store = TypeStore::new();
        let staff = Type::nominal("Staff");
        let admin = Type::nominal("Admin");
        // Admin is unknown, so it is not below Staff.
        assert!(!Subtyper::new(&ct).is_subtype(&store, &admin, &staff));
        ct.add_class("Admin", Some("Staff"));
        let sub = Subtyper::new(&ct);
        assert!(sub.is_subtype(&store, &admin, &staff));
        assert!(sub.is_subtype(&store, &Type::array(admin.clone()), &Type::array(staff.clone())));
        // Re-parenting flips the verdict back.
        ct.add_class("Admin", Some("Object"));
        assert!(!Subtyper::new(&ct).is_subtype(&store, &admin, &staff));
    }
}

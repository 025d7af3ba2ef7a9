//! Runtime values of the Ruby-subset interpreter.

use crate::resolve::{Block, Slots};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Shared mutable string contents.
pub type StrRef = Rc<RefCell<String>>;
/// Shared mutable array contents.
pub type ArrayRef = Rc<RefCell<Vec<Value>>>;
/// Shared mutable hash contents (insertion ordered association list).
pub type HashRef = Rc<RefCell<Vec<(Value, Value)>>>;
/// Shared mutable object state.
pub type ObjectRef = Rc<RefCell<ObjectData>>;
/// Instance variables (`@x` → value), keyed by the handles the resolved
/// program holds, so a write copies no name.
pub(crate) type Ivars = HashMap<Rc<str>, Value>;

/// The instance state of a user-defined object.  The type is public only
/// so that [`Value::Object`] can be matched outside this crate; no path
/// names it there.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectData {
    /// The object's class name.
    pub(crate) class: Rc<str>,
    /// Instance variables.
    pub(crate) ivars: Ivars,
}

/// A lambda or block closure, public only as [`ObjectData`] is.
#[derive(Debug, Clone)]
pub struct Closure {
    /// The resolved block literal (parameter slots and body), shared with
    /// the resolved program rather than copied for each evaluation of the
    /// literal.
    pub(crate) block: Rc<Block>,
    /// The captured local slots (shared with the defining frame, as in
    /// Ruby).
    pub(crate) locals: Slots,
    /// The captured `self`.
    pub(crate) self_val: Value,
}

impl PartialEq for Closure {
    fn eq(&self, other: &Self) -> bool {
        Rc::ptr_eq(&self.locals, &other.locals) && self.block.params == other.block.params
    }
}

/// The containers a walk over a value is inside of, innermost first.  An
/// array or hash can hold itself (`a.push(a)`), so a walk that meets a
/// container already on its path stops there.  Each link lives in the
/// frame of the walk's call that entered it, so the guard never allocates.
pub(crate) struct Path<'a, T> {
    here: T,
    up: Option<&'a Path<'a, T>>,
}

impl<'a, T: Copy + PartialEq> Path<'a, T> {
    /// The path `up` extended by `here`.
    pub(crate) fn enter(here: T, up: Option<&'a Path<'a, T>>) -> Self {
        Path { here, up }
    }

    /// Whether `item` is on the path that ends at `path`.
    pub(crate) fn contains(path: Option<&Path<'_, T>>, item: T) -> bool {
        std::iter::successors(path, |p| p.up).any(|p| p.here == item)
    }
}

/// A container's identity, as [`Path`] records it.
pub(crate) fn container_id<T>(rc: &Rc<T>) -> *const () {
    Rc::as_ptr(rc).cast()
}

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// `nil`
    Nil,
    /// `true` / `false`
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A (mutable, shared) string.
    Str(StrRef),
    /// A symbol; literals share one handle per literal.
    Sym(Rc<str>),
    /// A (mutable, shared) array.
    Array(ArrayRef),
    /// A (mutable, shared) hash.
    Hash(HashRef),
    /// An instance of a user-defined class.
    Object(ObjectRef),
    /// A class object (the value of a constant such as `User`).
    Class(Rc<str>),
    /// A lambda / proc.
    Lambda(Rc<Closure>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(Rc::new(RefCell::new(s.into())))
    }

    /// Builds an array value.
    pub fn array(items: Vec<Value>) -> Value {
        Value::Array(Rc::new(RefCell::new(items)))
    }

    /// Builds a hash value from key/value pairs.
    pub fn hash(pairs: Vec<(Value, Value)>) -> Value {
        Value::Hash(Rc::new(RefCell::new(pairs)))
    }

    /// Builds a new instance of `class` with no instance variables.
    pub fn new_object(class: impl Into<Rc<str>>) -> Value {
        Value::Object(Rc::new(RefCell::new(ObjectData {
            class: class.into(),
            ivars: HashMap::new(),
        })))
    }

    /// Ruby truthiness: everything except `nil` and `false` is truthy.
    pub fn truthy(&self) -> bool {
        !matches!(self, Value::Nil | Value::Bool(false))
    }

    /// The name of the value's class.
    pub fn class_name(&self) -> String {
        match self {
            Value::Object(o) => o.borrow().class.to_string(),
            builtin => builtin.builtin_class_name().unwrap_or_default().to_string(),
        }
    }

    /// The object's class name, without copying it; `None` for a builtin
    /// value.
    pub fn object_class(&self) -> Option<Rc<str>> {
        match self {
            Value::Object(o) => Some(o.borrow().class.clone()),
            _ => None,
        }
    }

    /// The class name of a builtin value, without allocating; `None` for an
    /// instance of a user-defined class.
    pub fn builtin_class_name(&self) -> Option<&'static str> {
        Some(match self {
            Value::Nil => "NilClass",
            Value::Bool(true) => "TrueClass",
            Value::Bool(false) => "FalseClass",
            Value::Int(_) => "Integer",
            Value::Float(_) => "Float",
            Value::Str(_) => "String",
            Value::Sym(_) => "Symbol",
            Value::Array(_) => "Array",
            Value::Hash(_) => "Hash",
            Value::Object(_) => return None,
            Value::Class(_) => "Class",
            Value::Lambda(_) => "Proc",
        })
    }

    /// Ruby `==` (structural for strings/arrays/hashes, identity for
    /// objects).  As in Ruby, a container equals itself, and a pair of
    /// containers met again inside their own comparison counts as equal,
    /// so two self-referential arrays built alike are `==`.
    pub fn ruby_eq(&self, other: &Value) -> bool {
        self.eq_on(other, None)
    }

    fn eq_on(&self, other: &Value, path: Option<&Path<'_, (*const (), *const ())>>) -> bool {
        match (self, other) {
            (Value::Nil, Value::Nil) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                (*a as f64) == *b
            }
            (Value::Str(a), Value::Str(b)) => *a.borrow() == *b.borrow(),
            (Value::Sym(a), Value::Sym(b)) => a == b,
            (Value::Class(a), Value::Class(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => {
                let pair = (container_id(a), container_id(b));
                if Rc::ptr_eq(a, b) || Path::contains(path, pair) {
                    return true;
                }
                let path = Some(&Path::enter(pair, path));
                let a = a.borrow();
                let b = b.borrow();
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.eq_on(y, path))
            }
            (Value::Hash(a), Value::Hash(b)) => {
                let pair = (container_id(a), container_id(b));
                if Rc::ptr_eq(a, b) || Path::contains(path, pair) {
                    return true;
                }
                let path = Some(&Path::enter(pair, path));
                let a = a.borrow();
                let b = b.borrow();
                a.len() == b.len()
                    && a.iter().all(|(k, v)| {
                        b.iter().any(|(k2, v2)| k.eq_on(k2, path) && v.eq_on(v2, path))
                    })
            }
            (Value::Object(a), Value::Object(b)) => Rc::ptr_eq(a, b),
            (Value::Lambda(a), Value::Lambda(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// `inspect`-style rendering (strings quoted).  An array or hash met
    /// again inside itself prints as `[...]` or `{...}`, as in Ruby.
    pub fn inspect(&self) -> String {
        self.inspect_on(None)
    }

    fn inspect_on(&self, path: Option<&Path<'_, *const ()>>) -> String {
        match self {
            Value::Nil => "nil".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format!("{f}"),
            Value::Str(s) => format!("{:?}", s.borrow()),
            Value::Sym(s) => format!(":{s}"),
            Value::Array(items) => {
                let id = container_id(items);
                if Path::contains(path, id) {
                    return "[...]".to_string();
                }
                let path = Some(&Path::enter(id, path));
                let inner: Vec<String> =
                    items.borrow().iter().map(|v| v.inspect_on(path)).collect();
                format!("[{}]", inner.join(", "))
            }
            Value::Hash(pairs) => {
                let id = container_id(pairs);
                if Path::contains(path, id) {
                    return "{...}".to_string();
                }
                let path = Some(&Path::enter(id, path));
                let inner: Vec<String> = pairs
                    .borrow()
                    .iter()
                    .map(|(k, v)| format!("{} => {}", k.inspect_on(path), v.inspect_on(path)))
                    .collect();
                format!("{{{}}}", inner.join(", "))
            }
            Value::Object(o) => format!("#<{}>", o.borrow().class),
            Value::Class(c) => c.to_string(),
            Value::Lambda(_) => "#<Proc>".to_string(),
        }
    }

    /// `to_s`-style rendering (strings unquoted).
    pub fn to_display_string(&self) -> String {
        match self {
            Value::Str(s) => s.borrow().clone(),
            Value::Sym(s) => s.to_string(),
            Value::Nil => String::new(),
            other => other.inspect(),
        }
    }

    /// Reads the string contents if this is a string.
    pub fn as_str(&self) -> Option<String> {
        match self {
            Value::Str(s) => Some(s.borrow().clone()),
            _ => None,
        }
    }

    /// Reads the integer if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Looks up a key in a hash value (using Ruby `==` on keys).
    pub fn hash_get(&self, key: &Value) -> Option<Value> {
        match self {
            Value::Hash(pairs) => {
                pairs.borrow().iter().find(|(k, _)| k.ruby_eq(key)).map(|(_, v)| v.clone())
            }
            _ => None,
        }
    }

    /// Inserts/overwrites a key in a hash value.  The keys are compared
    /// before the hash is borrowed mutably, so a key that holds the hash
    /// itself does not conflict with the write.
    pub fn hash_set(&self, key: Value, value: Value) {
        if let Value::Hash(pairs) = self {
            let found = pairs.borrow().iter().position(|(k, _)| k.ruby_eq(&key));
            let mut pairs = pairs.borrow_mut();
            match found {
                Some(i) => pairs[i].1 = value,
                None => pairs.push((key, value)),
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.ruby_eq(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_display_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Nil.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(Value::Bool(true).truthy());
        assert!(Value::Int(0).truthy());
        assert!(Value::str("").truthy());
    }

    #[test]
    fn class_names() {
        assert_eq!(Value::Int(1).class_name(), "Integer");
        assert_eq!(Value::str("x").class_name(), "String");
        assert_eq!(Value::Sym("a".into()).class_name(), "Symbol");
        assert_eq!(Value::new_object("User").class_name(), "User");
        assert_eq!(Value::Class("User".into()).class_name(), "Class");
    }

    #[test]
    fn structural_equality() {
        assert!(Value::array(vec![Value::Int(1), Value::str("a")])
            .ruby_eq(&Value::array(vec![Value::Int(1), Value::str("a")])));
        assert!(!Value::array(vec![Value::Int(1)]).ruby_eq(&Value::array(vec![Value::Int(2)])));
        assert!(Value::Int(1).ruby_eq(&Value::Float(1.0)));
        let h1 = Value::hash(vec![(Value::Sym("a".into()), Value::Int(1))]);
        let h2 = Value::hash(vec![(Value::Sym("a".into()), Value::Int(1))]);
        assert!(h1.ruby_eq(&h2));
    }

    #[test]
    fn object_identity_equality() {
        let a = Value::new_object("User");
        let b = Value::new_object("User");
        assert!(!a.ruby_eq(&b));
        assert!(a.ruby_eq(&a.clone()));
    }

    #[test]
    fn hash_access_helpers() {
        let h = Value::hash(vec![(Value::Sym("name".into()), Value::str("alice"))]);
        assert_eq!(h.hash_get(&Value::Sym("name".into())), Some(Value::str("alice")));
        assert_eq!(h.hash_get(&Value::Sym("missing".into())), None);
        h.hash_set(Value::Sym("name".into()), Value::str("bob"));
        h.hash_set(Value::Sym("age".into()), Value::Int(3));
        assert_eq!(h.hash_get(&Value::Sym("name".into())), Some(Value::str("bob")));
        assert_eq!(h.hash_get(&Value::Sym("age".into())), Some(Value::Int(3)));
    }

    #[test]
    fn inspect_and_display() {
        assert_eq!(Value::str("hi").inspect(), "\"hi\"");
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(Value::array(vec![Value::Int(1), Value::Nil]).inspect(), "[1, nil]");
        assert_eq!(Value::Sym("x".into()).inspect(), ":x");
    }
}

//! Comp-type annotations for the Ruby core library (paper Table 1).
//!
//! The paper writes comp types for the `Array`, `Hash`, `String`, `Integer`
//! and `Float` core classes (which are implemented in C and therefore never
//! type checked themselves — their calls are dynamically checked instead).
//! As in the paper, most annotations share a small set of *helper methods*:
//! a few native helpers (constant folding, const-string operations) plus a
//! set written in the Ruby subset and evaluated by the type-level
//! interpreter.

pub mod array;
pub mod hash;
pub mod numeric;
pub mod string;

use crate::env::CompRdl;
use crate::runtime::type_of_value;
use crate::tlc::{TlcCtx, TlcError, TlcResult, TlcValue};
use rdl_types::{SingVal, Type};
use ruby_interp::Value;
use std::sync::OnceLock;

/// Shared type-level helper methods written in the Ruby subset.  These are
/// the analogue of the paper's 83 helper methods and are counted in Table 1.
pub const RUBY_HELPERS: &str = r#"
# The element type of an array-like receiver: the union of a tuple's
# element types, the parameter of Array<T>, or Object as a fallback.
def elem(t)
  if t.is_a?(Tuple)
    t.elem_type
  elsif t.is_a?(Generic)
    t.param
  else
    Nominal.new(Object)
  end
end

# An Array<T> with the receiver's element type.
def arr(t)
  Generic.new(Array, elem(t))
end

# The value type of a hash-like receiver.
def vals(t)
  t.value_type
end

# The key type of a hash-like receiver.
def keyt(t)
  t.key_type
end

# A Hash<K, V> with the receiver's key and value types.
def hsh(t)
  Generic.new(Hash, keyt(t), vals(t))
end

# Precise indexing: a finite hash or tuple indexed by a singleton key yields
# the exact component type; otherwise fall back to the value/element type.
def idx(t, k)
  if t.is_a?(FiniteHash) && k.is_a?(Singleton)
    t[k.val]
  elsif t.is_a?(Tuple) && k.is_a?(Singleton)
    t[k.val]
  elsif t.is_a?(FiniteHash)
    vals(t)
  elsif t.is_a?(Tuple)
    elem(t)
  elsif t.is_a?(Generic)
    if t.base == Hash
      vals(t)
    else
      elem(t)
    end
  else
    Nominal.new(Object)
  end
end

# The type of the first element of a tuple, or the element type otherwise.
def first_elem(t)
  if t.is_a?(Tuple)
    if t.size == 0
      Singleton.new(nil)
    else
      t.elems.first
    end
  else
    Union.new(elem(t), Singleton.new(nil))
  end
end

# The type of the last element of a tuple, or the element type otherwise.
def last_elem(t)
  if t.is_a?(Tuple)
    if t.size == 0
      Singleton.new(nil)
    else
      t.elems.last
    end
  else
    Union.new(elem(t), Singleton.new(nil))
  end
end

# The receiver's own type (identity); used by methods returning self.
def self_type(t)
  t
end

# An optional (nilable) version of a type.
def maybe(t)
  Union.new(t, Singleton.new(nil))
end

# An Array of the receiver's key type / value type (Hash#keys / Hash#values).
def hash_keys(t)
  Generic.new(Array, keyt(t))
end

def hash_values(t)
  Generic.new(Array, vals(t))
end

# Merge two hash-like types, as Hash#merge does (used also by Table#joins).
def merged_hash(t, u)
  if t.is_a?(FiniteHash) && u.is_a?(FiniteHash)
    t.merge(u.elts)
  else
    Generic.new(Hash, keyt(t), Union.new(vals(t), vals(u)))
  end
end

# Array#flatten: flattening loses per-position precision.
def flat(t)
  Generic.new(Array, Nominal.new(Object))
end

# Array#zip / Array#product element pairs.
def pairs(t, u)
  Generic.new(Array, Generic.new(Array, Union.new(elem(t), elem(u))))
end
"#;

/// Registers the native helpers (constant folding and const-string
/// operations) into `env`.
///
/// Each one folds by running the interpreter's own native method
/// ([`ruby_interp::call_native`]) on the values its constant operand types
/// stand for, and types the result with [`type_of_value`], so a folded type
/// is the type of what the program computes at run time.  When an operand
/// is not a constant, or the method raises (division by zero, an Integer
/// overflow), the helper returns its fallback type.
pub fn register_native_helpers(env: &mut CompRdl) {
    // Numeric constant folding (§2.4 "Constant Folding"): when both operand
    // types are integer/float singletons, compute the singleton result.
    env.register_helper_native("fold", |ctx, args| {
        let op = symbol_arg(args, 2, "fold requires an operator symbol")?;
        let (a, b) = (args.first(), args.get(1));
        let is = |v: Option<&TlcValue>, class: &str| match v {
            Some(TlcValue::Type(Type::Singleton(s))) => s.class_of() == class,
            Some(TlcValue::Type(Type::Nominal(n))) => n == class,
            _ => false,
        };
        let fallback = if is(a, "Float") || is(b, "Float") {
            Type::nominal("Float")
        } else if is(a, "Integer") && is(b, "Integer") {
            Type::nominal("Integer")
        } else {
            Type::union([Type::nominal("Integer"), Type::nominal("Float")])
        };
        fold(ctx, numeric_value(a), op, &[numeric_value(b)], fallback)
    });

    // Comparison folding: singleton operands yield singleton booleans.
    env.register_helper_native("fold_cmp", |ctx, args| {
        let op = symbol_arg(args, 2, "fold_cmp requires an operator symbol")?;
        fold(ctx, numeric_value(args.first()), op, &[numeric_value(args.get(1))], Type::Bool)
    });

    // Const-string operations (§2.2): when the receiver is a const string
    // with a known value, compute the resulting const string; otherwise fall
    // back to String.
    env.register_helper_native("str_op", |ctx, args| {
        let op = symbol_arg(args, 1, "str_op requires an operation symbol")?;
        let recv = string_value(ctx, args.first());
        fold(ctx, recv, op, &[], Type::nominal("String"))
    });

    // Const-string concatenation.
    env.register_helper_native("str_concat", |ctx, args| {
        let (a, b) = (string_value(ctx, args.first()), string_value(ctx, args.get(1)));
        fold(ctx, a, "+", &[b], Type::nominal("String"))
    });

    // String length on const strings.
    env.register_helper_native("str_len", |ctx, args| {
        let recv = string_value(ctx, args.first());
        fold(ctx, recv, "length", &[], Type::nominal("Integer"))
    });
}

/// The symbol a helper takes as its argument `i`.
fn symbol_arg<'v>(args: &'v [TlcValue], i: usize, missing: &str) -> Result<&'v str, TlcError> {
    match args.get(i) {
        Some(TlcValue::Sym(s)) => Ok(s),
        _ => Err(TlcError::new(missing)),
    }
}

/// The value an Integer or Float singleton type stands for.
fn numeric_value(v: Option<&TlcValue>) -> Option<Value> {
    match v? {
        TlcValue::Type(Type::Singleton(SingVal::Int(i))) => Some(Value::Int(*i)),
        TlcValue::Type(Type::Singleton(SingVal::FloatBits(b))) => {
            Some(Value::Float(f64::from_bits(*b)))
        }
        _ => None,
    }
}

/// The value a const string type stands for, while it has a known one.
fn string_value(ctx: &TlcCtx<'_>, v: Option<&TlcValue>) -> Option<Value> {
    match v? {
        TlcValue::Type(Type::ConstString(id)) => ctx.store.const_string_value(*id).map(Value::str),
        _ => None,
    }
}

/// The type of `recv.name(*args)` as the interpreter computes it, or
/// `fallback` when an operand is not a constant (`None`) or the call raises
/// or finds no native method.
fn fold(
    ctx: &mut TlcCtx<'_>,
    recv: Option<Value>,
    name: &str,
    args: &[Option<Value>],
    fallback: Type,
) -> TlcResult {
    let args: Option<Vec<Value>> = args.iter().cloned().collect();
    let ty = match (recv, args) {
        (Some(recv), Some(args)) => match ruby_interp::call_native(&recv, name, &args) {
            Ok(Some(value)) => type_of_value(&value, ctx.store),
            _ => fallback,
        },
        _ => fallback,
    };
    Ok(TlcValue::Type(ty))
}

/// Registers every core-library annotation set plus the shared helpers.
///
/// The functions above build the library once per process, on first use;
/// every call then merges it into `env` with [`CompRdl::merge_library`], so
/// all environments share one copy of its signatures and helpers.
pub fn register_all(env: &mut CompRdl) {
    static CORE: OnceLock<CompRdl> = OnceLock::new();
    env.merge_library(CORE.get_or_init(|| {
        let mut core = CompRdl::new();
        register_native_helpers(&mut core);
        core.register_helpers_ruby(RUBY_HELPERS);
        array::register(&mut core);
        hash::register(&mut core);
        string::register(&mut core);
        numeric::register(&mut core);
        core
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_substantial_annotation_sets() {
        let mut env = CompRdl::new();
        register_all(&mut env);
        assert!(env.annotation_count("Array") >= 100, "{}", env.annotation_count("Array"));
        assert!(env.annotation_count("Hash") >= 40, "{}", env.annotation_count("Hash"));
        assert!(env.annotation_count("String") >= 100, "{}", env.annotation_count("String"));
        assert!(env.annotation_count("Integer") >= 90, "{}", env.annotation_count("Integer"));
        assert!(env.annotation_count("Float") >= 80, "{}", env.annotation_count("Float"));
        assert!(env.helper_count() >= 15);
    }

    #[test]
    fn most_core_annotations_are_comp_types() {
        let mut env = CompRdl::new();
        register_all(&mut env);
        for lib in ["Array", "Hash", "String", "Integer", "Float"] {
            let total = env.annotation_count(lib);
            let comp = env.comp_type_count(lib);
            assert!(
                comp >= 10 && comp <= total,
                "{lib}: only {comp} of {total} annotations are comp types"
            );
        }
    }
}

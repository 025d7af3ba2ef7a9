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
use crate::tlc::{TlcError, TlcValue};
use rdl_types::{SingVal, Type};
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
pub fn register_native_helpers(env: &mut CompRdl) {
    // Numeric constant folding (§2.4 "Constant Folding"): when both operand
    // types are integer/float singletons, compute the singleton result.
    env.register_helper_native("fold", |_ctx, args| {
        let get = |v: &TlcValue| -> Option<f64> {
            match v {
                TlcValue::Type(Type::Singleton(SingVal::Int(i))) => Some(*i as f64),
                TlcValue::Type(Type::Singleton(SingVal::FloatBits(b))) => Some(f64::from_bits(*b)),
                _ => None,
            }
        };
        let is_float = |v: &TlcValue| {
            matches!(v, TlcValue::Type(Type::Singleton(SingVal::FloatBits(_))))
                || matches!(v, TlcValue::Type(Type::Nominal(n)) if n == "Float")
        };
        let is_int = |v: &TlcValue| {
            matches!(v, TlcValue::Type(Type::Singleton(SingVal::Int(_))))
                || matches!(v, TlcValue::Type(Type::Nominal(n)) if n == "Integer")
        };
        let (a, b, op) = (args.first(), args.get(1), args.get(2));
        let op = match op {
            Some(TlcValue::Sym(s)) => s.clone(),
            _ => return Err(TlcError::new("fold requires an operator symbol")),
        };
        let av = a.unwrap_or(&TlcValue::Nil);
        let bv = b.unwrap_or(&TlcValue::Nil);
        let fallback = if is_float(av) || is_float(bv) {
            TlcValue::Type(Type::nominal("Float"))
        } else if is_int(av) && is_int(bv) {
            TlcValue::Type(Type::nominal("Integer"))
        } else {
            TlcValue::Type(Type::union([Type::nominal("Integer"), Type::nominal("Float")]))
        };
        let (Some(x), Some(y)) = (a.and_then(get), b.and_then(get)) else {
            return Ok(fallback);
        };
        let result = match op.as_str() {
            "+" => x + y,
            "-" => x - y,
            "*" => x * y,
            "/" => {
                if y == 0.0 {
                    return Ok(fallback);
                }
                x / y
            }
            "%" => {
                if y == 0.0 {
                    return Ok(fallback);
                }
                x % y
            }
            "**" => x.powf(y),
            _ => return Ok(fallback),
        };
        let both_int = matches!(a, Some(TlcValue::Type(Type::Singleton(SingVal::Int(_)))))
            && matches!(b, Some(TlcValue::Type(Type::Singleton(SingVal::Int(_)))));
        if both_int && result.fract() == 0.0 {
            Ok(TlcValue::Type(Type::int(result as i64)))
        } else {
            Ok(TlcValue::Type(Type::Singleton(SingVal::float(result))))
        }
    });

    // Comparison folding: singleton operands yield singleton booleans.
    env.register_helper_native("fold_cmp", |_ctx, args| {
        let get = |v: Option<&TlcValue>| -> Option<f64> {
            match v {
                Some(TlcValue::Type(Type::Singleton(SingVal::Int(i)))) => Some(*i as f64),
                Some(TlcValue::Type(Type::Singleton(SingVal::FloatBits(b)))) => {
                    Some(f64::from_bits(*b))
                }
                _ => None,
            }
        };
        let op = match args.get(2) {
            Some(TlcValue::Sym(s)) => s.clone(),
            _ => return Err(TlcError::new("fold_cmp requires an operator symbol")),
        };
        let (Some(x), Some(y)) = (get(args.first()), get(args.get(1))) else {
            return Ok(TlcValue::Type(Type::Bool));
        };
        let result = match op.as_str() {
            "<" => x < y,
            ">" => x > y,
            "<=" => x <= y,
            ">=" => x >= y,
            "==" => x == y,
            _ => return Ok(TlcValue::Type(Type::Bool)),
        };
        Ok(TlcValue::Type(Type::Singleton(if result { SingVal::True } else { SingVal::False })))
    });

    // Const-string operations (§2.2): when the receiver is a const string
    // with a known value, compute the resulting const string; otherwise fall
    // back to String.
    env.register_helper_native("str_op", |ctx, args| {
        let value = match args.first() {
            Some(TlcValue::Type(Type::ConstString(id))) => {
                ctx.store.const_string_value(*id).map(|s| s.to_string())
            }
            _ => None,
        };
        let op = match args.get(1) {
            Some(TlcValue::Sym(s)) => s.clone(),
            _ => return Err(TlcError::new("str_op requires an operation symbol")),
        };
        match value {
            None => Ok(TlcValue::Type(Type::nominal("String"))),
            Some(s) => {
                let out = match op.as_str() {
                    "upcase" => s.to_uppercase(),
                    "downcase" => s.to_lowercase(),
                    "strip" => s.trim().to_string(),
                    "reverse" => s.chars().rev().collect(),
                    "capitalize" => {
                        let mut cs = s.chars();
                        match cs.next() {
                            Some(c) => c.to_uppercase().collect::<String>() + cs.as_str(),
                            None => String::new(),
                        }
                    }
                    "chomp" => s.trim_end_matches('\n').to_string(),
                    "freeze" | "dup" | "to_s" | "to_str" => s,
                    _ => return Ok(TlcValue::Type(Type::nominal("String"))),
                };
                Ok(TlcValue::Type(ctx.store.new_const_string(out)))
            }
        }
    });

    // Const-string concatenation.
    env.register_helper_native("str_concat", |ctx, args| {
        let get = |v: Option<&TlcValue>, ctx: &crate::tlc::TlcCtx<'_>| -> Option<String> {
            match v {
                Some(TlcValue::Type(Type::ConstString(id))) => {
                    ctx.store.const_string_value(*id).map(|s| s.to_string())
                }
                _ => None,
            }
        };
        let a = get(args.first(), ctx);
        let b = get(args.get(1), ctx);
        match (a, b) {
            (Some(x), Some(y)) => Ok(TlcValue::Type(ctx.store.new_const_string(format!("{x}{y}")))),
            _ => Ok(TlcValue::Type(Type::nominal("String"))),
        }
    });

    // String length / emptiness on const strings.
    env.register_helper_native("str_len", |ctx, args| match args.first() {
        Some(TlcValue::Type(Type::ConstString(id))) => match ctx.store.const_string_value(*id) {
            Some(s) => Ok(TlcValue::Type(Type::int(s.chars().count() as i64))),
            None => Ok(TlcValue::Type(Type::nominal("Integer"))),
        },
        _ => Ok(TlcValue::Type(Type::nominal("Integer"))),
    });
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

/// The per-library rows of Table 1 for the core libraries registered here.
pub fn table1_core_rows(env: &CompRdl) -> Vec<(String, usize, usize)> {
    ["Array", "Hash", "String", "Float", "Integer"]
        .iter()
        .map(|lib| (lib.to_string(), env.annotation_count(lib), env.annotation_loc(lib)))
        .collect()
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

    #[test]
    fn table1_rows_have_loc() {
        let mut env = CompRdl::new();
        register_all(&mut env);
        for (lib, count, loc) in table1_core_rows(&env) {
            assert!(count > 0, "{lib} has no annotations");
            assert!(loc > 0, "{lib} has no recorded LoC");
        }
    }
}

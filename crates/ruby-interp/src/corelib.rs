//! Native implementations of the Ruby core library methods used by the
//! subset (Array, Hash, String, Integer, Float, Symbol, NilClass, Proc and
//! the generic Object protocol).
//!
//! These are the very methods CompRDL annotates with comp types (paper
//! Table 1); at run time the interpreter executes these native bodies, and
//! the inserted dynamic checks validate their results against the computed
//! types.

use crate::error::{Control, ErrorKind, EvalResult};
use crate::interp::Interpreter;
use crate::value::{container_id, Closure, Path, Value};
use ruby_syntax::Span;
use std::rc::Rc;

/// Attempts to dispatch `recv.name(args)` to a native implementation.
/// Returns `Ok(None)` if no native method with that name exists for the
/// receiver.
///
/// # Errors
///
/// Propagates errors raised by block invocations and argument errors.
pub fn dispatch(
    interp: &Interpreter,
    span: Span,
    recv: &Value,
    name: &str,
    args: &[Value],
    block: Option<&Closure>,
) -> EvalResult<Option<Value>> {
    // Type-specific methods first, then the generic object protocol.
    let specific = match recv {
        Value::Array(_) => array_method(interp, span, recv, name, args, block)?,
        Value::Hash(_) => hash_method(interp, span, recv, name, args, block)?,
        Value::Str(_) => string_method(span, recv, name, args)?,
        Value::Int(_) | Value::Float(_) => numeric_method(span, recv, name, args, interp, block)?,
        Value::Sym(_) => symbol_method(recv, name)?,
        Value::Nil => nil_method(recv, name)?,
        Value::Lambda(l) => lambda_method(interp, span, l, name, args)?,
        _ => None,
    };
    if specific.is_some() {
        return Ok(specific);
    }
    object_method(interp, span, recv, name, args)
}

fn arg(args: &[Value], i: usize) -> Value {
    args.get(i).cloned().unwrap_or(Value::Nil)
}

fn int_arg(args: &[Value], i: usize, span: Span) -> EvalResult<i64> {
    match args.get(i) {
        Some(Value::Int(n)) => Ok(*n),
        Some(Value::Float(f)) => Ok(*f as i64),
        other => Err(Control::error(
            ErrorKind::Type,
            format!("expected an Integer argument, got {:?}", other.map(|v| v.class_name())),
            span,
        )),
    }
}

// ---------------------------------------------------------------------------
// Object protocol
// ---------------------------------------------------------------------------

fn object_method(
    interp: &Interpreter,
    _span: Span,
    recv: &Value,
    name: &str,
    args: &[Value],
) -> EvalResult<Option<Value>> {
    let v = match name {
        "==" => Value::Bool(recv.ruby_eq(&arg(args, 0))),
        "!=" => Value::Bool(!recv.ruby_eq(&arg(args, 0))),
        "equal?" => Value::Bool(recv.ruby_eq(&arg(args, 0))),
        "nil?" => Value::Bool(matches!(recv, Value::Nil)),
        "is_a?" | "kind_of?" | "instance_of?" => match arg(args, 0) {
            Value::Class(c) => Value::Bool(interp.value_is_a(recv, &c)),
            _ => Value::Bool(false),
        },
        "class" => Value::Class(recv.object_class().unwrap_or_else(|| recv.class_name().into())),
        "to_s" => Value::str(recv.to_display_string()),
        "inspect" => Value::str(recv.inspect()),
        "freeze" | "dup" | "clone" | "itself" => recv.clone(),
        "frozen?" => Value::Bool(false),
        "respond_to?" => Value::Bool(true),
        "hash" => Value::Int(recv.inspect().len() as i64),
        "tap" => recv.clone(),
        "present?" => Value::Bool(match recv {
            Value::Nil => false,
            Value::Str(s) => !s.borrow().is_empty(),
            Value::Array(a) => !a.borrow().is_empty(),
            Value::Hash(h) => !h.borrow().is_empty(),
            Value::Bool(b) => *b,
            _ => true,
        }),
        "blank?" => Value::Bool(match recv {
            Value::Nil => true,
            Value::Str(s) => s.borrow().is_empty(),
            Value::Array(a) => a.borrow().is_empty(),
            Value::Hash(h) => h.borrow().is_empty(),
            Value::Bool(b) => !*b,
            _ => false,
        }),
        _ => return Ok(None),
    };
    Ok(Some(v))
}

// ---------------------------------------------------------------------------
// Array
// ---------------------------------------------------------------------------

fn array_method(
    interp: &Interpreter,
    span: Span,
    recv: &Value,
    name: &str,
    args: &[Value],
    block: Option<&Closure>,
) -> EvalResult<Option<Value>> {
    let Value::Array(items_ref) = recv else { return Ok(None) };
    // Queries borrow the receiver for one statement.  Mutators take their
    // mutable borrow with no other borrow held, and block-taking methods
    // iterate over a copy, because the block may mutate the receiver.
    let items = || items_ref.borrow();
    let v = match name {
        "[]" | "at" | "slice" => {
            let idx = int_arg(args, 0, span)?;
            index_array(&items(), idx)
        }
        "[]=" => {
            let idx = int_arg(args, 0, span)?;
            let value = arg(args, 1);
            let mut items = items_ref.borrow_mut();
            let idx =
                if idx < 0 { (items.len() as i64 + idx).max(0) as usize } else { idx as usize };
            while items.len() <= idx {
                items.push(Value::Nil);
            }
            items[idx] = value.clone();
            value
        }
        "first" => items().first().cloned().unwrap_or(Value::Nil),
        "last" => items().last().cloned().unwrap_or(Value::Nil),
        "length" | "size" | "count" => Value::Int(items().len() as i64),
        "empty?" => Value::Bool(items().is_empty()),
        "push" | "append" | "<<" => {
            items_ref.borrow_mut().extend(args.iter().cloned());
            recv.clone()
        }
        "pop" => items_ref.borrow_mut().pop().unwrap_or(Value::Nil),
        "shift" => {
            let mut items = items_ref.borrow_mut();
            if items.is_empty() {
                Value::Nil
            } else {
                items.remove(0)
            }
        }
        "unshift" | "prepend" => {
            let mut items = items_ref.borrow_mut();
            for (i, a) in args.iter().enumerate() {
                items.insert(i, a.clone());
            }
            recv.clone()
        }
        "include?" | "member?" => Value::Bool(items().iter().any(|v| v.ruby_eq(&arg(args, 0)))),
        "index" | "find_index" => match items().iter().position(|v| v.ruby_eq(&arg(args, 0))) {
            Some(i) => Value::Int(i as i64),
            None => Value::Nil,
        },
        "join" => {
            let sep = args.first().and_then(|a| a.as_str()).unwrap_or_default();
            Value::str(items().iter().map(|v| v.to_display_string()).collect::<Vec<_>>().join(&sep))
        }
        "reverse" => Value::array(items().iter().rev().cloned().collect()),
        "sort" => {
            let mut sorted = items().clone();
            sorted.sort_by(compare_values);
            Value::array(sorted)
        }
        "uniq" => {
            let mut out: Vec<Value> = Vec::new();
            for v in items().iter() {
                if !out.iter().any(|o| o.ruby_eq(v)) {
                    out.push(v.clone());
                }
            }
            Value::array(out)
        }
        "compact" => {
            Value::array(items().iter().filter(|v| !matches!(v, Value::Nil)).cloned().collect())
        }
        "flatten" => {
            /// Appends the leaves of `items` to `out`; `false` if an array
            /// on `path` is met again.
            fn flat(items: &[Value], path: &Path<'_, *const ()>, out: &mut Vec<Value>) -> bool {
                items.iter().all(|v| match v {
                    Value::Array(inner) => {
                        let id = container_id(inner);
                        !Path::contains(Some(path), id)
                            && flat(&inner.borrow(), &Path::enter(id, Some(path)), out)
                    }
                    other => {
                        out.push(other.clone());
                        true
                    }
                })
            }
            let mut out = Vec::new();
            if !flat(&items(), &Path::enter(container_id(items_ref), None), &mut out) {
                return Err(Control::error(
                    ErrorKind::Argument,
                    "tried to flatten recursive array",
                    span,
                ));
            }
            Value::array(out)
        }
        "+" | "concat" => match arg(args, 0) {
            Value::Array(other) => {
                let mut out = items().clone();
                out.extend(other.borrow().iter().cloned());
                Value::array(out)
            }
            _ => {
                return Err(Control::error(
                    ErrorKind::Type,
                    "no implicit conversion into Array",
                    span,
                ))
            }
        },
        "-" => match arg(args, 0) {
            Value::Array(other) => {
                let other = other.borrow();
                Value::array(
                    items()
                        .iter()
                        .filter(|v| !other.iter().any(|o| o.ruby_eq(v)))
                        .cloned()
                        .collect(),
                )
            }
            _ => {
                return Err(Control::error(
                    ErrorKind::Type,
                    "no implicit conversion into Array",
                    span,
                ))
            }
        },
        "take" => {
            let n = int_arg(args, 0, span)?.max(0) as usize;
            Value::array(items().iter().take(n).cloned().collect())
        }
        "drop" => {
            let n = int_arg(args, 0, span)?.max(0) as usize;
            Value::array(items().iter().skip(n).cloned().collect())
        }
        "max" => items().iter().cloned().max_by(compare_values).unwrap_or(Value::Nil),
        "min" => items().iter().cloned().min_by(compare_values).unwrap_or(Value::Nil),
        "sum" => {
            let mut acc = Value::Int(0);
            for v in items().iter() {
                acc = numeric_binop(&acc, v, "+", span)?;
            }
            acc
        }
        "delete" => {
            // Compare first, then write: comparing borrows the argument,
            // which may be the receiver.
            let target = arg(args, 0);
            let kept: Vec<Value> =
                items().iter().filter(|v| !v.ruby_eq(&target)).cloned().collect();
            *items_ref.borrow_mut() = kept;
            target
        }
        "to_a" => recv.clone(),
        "map" | "collect" => {
            let block = require_block(block, span, "map")?;
            let items = items().clone();
            let mut out = Vec::with_capacity(items.len());
            for v in &items {
                out.push(interp.call_closure(block, std::slice::from_ref(v), span)?);
            }
            Value::array(out)
        }
        "each" => {
            let block = require_block(block, span, "each")?;
            let items = items().clone();
            for v in &items {
                interp.call_closure(block, std::slice::from_ref(v), span)?;
            }
            recv.clone()
        }
        "each_with_index" => {
            let block = require_block(block, span, "each_with_index")?;
            let items = items().clone();
            for (i, v) in items.iter().enumerate() {
                interp.call_closure(block, &[v.clone(), Value::Int(i as i64)], span)?;
            }
            recv.clone()
        }
        "select" | "filter" => {
            let block = require_block(block, span, "select")?;
            let items = items().clone();
            let mut out = Vec::new();
            for v in &items {
                if interp.call_closure(block, std::slice::from_ref(v), span)?.truthy() {
                    out.push(v.clone());
                }
            }
            Value::array(out)
        }
        "reject" => {
            let block = require_block(block, span, "reject")?;
            let items = items().clone();
            let mut out = Vec::new();
            for v in &items {
                if !interp.call_closure(block, std::slice::from_ref(v), span)?.truthy() {
                    out.push(v.clone());
                }
            }
            Value::array(out)
        }
        "find" | "detect" => {
            let block = require_block(block, span, "find")?;
            let items = items().clone();
            let mut found = Value::Nil;
            for v in &items {
                if interp.call_closure(block, std::slice::from_ref(v), span)?.truthy() {
                    found = v.clone();
                    break;
                }
            }
            found
        }
        "any?" => {
            let mut result = false;
            match block {
                Some(b) => {
                    let items = items().clone();
                    for v in &items {
                        if interp.call_closure(b, std::slice::from_ref(v), span)?.truthy() {
                            result = true;
                            break;
                        }
                    }
                }
                None => result = !items().is_empty(),
            }
            Value::Bool(result)
        }
        "all?" => {
            let block = require_block(block, span, "all?")?;
            let items = items().clone();
            let mut result = true;
            for v in &items {
                if !interp.call_closure(block, std::slice::from_ref(v), span)?.truthy() {
                    result = false;
                    break;
                }
            }
            Value::Bool(result)
        }
        "none?" => {
            let block = require_block(block, span, "none?")?;
            let items = items().clone();
            let mut result = true;
            for v in &items {
                if interp.call_closure(block, std::slice::from_ref(v), span)?.truthy() {
                    result = false;
                    break;
                }
            }
            Value::Bool(result)
        }
        "reduce" | "inject" => {
            let block = require_block(block, span, "reduce")?;
            let items = items().clone();
            let mut acc = arg(args, 0);
            let mut iter = items.iter();
            if matches!(acc, Value::Nil) {
                acc = iter.next().cloned().unwrap_or(Value::Nil);
            }
            for v in iter {
                acc = interp.call_closure(block, &[acc.clone(), v.clone()], span)?;
            }
            acc
        }
        "sort_by" => {
            let block = require_block(block, span, "sort_by")?;
            let items = items().clone();
            let mut keyed: Vec<(Value, Value)> = Vec::with_capacity(items.len());
            for v in items {
                keyed.push((interp.call_closure(block, std::slice::from_ref(&v), span)?, v));
            }
            keyed.sort_by(|a, b| compare_values(&a.0, &b.0));
            Value::array(keyed.into_iter().map(|(_, v)| v).collect())
        }
        "group_by" => {
            let block = require_block(block, span, "group_by")?;
            let items = items().clone();
            let out = Value::hash(vec![]);
            for v in items {
                let key = interp.call_closure(block, std::slice::from_ref(&v), span)?;
                match out.hash_get(&key) {
                    Some(Value::Array(existing)) => existing.borrow_mut().push(v),
                    _ => out.hash_set(key, Value::array(vec![v])),
                }
            }
            out
        }
        _ => return Ok(None),
    };
    Ok(Some(v))
}

fn index_array(items: &[Value], idx: i64) -> Value {
    let idx = if idx < 0 { items.len() as i64 + idx } else { idx };
    if idx < 0 {
        return Value::Nil;
    }
    items.get(idx as usize).cloned().unwrap_or(Value::Nil)
}

fn require_block<'a>(
    block: Option<&'a Closure>,
    span: Span,
    what: &str,
) -> EvalResult<&'a Closure> {
    block.ok_or_else(|| {
        Control::error(ErrorKind::Argument, format!("`{what}` requires a block"), span)
    })
}

fn compare_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Float(x), Value::Float(y)) => x.partial_cmp(y).unwrap_or(Ordering::Equal),
        (Value::Int(x), Value::Float(y)) => (*x as f64).partial_cmp(y).unwrap_or(Ordering::Equal),
        (Value::Float(x), Value::Int(y)) => x.partial_cmp(&(*y as f64)).unwrap_or(Ordering::Equal),
        (Value::Str(x), Value::Str(y)) => x.borrow().cmp(&y.borrow()),
        (Value::Sym(x), Value::Sym(y)) => x.cmp(y),
        _ => a.inspect().cmp(&b.inspect()),
    }
}

// ---------------------------------------------------------------------------
// Hash
// ---------------------------------------------------------------------------

fn hash_method(
    interp: &Interpreter,
    span: Span,
    recv: &Value,
    name: &str,
    args: &[Value],
    block: Option<&Closure>,
) -> EvalResult<Option<Value>> {
    let Value::Hash(pairs_ref) = recv else { return Ok(None) };
    // Borrowed and copied as in `array_method`.
    let pairs = || pairs_ref.borrow();
    let v = match name {
        "[]" => recv.hash_get(&arg(args, 0)).unwrap_or(Value::Nil),
        "[]=" | "store" => {
            let value = arg(args, 1);
            recv.hash_set(arg(args, 0), value.clone());
            value
        }
        "fetch" => match recv.hash_get(&arg(args, 0)) {
            Some(v) => v,
            None => {
                if args.len() > 1 {
                    arg(args, 1)
                } else {
                    return Err(Control::error(
                        ErrorKind::Raised,
                        format!("key not found: {}", arg(args, 0).inspect()),
                        span,
                    ));
                }
            }
        },
        "key?" | "has_key?" | "include?" | "member?" => {
            Value::Bool(recv.hash_get(&arg(args, 0)).is_some())
        }
        "keys" => Value::array(pairs().iter().map(|(k, _)| k.clone()).collect()),
        "values" => Value::array(pairs().iter().map(|(_, v)| v.clone()).collect()),
        "length" | "size" | "count" => Value::Int(pairs().len() as i64),
        "empty?" => Value::Bool(pairs().is_empty()),
        "delete" => {
            // Compare first, then write: comparing borrows the key, which
            // may be the receiver.
            let key = arg(args, 0);
            let removed = recv.hash_get(&key).unwrap_or(Value::Nil);
            let kept: Vec<(Value, Value)> =
                pairs().iter().filter(|(k, _)| !k.ruby_eq(&key)).cloned().collect();
            *pairs_ref.borrow_mut() = kept;
            removed
        }
        "merge" => {
            let out = Value::hash(pairs().clone());
            if let Value::Hash(other) = arg(args, 0) {
                for (k, v) in other.borrow().iter() {
                    out.hash_set(k.clone(), v.clone());
                }
            }
            out
        }
        "merge!" | "update" => {
            // Merging a hash into itself changes nothing, and reading the
            // argument while writing the receiver would borrow one hash
            // twice.
            if let Value::Hash(other) = arg(args, 0) {
                if !Rc::ptr_eq(&other, pairs_ref) {
                    for (k, v) in other.borrow().iter() {
                        recv.hash_set(k.clone(), v.clone());
                    }
                }
            }
            recv.clone()
        }
        "to_a" => Value::array(
            pairs().iter().map(|(k, v)| Value::array(vec![k.clone(), v.clone()])).collect(),
        ),
        "each" | "each_pair" => {
            let block = require_block(block, span, "each")?;
            let pairs = pairs().clone();
            for (k, v) in pairs {
                interp.call_closure(block, &[k, v], span)?;
            }
            recv.clone()
        }
        "map" | "collect" => {
            let block = require_block(block, span, "map")?;
            let pairs = pairs().clone();
            let mut out = Vec::with_capacity(pairs.len());
            for (k, v) in pairs {
                out.push(interp.call_closure(block, &[k, v], span)?);
            }
            Value::array(out)
        }
        "select" | "filter" => {
            let block = require_block(block, span, "select")?;
            let pairs = pairs().clone();
            let mut out = Vec::new();
            for (k, v) in pairs {
                if interp.call_closure(block, &[k.clone(), v.clone()], span)?.truthy() {
                    out.push((k, v));
                }
            }
            Value::hash(out)
        }
        "any?" => match block {
            Some(b) => {
                let pairs = pairs().clone();
                let mut result = false;
                for (k, v) in pairs {
                    if interp.call_closure(b, &[k, v], span)?.truthy() {
                        result = true;
                        break;
                    }
                }
                Value::Bool(result)
            }
            None => Value::Bool(!pairs().is_empty()),
        },
        "all?" => {
            let block = require_block(block, span, "all?")?;
            let pairs = pairs().clone();
            let mut result = true;
            for (k, v) in pairs {
                if !interp.call_closure(block, &[k, v], span)?.truthy() {
                    result = false;
                    break;
                }
            }
            Value::Bool(result)
        }
        "none?" => {
            let block = require_block(block, span, "none?")?;
            let pairs = pairs().clone();
            let mut result = true;
            for (k, v) in pairs {
                if interp.call_closure(block, &[k, v], span)?.truthy() {
                    result = false;
                    break;
                }
            }
            Value::Bool(result)
        }
        "dig" => {
            let mut current = recv.clone();
            for key in args {
                current = match current.hash_get(key) {
                    Some(v) => v,
                    None => return Ok(Some(Value::Nil)),
                };
            }
            current
        }
        _ => return Ok(None),
    };
    Ok(Some(v))
}

// ---------------------------------------------------------------------------
// String
// ---------------------------------------------------------------------------

fn string_method(
    span: Span,
    recv: &Value,
    name: &str,
    args: &[Value],
) -> EvalResult<Option<Value>> {
    let Value::Str(s_ref) = recv else { return Ok(None) };
    if let "<<" | "concat" = name {
        // The argument is copied before the receiver is borrowed mutably,
        // so `s << s` appends a copy of `s`.
        if let Some(other) = arg(args, 0).as_str() {
            s_ref.borrow_mut().push_str(&other);
        }
        return Ok(Some(recv.clone()));
    }
    let s = s_ref.borrow();
    let v = match name {
        "+" => match arg(args, 0) {
            Value::Str(other) => Value::str(format!("{}{}", s, other.borrow())),
            other => {
                return Err(Control::error(
                    ErrorKind::Type,
                    format!("no implicit conversion of {} into String", other.class_name()),
                    span,
                ))
            }
        },
        "*" => Value::str(s.repeat(int_arg(args, 0, span)?.max(0) as usize)),
        "length" | "size" => Value::Int(s.chars().count() as i64),
        "empty?" => Value::Bool(s.is_empty()),
        "upcase" => Value::str(s.to_uppercase()),
        "downcase" => Value::str(s.to_lowercase()),
        "capitalize" => {
            let mut c = s.chars();
            match c.next() {
                Some(first) => Value::str(first.to_uppercase().collect::<String>() + c.as_str()),
                None => Value::str(""),
            }
        }
        "strip" => Value::str(s.trim().to_string()),
        "chomp" => Value::str(s.trim_end_matches('\n').to_string()),
        "reverse" => Value::str(s.chars().rev().collect::<String>()),
        "include?" => Value::Bool(arg(args, 0).as_str().map(|n| s.contains(&n)).unwrap_or(false)),
        "start_with?" => {
            Value::Bool(arg(args, 0).as_str().map(|n| s.starts_with(&n)).unwrap_or(false))
        }
        "end_with?" => Value::Bool(arg(args, 0).as_str().map(|n| s.ends_with(&n)).unwrap_or(false)),
        "split" => {
            let sep = args.first().and_then(|a| a.as_str()).unwrap_or_else(|| " ".to_string());
            Value::array(
                s.split(&sep as &str).filter(|part| !part.is_empty()).map(Value::str).collect(),
            )
        }
        "sub" | "gsub" => {
            let pattern = arg(args, 0).as_str().unwrap_or_default();
            let replacement = arg(args, 1).as_str().unwrap_or_default();
            if name == "sub" {
                Value::str(s.replacen(&pattern, &replacement, 1))
            } else {
                Value::str(s.replace(&pattern, &replacement))
            }
        }
        "[]" | "slice" => {
            let idx = int_arg(args, 0, span)?;
            let chars: Vec<char> = s.chars().collect();
            let idx = if idx < 0 { chars.len() as i64 + idx } else { idx };
            if idx < 0 || idx as usize >= chars.len() {
                Value::Nil
            } else if let Some(Value::Int(len)) = args.get(1) {
                let end = ((idx + *len).max(idx) as usize).min(chars.len());
                Value::str(chars[idx as usize..end].iter().collect::<String>())
            } else {
                Value::str(chars[idx as usize].to_string())
            }
        }
        "to_s" | "to_str" => recv.clone(),
        "to_i" => Value::Int(s.trim().parse::<i64>().unwrap_or(0)),
        "to_f" => Value::Float(s.trim().parse::<f64>().unwrap_or(0.0)),
        "to_sym" => Value::Sym(s.as_str().into()),
        "chars" => Value::array(s.chars().map(|c| Value::str(c.to_string())).collect()),
        "==" => Value::Bool(recv.ruby_eq(&arg(args, 0))),
        "<=>" => match arg(args, 0).as_str() {
            Some(other) => Value::Int(match s.cmp(&other) {
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
                std::cmp::Ordering::Greater => 1,
            }),
            None => Value::Nil,
        },
        "freeze" => recv.clone(),
        _ => return Ok(None),
    };
    Ok(Some(v))
}

// ---------------------------------------------------------------------------
// Numerics
// ---------------------------------------------------------------------------

fn numeric_binop(a: &Value, b: &Value, op: &str, span: Span) -> EvalResult {
    let as_f = |v: &Value| match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    };
    let (Some(x), Some(y)) = (as_f(a), as_f(b)) else {
        return Err(Control::error(
            ErrorKind::Type,
            format!("{} can't be coerced into {}", b.class_name(), a.class_name()),
            span,
        ));
    };
    let both_int = matches!((a, b), (Value::Int(_), Value::Int(_)));
    let result = match op {
        "+" => x + y,
        "-" => x - y,
        "*" => x * y,
        "/" => {
            if both_int {
                if y == 0.0 {
                    return Err(Control::error(ErrorKind::Raised, "divided by 0", span));
                }
                return Ok(Value::Int((x as i64).div_euclid(y as i64)));
            }
            x / y
        }
        "%" => {
            if both_int {
                if y == 0.0 {
                    return Err(Control::error(ErrorKind::Raised, "divided by 0", span));
                }
                return Ok(Value::Int((x as i64).rem_euclid(y as i64)));
            }
            x % y
        }
        "**" => x.powf(y),
        _ => {
            return Err(Control::error(ErrorKind::NoMethod, format!("unknown operator {op}"), span))
        }
    };
    if both_int && result.fract() == 0.0 && result.abs() < 9e15 {
        Ok(Value::Int(result as i64))
    } else {
        Ok(Value::Float(result))
    }
}

/// `Integer#<<`: `a` shifted left by `n` bits, or right for a negative
/// `n`.  The subset has no big integers, so a shift that overflows `i64`
/// raises.
fn shift_left(a: i64, n: i64, span: Span) -> EvalResult {
    match n {
        ..=-1 => Ok(Value::Int(a >> n.unsigned_abs().min(63))),
        0..=63 if (a << n) >> n == a => Ok(Value::Int(a << n)),
        _ if a == 0 => Ok(Value::Int(0)),
        _ => Err(Control::error(ErrorKind::Raised, format!("{a} << {n} overflows Integer"), span)),
    }
}

fn numeric_method(
    span: Span,
    recv: &Value,
    name: &str,
    args: &[Value],
    interp: &Interpreter,
    block: Option<&Closure>,
) -> EvalResult<Option<Value>> {
    let as_f = |v: &Value| match v {
        Value::Int(i) => *i as f64,
        Value::Float(f) => *f,
        _ => 0.0,
    };
    let x = as_f(recv);
    let v = match name {
        "+" | "-" | "*" | "/" | "%" | "**" => numeric_binop(recv, &arg(args, 0), name, span)?,
        "<" => Value::Bool(x < as_f(&arg(args, 0))),
        ">" => Value::Bool(x > as_f(&arg(args, 0))),
        "<=" => Value::Bool(x <= as_f(&arg(args, 0))),
        ">=" => Value::Bool(x >= as_f(&arg(args, 0))),
        "<=>" => {
            let y = as_f(&arg(args, 0));
            Value::Int(if x < y {
                -1
            } else if x > y {
                1
            } else {
                0
            })
        }
        "==" => Value::Bool(recv.ruby_eq(&arg(args, 0))),
        "<<" => match recv {
            Value::Int(a) => shift_left(*a, int_arg(args, 0, span)?, span)?,
            _ => return Ok(None),
        },
        "abs" => match recv {
            Value::Int(i) => Value::Int(i.abs()),
            _ => Value::Float(x.abs()),
        },
        "zero?" => Value::Bool(x == 0.0),
        "positive?" => Value::Bool(x > 0.0),
        "negative?" => Value::Bool(x < 0.0),
        "even?" => Value::Bool((x as i64) % 2 == 0),
        "odd?" => Value::Bool((x as i64) % 2 != 0),
        "to_i" | "to_int" | "floor" | "truncate" => Value::Int(x.floor() as i64),
        "ceil" => Value::Int(x.ceil() as i64),
        "round" => Value::Int(x.round() as i64),
        "to_f" => Value::Float(x),
        "to_s" => Value::str(recv.to_display_string()),
        "succ" | "next" => Value::Int(x as i64 + 1),
        "times" => {
            let block = require_block(block, span, "times")?;
            let n = x as i64;
            let mut i = 0;
            while i < n {
                interp.call_closure(block, &[Value::Int(i)], span)?;
                i += 1;
            }
            recv.clone()
        }
        "upto" => {
            let block = require_block(block, span, "upto")?;
            let hi = int_arg(args, 0, span)?;
            let mut i = x as i64;
            while i <= hi {
                interp.call_closure(block, &[Value::Int(i)], span)?;
                i += 1;
            }
            recv.clone()
        }
        _ => return Ok(None),
    };
    Ok(Some(v))
}

// ---------------------------------------------------------------------------
// Symbol / Nil / Proc
// ---------------------------------------------------------------------------

fn symbol_method(recv: &Value, name: &str) -> EvalResult<Option<Value>> {
    let Value::Sym(s) = recv else { return Ok(None) };
    let v = match name {
        "to_s" => Value::str(&**s),
        "to_sym" => recv.clone(),
        "length" | "size" => Value::Int(s.chars().count() as i64),
        "upcase" => Value::Sym(s.to_uppercase().into()),
        "downcase" => Value::Sym(s.to_lowercase().into()),
        _ => return Ok(None),
    };
    Ok(Some(v))
}

fn nil_method(_recv: &Value, name: &str) -> EvalResult<Option<Value>> {
    let v = match name {
        "to_s" => Value::str(""),
        "to_a" => Value::array(vec![]),
        "to_i" => Value::Int(0),
        "nil?" => Value::Bool(true),
        _ => return Ok(None),
    };
    Ok(Some(v))
}

fn lambda_method(
    interp: &Interpreter,
    span: Span,
    closure: &Rc<Closure>,
    name: &str,
    args: &[Value],
) -> EvalResult<Option<Value>> {
    match name {
        "call" | "()" | "yield" => Ok(Some(interp.call_closure(closure, args, span)?)),
        "arity" => Ok(Some(Value::Int(closure.block.params.len() as i64))),
        _ => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;
    use ruby_syntax::parse_program_strict;

    fn run(src: &str) -> Value {
        let prog = parse_program_strict(src).expect("parse");
        let interp = Interpreter::new(prog);
        interp.eval_program().expect("eval")
    }

    #[test]
    fn array_basics() {
        assert_eq!(run("[1, 2, 3].length()"), Value::Int(3));
        assert_eq!(run("[1, 2, 3].first"), Value::Int(1));
        assert_eq!(run("[1, 2, 3][-1]"), Value::Int(3));
        assert_eq!(run("[1, 2, 3][5]"), Value::Nil);
        assert_eq!(run("[1, 2, 2, 3].uniq().length()"), Value::Int(3));
        assert_eq!(run("[3, 1, 2].sort()"), run("[1, 2, 3]"));
        assert_eq!(run("[[1, [2]], [3]].flatten()"), run("[1, 2, 3]"));
        assert_eq!(run("[1, nil, 2].compact()"), run("[1, 2]"));
        assert_eq!(run("['a', 'b'].join('-')"), Value::str("a-b"));
        assert_eq!(run("[1, 2, 3].include?(2)"), Value::Bool(true));
        assert_eq!(run("[1, 2, 3].sum()"), Value::Int(6));
        assert_eq!(run("[1, 2] + [3]"), run("[1, 2, 3]"));
        assert_eq!(run("[1, 2, 3] - [2]"), run("[1, 3]"));
    }

    #[test]
    fn array_iterators() {
        assert_eq!(run("[1, 2, 3].map { |x| x * 2 }"), run("[2, 4, 6]"));
        assert_eq!(run("[1, 2, 3, 4].select { |x| x.even?() }"), run("[2, 4]"));
        assert_eq!(run("[1, 2, 3, 4].reject { |x| x.even?() }"), run("[1, 3]"));
        assert_eq!(run("[1, 2, 3].find { |x| x > 1 }"), Value::Int(2));
        assert_eq!(run("[1, 2, 3].any? { |x| x > 2 }"), Value::Bool(true));
        assert_eq!(run("[1, 2, 3].all? { |x| x > 0 }"), Value::Bool(true));
        assert_eq!(run("[1, 2, 3].reduce { |a, b| a + b }"), Value::Int(6));
        assert_eq!(
            run("total = 0\n[1, 2, 3].each { |x| total = total + x }\ntotal"),
            Value::Int(6)
        );
        assert_eq!(run("[3, 1, 2].sort_by { |x| 0 - x }"), run("[3, 2, 1]"));
    }

    #[test]
    fn array_mutation() {
        assert_eq!(run("a = [1]\na.push(2)\na.length()"), Value::Int(2));
        assert_eq!(run("a = [1, 'foo']\na[0] = 'one'\na[0]"), Value::str("one"));
        assert_eq!(run("a = [1, 2]\nb = a\nb.push(3)\na.length()"), Value::Int(3));
        // Block-taking methods iterate over a copy of the receiver, so a
        // block that grows it does not extend the iteration.
        assert_eq!(run("a = [1, 2]\na.each { |x| a.push(x) }\na.length()"), Value::Int(4));
        assert_eq!(run("a = [1, 2]\na.map { |x| a.push(x) }\na.length()"), Value::Int(4));
        assert_eq!(run("h = { a: 1 }\nh.each { |k, v| h[:b] = 2 }\nh.length()"), Value::Int(2));
    }

    #[test]
    fn hash_basics() {
        assert_eq!(run("{ a: 1, b: 2 }[:a]"), Value::Int(1));
        assert_eq!(run("{ a: 1 }[:missing]"), Value::Nil);
        assert_eq!(run("{ a: 1, b: 2 }.keys().length()"), Value::Int(2));
        assert_eq!(run("{ a: 1, b: 2 }.values()"), run("[1, 2]"));
        assert_eq!(run("{ a: 1 }.key?(:a)"), Value::Bool(true));
        assert_eq!(run("{ a: 1 }.merge({ b: 2 })[:b]"), Value::Int(2));
        assert_eq!(run("h = { a: 1 }\nh[:b] = 5\nh[:b]"), Value::Int(5));
        assert_eq!(run("{ a: 1 }.fetch(:a)"), Value::Int(1));
        assert_eq!(run("{ a: 1 }.fetch(:b, 9)"), Value::Int(9));
        assert_eq!(run("{ a: { b: 3 } }.dig(:a, :b)"), Value::Int(3));
        assert_eq!(run("{ a: 1, b: 2 }.map { |k, v| v }"), run("[1, 2]"));
    }

    #[test]
    fn string_basics() {
        assert_eq!(run("'foo' + 'bar'"), Value::str("foobar"));
        assert_eq!(run("'hello'.upcase()"), Value::str("HELLO"));
        assert_eq!(run("'Hello World'.include?('World')"), Value::Bool(true));
        assert_eq!(run("'a,b,c'.split(',').length()"), Value::Int(3));
        assert_eq!(run("'hello'.length()"), Value::Int(5));
        assert_eq!(run("'  x  '.strip()"), Value::str("x"));
        assert_eq!(run("'42'.to_i()"), Value::Int(42));
        assert_eq!(run("'abc'.to_sym()"), Value::Sym("abc".into()));
        assert_eq!(run("'aaa'.gsub('a', 'b')"), Value::str("bbb"));
        assert_eq!(run("'hello'.start_with?('he')"), Value::Bool(true));
        assert_eq!(run("'hello'[1]"), Value::str("e"));
        assert_eq!(run("'hello'[1, 3]"), Value::str("ell"));
    }

    #[test]
    fn numeric_methods() {
        assert_eq!(run("(0 - 5).abs()"), Value::Int(5));
        assert_eq!(run("4.even?()"), Value::Bool(true));
        assert_eq!(run("2 ** 10"), Value::Int(1024));
        assert_eq!(run("7 / 2"), Value::Int(3));
        assert_eq!(run("7.0 / 2"), Value::Float(3.5));
        assert_eq!(run("3.7.floor()"), Value::Int(3));
        assert_eq!(run("total = 0\n3.times { |i| total = total + i }\ntotal"), Value::Int(3));
        assert_eq!(run("1 <=> 2"), Value::Int(-1));
    }

    #[test]
    fn object_protocol() {
        assert_eq!(run("1.is_a?(Integer)"), Value::Bool(true));
        assert_eq!(run("1.is_a?(String)"), Value::Bool(false));
        assert_eq!(run("1.is_a?(Numeric)"), Value::Bool(true));
        assert_eq!(run("nil.nil?()"), Value::Bool(true));
        assert_eq!(run("'x'.nil?()"), Value::Bool(false));
        assert_eq!(run("'x'.class()"), Value::Class("String".into()));
        assert_eq!(run("nil.blank?()"), Value::Bool(true));
        assert_eq!(run("'a'.present?()"), Value::Bool(true));
    }

    #[test]
    fn division_by_zero_raises() {
        let prog = parse_program_strict("1 / 0").unwrap();
        let interp = Interpreter::new(prog);
        assert!(interp.eval_program().is_err());
    }

    /// Every Array, Hash and String method [`dispatch`] knows, with the
    /// receiver literal and a block body that mutates the receiver `r`.
    const SWEEP: [(&str, &str, &str); 3] = [
        (
            "[[1], 2]",
            "r.push(3)",
            "[] at slice []= first last length size count empty? push append pop shift \
             << unshift prepend include? member? index find_index join reverse sort uniq compact \
             flatten + concat - take drop max min sum delete to_a map collect each \
             each_with_index select filter reject find detect any? all? none? reduce inject \
             sort_by group_by",
        ),
        (
            "{ a: 1 }",
            "r[:b] = 2",
            "[] []= store fetch key? has_key? include? member? keys values length size count \
             empty? delete merge merge! update to_a each each_pair map collect select filter \
             any? all? none? dig",
        ),
        (
            "'ab'",
            "r.concat('c')",
            "+ * << concat length size empty? upcase downcase capitalize strip chomp reverse \
             include? start_with? end_with? split sub gsub [] slice to_s to_str to_i to_f \
             to_sym chars == <=> freeze",
        ),
    ];

    #[test]
    fn a_receiver_passed_to_its_own_methods_never_panics() {
        let mut programs = 0;
        let mut panics = Vec::new();
        for (literal, mutate, names) in SWEEP {
            for name in names.split_whitespace() {
                // Operators and indexing have no call syntax, so no block.
                let calls = match name {
                    "[]" => vec!["r[r]".to_string()],
                    "[]=" => vec!["r[r] = r".to_string()],
                    "+" | "-" | "*" | "==" | "<=>" | "<<" => vec![format!("r {name} r")],
                    _ => vec![format!("r.{name}(r)"), format!("r.{name}(r) {{ |x, y| {mutate} }}")],
                };
                for call in calls {
                    programs += 1;
                    let src = format!("r = {literal}\n{call}");
                    let prog = parse_program_strict(&src).expect("parse");
                    let outcome =
                        std::panic::catch_unwind(|| Interpreter::new(prog).eval_program().is_ok());
                    if outcome.is_err() {
                        panics.push(src);
                    }
                }
            }
        }
        assert!(panics.is_empty(), "{} of {programs} programs panicked: {panics:#?}", panics.len());
    }

    #[test]
    fn symbol_and_nil_methods() {
        assert_eq!(run(":abc.to_s()"), Value::str("abc"));
        assert_eq!(run("nil.to_a()"), run("[]"));
        assert_eq!(run("nil.to_s()"), Value::str(""));
    }
}

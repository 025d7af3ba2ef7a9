//! The tree-walking interpreter.  It walks the resolved tree of
//! [`crate::resolve`], never the AST.

use crate::contracts::DynamicCheckHook;
use crate::corelib;
use crate::error::{Control, ErrorKind, EvalResult, RubyError};
use crate::resolve::{Block, Method, Node, NodeKind, ResolvedProgram, Slots, Target};
use crate::value::{Closure, Ivars, Value};
use ruby_syntax::{BinOp, FxHashMap, Program, Span};
use std::cell::{Cell, RefCell};
use std::ops::Deref;
use std::rc::Rc;

/// Default evaluation fuel (one unit per AST node evaluated).
const DEFAULT_FUEL: u64 = 20_000_000;

/// A call frame: local slots, `self`, and the block passed to the current
/// method (for `yield`).
struct Frame {
    /// Local slots, shared with any blocks created in this frame.
    locals: Slots,
    /// The current `self`.
    self_val: Value,
    /// The block passed to the current method, if any.
    block: Option<Rc<Closure>>,
}

impl Frame {
    /// A frame with `slots` unset locals.
    fn new(slots: usize, self_val: Value, block: Option<Rc<Closure>>) -> Self {
        Frame { locals: Rc::new(RefCell::new(vec![None; slots])), self_val, block }
    }

    fn local(&self, slot: usize) -> Option<Value> {
        self.locals.borrow()[slot].clone()
    }

    fn set_local(&self, slot: usize, value: Value) {
        self.locals.borrow_mut()[slot] = Some(value);
    }
}

/// The Ruby-subset interpreter.
pub struct Interpreter {
    program: Rc<ResolvedProgram>,
    globals: RefCell<FxHashMap<Rc<str>, Value>>,
    constants: RefCell<FxHashMap<Rc<str>, Value>>,
    /// Class-level instance variables: class → ivar → value.
    class_ivars: RefCell<FxHashMap<Rc<str>, Ivars>>,
    hook: Option<Rc<dyn DynamicCheckHook>>,
    fuel: Cell<u64>,
    checks_performed: Cell<u64>,
    output: RefCell<Vec<String>>,
}

impl Interpreter {
    /// Creates an interpreter for `program`: resolves it (see
    /// [`ResolvedProgram::new`]) and runs it with
    /// [`Interpreter::with_program`].
    pub fn new(program: Program) -> Self {
        Interpreter::with_program(Rc::new(ResolvedProgram::new(&program)))
    }

    /// Creates an interpreter for an already resolved program, which
    /// several interpreters may share.  Top-level expressions run when
    /// [`Interpreter::eval_program`] is called.
    pub fn with_program(program: Rc<ResolvedProgram>) -> Self {
        Interpreter {
            program,
            globals: RefCell::default(),
            constants: RefCell::default(),
            class_ivars: RefCell::default(),
            hook: None,
            fuel: Cell::new(DEFAULT_FUEL),
            checks_performed: Cell::new(0),
            output: RefCell::new(Vec::new()),
        }
    }

    /// Installs the dynamic-check hook used at rewritten (checked) call
    /// sites.
    pub fn set_hook(&mut self, hook: Rc<dyn DynamicCheckHook>) {
        self.hook = Some(hook);
    }

    /// Overrides the evaluation fuel (number of AST nodes evaluated before
    /// the interpreter reports a timeout).
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel.set(fuel);
    }

    /// Number of dynamic checks executed so far.
    pub fn checks_performed(&self) -> u64 {
        self.checks_performed.get()
    }

    /// Lines printed by `puts` during evaluation.
    pub fn output(&self) -> Vec<String> {
        self.output.borrow().clone()
    }

    /// Evaluates every top-level expression of the program in order.
    ///
    /// # Errors
    ///
    /// Returns the first runtime error (including blame) encountered.
    pub fn eval_program(&self) -> Result<Value, RubyError> {
        let program = &*self.program;
        let frame = Frame::new(program.top_level_slots, Value::new_object("Object"), None);
        let mut last = Value::Nil;
        for e in &program.top_level {
            match self.eval(&frame, e) {
                Ok(v) => last = v,
                Err(Control::Return(v)) => return Ok(v),
                Err(c) => return Err(crate::error::into_error(c)),
            }
        }
        Ok(last)
    }

    // ---- evaluation -----------------------------------------------------

    fn burn(&self, span: Span) -> EvalResult<()> {
        let f = self.fuel.get();
        if f == 0 {
            return Err(Control::error(ErrorKind::Timeout, "evaluation fuel exhausted", span));
        }
        self.fuel.set(f - 1);
        Ok(())
    }

    /// Evaluates a single expression in the given frame.
    fn eval(&self, frame: &Frame, expr: &Node) -> EvalResult {
        self.burn(expr.span)?;
        match &expr.kind {
            NodeKind::Nil | NodeKind::Error => Ok(Value::Nil),
            NodeKind::True => Ok(Value::Bool(true)),
            NodeKind::False => Ok(Value::Bool(false)),
            NodeKind::Int(i) => Ok(Value::Int(*i)),
            NodeKind::Float(f) => Ok(Value::Float(*f)),
            NodeKind::Str(s) => Ok(Value::str(&**s)),
            NodeKind::Sym(s) => Ok(Value::Sym(s.clone())),
            NodeKind::Array(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(frame, item)?);
                }
                Ok(Value::array(out))
            }
            NodeKind::Hash(pairs) => {
                let mut out = Vec::with_capacity(pairs.len());
                for (k, v) in pairs {
                    out.push((self.eval(frame, k)?, self.eval(frame, v)?));
                }
                Ok(Value::hash(out))
            }
            NodeKind::SelfExpr => Ok(frame.self_val.clone()),
            NodeKind::Ident { slot, name } => match slot.and_then(|slot| frame.local(slot)) {
                Some(v) => Ok(v),
                // Not a bound local: a call on `self` that passes the
                // current method's block along.
                None => {
                    self.invoke_method(expr.span, &frame.self_val, name, &[], frame.block.clone())
                }
            },
            NodeKind::IVar(name) => Ok(self.read_ivar(&frame.self_val, name)),
            NodeKind::GVar(name) => {
                Ok(self.globals.borrow().get(name).cloned().unwrap_or(Value::Nil))
            }
            NodeKind::Const(path) => self.read_const(expr.span, path),
            NodeKind::Assign { target, value } => {
                let v = self.eval(frame, value)?;
                self.assign(frame, expr.span, target, v.clone())?;
                Ok(v)
            }
            NodeKind::OpAssign { target, op, value } => {
                let current = self.read_target(frame, expr.span, target)?;
                let new = match &**op {
                    "||" => {
                        if current.truthy() {
                            current
                        } else {
                            self.eval(frame, value)?
                        }
                    }
                    other => {
                        let rhs = self.eval(frame, value)?;
                        self.invoke_method(expr.span, &current, other, &[rhs], None)?
                    }
                };
                self.assign(frame, expr.span, target, new.clone())?;
                Ok(new)
            }
            NodeKind::Call { recv, name, args, block } => {
                // `None` is a call on `self`, which is borrowed, not cloned.
                let recv_val = match recv {
                    Some(r) => Some(self.eval(frame, r)?),
                    None => None,
                };
                let arg_vals = self.eval_args(frame, args)?;
                let closure = block.as_ref().map(|b| self.make_closure(frame, b));
                let checked = self.hook.as_ref().map(|h| h.has_check(expr.span)).unwrap_or(false);
                if checked {
                    self.checks_performed.set(self.checks_performed.get() + 1);
                    let hook = self.hook.as_ref().expect("checked implies hook");
                    let recv = recv_val.as_ref().unwrap_or(&frame.self_val);
                    hook.before_call(expr.span, recv, &arg_vals)
                        .map_err(|msg| Control::error(ErrorKind::Blame, msg, expr.span))?;
                }
                let outcome = match &recv_val {
                    // When there is no explicit receiver and no matching
                    // method, fall back to kernel-level helpers (puts,
                    // raise, assert...).
                    None => self.invoke_self_call(expr.span, frame, name, &arg_vals, closure),
                    Some(recv) => self.invoke_method(expr.span, recv, name, &arg_vals, closure),
                };
                // A `break` in the block literal ends the call the block
                // was passed to, with the break's value as its result.
                let result = match outcome {
                    Ok(v) => v,
                    Err(Control::Break(v)) if block.is_some() => v,
                    Err(other) => return Err(other),
                };
                if checked {
                    let hook = self.hook.as_ref().expect("checked implies hook");
                    hook.after_call(expr.span, &result)
                        .map_err(|msg| Control::error(ErrorKind::Blame, msg, expr.span))?;
                }
                Ok(result)
            }
            NodeKind::BoolOp { op, lhs, rhs } => {
                let l = self.eval(frame, lhs)?;
                match op {
                    BinOp::And => {
                        if l.truthy() {
                            self.eval(frame, rhs)
                        } else {
                            Ok(l)
                        }
                    }
                    BinOp::Or => {
                        if l.truthy() {
                            Ok(l)
                        } else {
                            self.eval(frame, rhs)
                        }
                    }
                }
            }
            NodeKind::Not(inner) => {
                let v = self.eval(frame, inner)?;
                Ok(Value::Bool(!v.truthy()))
            }
            NodeKind::If { arms, else_body } => {
                for (cond, body) in arms {
                    if self.eval(frame, cond)?.truthy() {
                        return self.eval_body(frame, body);
                    }
                }
                self.eval_body(frame, else_body)
            }
            NodeKind::Case { subject, arms, else_body } => {
                let subject = self.eval(frame, subject)?;
                for (cond, body) in arms {
                    let cond = self.eval(frame, cond)?;
                    let matched = match &cond {
                        Value::Class(c) => self.value_is_a(&subject, c),
                        other => other.ruby_eq(&subject),
                    };
                    if matched {
                        return self.eval_body(frame, body);
                    }
                }
                self.eval_body(frame, else_body)
            }
            NodeKind::While { cond, body } => {
                let mut result = Value::Nil;
                while self.eval(frame, cond)?.truthy() {
                    self.burn(expr.span)?;
                    match self.eval_body(frame, body) {
                        Ok(v) => result = v,
                        Err(Control::Break(v)) => return Ok(v),
                        Err(Control::Next(_)) => continue,
                        Err(other) => return Err(other),
                    }
                }
                Ok(result)
            }
            NodeKind::Return(v) => {
                let value = match v {
                    Some(e) => self.eval(frame, e)?,
                    None => Value::Nil,
                };
                Err(Control::Return(value))
            }
            NodeKind::Yield(args) => {
                let arg_vals = self.eval_args(frame, args)?;
                match &frame.block {
                    Some(closure) => self.call_closure(closure, &arg_vals, expr.span),
                    None => {
                        Err(Control::error(ErrorKind::Raised, "no block given (yield)", expr.span))
                    }
                }
            }
            NodeKind::Break => Err(Control::Break(Value::Nil)),
            NodeKind::Next => Err(Control::Next(Value::Nil)),
            NodeKind::Lambda(block) => Ok(Value::Lambda(self.make_closure(frame, block))),
            NodeKind::TypeCast(inner) => self.eval(frame, inner),
        }
    }

    /// Evaluates call or `yield` arguments in order: up to
    /// [`INLINE_ARGS`] into an array on the stack, more into a `Vec`.
    fn eval_args(&self, frame: &Frame, args: &[Node]) -> EvalResult<ArgVals> {
        if args.len() > INLINE_ARGS {
            return args
                .iter()
                .map(|a| self.eval(frame, a))
                .collect::<EvalResult<_>>()
                .map(ArgVals::Heap);
        }
        let mut values = [Value::Nil, Value::Nil, Value::Nil, Value::Nil];
        for (value, a) in values.iter_mut().zip(args) {
            *value = self.eval(frame, a)?;
        }
        Ok(ArgVals::Inline(values, args.len()))
    }

    fn eval_body(&self, frame: &Frame, body: &[Node]) -> EvalResult {
        let mut last = Value::Nil;
        for e in body {
            last = self.eval(frame, e)?;
        }
        Ok(last)
    }

    fn make_closure(&self, frame: &Frame, block: &Rc<Block>) -> Rc<Closure> {
        Rc::new(Closure {
            block: Rc::clone(block),
            locals: frame.locals.clone(),
            self_val: frame.self_val.clone(),
        })
    }

    /// Invokes a block/lambda closure with the given arguments.
    pub(crate) fn call_closure(&self, closure: &Closure, args: &[Value], span: Span) -> EvalResult {
        self.burn(span)?;
        let frame = Frame {
            locals: closure.locals.clone(),
            self_val: closure.self_val.clone(),
            block: None,
        };
        for (i, &slot) in closure.block.params.iter().enumerate() {
            frame.set_local(slot, args.get(i).cloned().unwrap_or(Value::Nil));
        }
        let mut last = Value::Nil;
        for e in &closure.block.body {
            match self.eval(&frame, e) {
                Ok(v) => last = v,
                Err(Control::Next(v)) => return Ok(v),
                Err(other) => return Err(other),
            }
        }
        Ok(last)
    }

    // ---- variables ------------------------------------------------------

    fn read_ivar(&self, self_val: &Value, name: &str) -> Value {
        match self_val {
            Value::Object(o) => o.borrow().ivars.get(name).cloned().unwrap_or(Value::Nil),
            Value::Class(c) => self
                .class_ivars
                .borrow()
                .get(c)
                .and_then(|ivars| ivars.get(name))
                .cloned()
                .unwrap_or(Value::Nil),
            _ => Value::Nil,
        }
    }

    fn write_ivar(&self, self_val: &Value, name: &Rc<str>, value: Value) {
        match self_val {
            Value::Object(o) => {
                o.borrow_mut().ivars.insert(name.clone(), value);
            }
            Value::Class(c) => {
                let mut class_ivars = self.class_ivars.borrow_mut();
                class_ivars.entry(c.clone()).or_default().insert(name.clone(), value);
            }
            _ => {}
        }
    }

    /// Reads the constant `path` (joined with `::`): an assigned constant,
    /// else a user or builtin class.
    fn read_const(&self, span: Span, path: &Rc<str>) -> EvalResult {
        if let Some(v) = self.constants.borrow().get(path) {
            return Ok(v.clone());
        }
        if self.program.table.is_class(path) || BUILTIN_CLASSES.contains(&&**path) {
            return Ok(Value::Class(path.clone()));
        }
        Err(Control::error(ErrorKind::Name, format!("uninitialized constant {path}"), span))
    }

    fn read_target(&self, frame: &Frame, span: Span, target: &Target) -> EvalResult {
        match target {
            Target::Local(slot) => Ok(frame.local(*slot).unwrap_or(Value::Nil)),
            Target::IVar(name) => Ok(self.read_ivar(&frame.self_val, name)),
            Target::GVar(name) => {
                Ok(self.globals.borrow().get(name).cloned().unwrap_or(Value::Nil))
            }
            Target::Const(name) => self.read_const(span, name),
            Target::Index { recv, index } => {
                let r = self.eval(frame, recv)?;
                let i = self.eval(frame, index)?;
                self.invoke_method(span, &r, "[]", &[i], None)
            }
            Target::Attr { recv, reader, .. } => {
                let r = self.eval(frame, recv)?;
                self.invoke_method(span, &r, reader, &[], None)
            }
        }
    }

    fn assign(&self, frame: &Frame, span: Span, target: &Target, value: Value) -> EvalResult<()> {
        match target {
            Target::Local(slot) => frame.set_local(*slot, value),
            Target::IVar(name) => self.write_ivar(&frame.self_val, name, value),
            Target::GVar(name) => {
                self.globals.borrow_mut().insert(name.clone(), value);
            }
            Target::Const(name) => {
                self.constants.borrow_mut().insert(name.clone(), value);
            }
            Target::Index { recv, index } => {
                let r = self.eval(frame, recv)?;
                let i = self.eval(frame, index)?;
                self.invoke_method(span, &r, "[]=", &[i, value], None)?;
            }
            Target::Attr { recv, writer, .. } => {
                let r = self.eval(frame, recv)?;
                self.invoke_method(span, &r, writer, &[value], None)?;
            }
        }
        Ok(())
    }

    // ---- dispatch -------------------------------------------------------

    fn invoke_self_call(
        &self,
        span: Span,
        frame: &Frame,
        name: &str,
        args: &[Value],
        block: Option<Rc<Closure>>,
    ) -> EvalResult {
        // Kernel-level helpers take priority only when the receiver class
        // does not define the method.
        let recv = &frame.self_val;
        match self.try_invoke(span, recv, name, args, &block)? {
            Some(v) => Ok(v),
            None => match self.kernel_call(span, name, args, &block)? {
                Some(v) => Ok(v),
                None => Err(Control::error(
                    ErrorKind::NoMethod,
                    format!("undefined method `{name}` for {}", recv.inspect()),
                    span,
                )),
            },
        }
    }

    /// Invokes `name` on `recv`, raising `NoMethodError` if undefined.
    fn invoke_method(
        &self,
        span: Span,
        recv: &Value,
        name: &str,
        args: &[Value],
        block: Option<Rc<Closure>>,
    ) -> EvalResult {
        match self.try_invoke(span, recv, name, args, &block)? {
            Some(v) => Ok(v),
            None => {
                if let Value::Object(_) | Value::Class(_) = recv {
                    if let Some(v) = self.kernel_call(span, name, args, &block)? {
                        return Ok(v);
                    }
                }
                Err(Control::error(
                    ErrorKind::NoMethod,
                    format!("undefined method `{name}` for {}", recv.inspect()),
                    span,
                ))
            }
        }
    }

    fn try_invoke(
        &self,
        span: Span,
        recv: &Value,
        name: &str,
        args: &[Value],
        block: &Option<Rc<Closure>>,
    ) -> EvalResult<Option<Value>> {
        let table = &self.program.table;
        // `nil` receivers produce blame-like NoMethod errors except for the
        // few methods NilClass actually has (handled in corelib).
        match recv {
            Value::Class(class) => {
                // `new` constructs an instance and runs `initialize`.
                if name == "new" {
                    let obj = Value::new_object(class.clone());
                    if let Some(init) = table.lookup(class, false, "initialize") {
                        self.run_method(init, obj.clone(), args, block.clone(), span)?;
                    }
                    return Ok(Some(obj));
                }
                if let Some(def) = table.lookup(class, true, name) {
                    return Ok(Some(self.run_method(
                        def,
                        recv.clone(),
                        args,
                        block.clone(),
                        span,
                    )?));
                }
                // Generic object methods on the class object itself.
                corelib::dispatch(self, span, recv, name, args, block.as_deref())
            }
            Value::Object(obj) => {
                // Each borrow ends with its statement: the method body may
                // write this object's ivars.
                let method = table.lookup(&obj.borrow().class, false, name);
                if let Some(def) = method {
                    return Ok(Some(self.run_method(
                        def,
                        recv.clone(),
                        args,
                        block.clone(),
                        span,
                    )?));
                }
                let accessor = table.accessor(&obj.borrow().class, name);
                if let Some((ivar, writes)) = accessor {
                    if writes {
                        let value = args.first().cloned().unwrap_or(Value::Nil);
                        self.write_ivar(recv, ivar, value.clone());
                        return Ok(Some(value));
                    }
                    return Ok(Some(self.read_ivar(recv, ivar)));
                }
                corelib::dispatch(self, span, recv, name, args, block.as_deref())
            }
            builtin => {
                // User code may monkey-patch builtin classes; check user
                // definitions first, then the native core library.
                let method =
                    builtin.builtin_class_name().and_then(|c| table.builtin_method(c, name));
                if let Some(def) = method {
                    return Ok(Some(self.run_method(
                        def,
                        recv.clone(),
                        args,
                        block.clone(),
                        span,
                    )?));
                }
                corelib::dispatch(self, span, recv, name, args, block.as_deref())
            }
        }
    }

    fn run_method(
        &self,
        def: &Method,
        self_val: Value,
        args: &[Value],
        block: Option<Rc<Closure>>,
        span: Span,
    ) -> EvalResult {
        if args.len() > def.positional {
            return Err(Control::error(
                ErrorKind::Argument,
                format!(
                    "wrong number of arguments for `{}` (given {}, expected {})",
                    def.name,
                    args.len(),
                    def.positional,
                ),
                span,
            ));
        }
        let frame = Frame::new(def.slots, self_val, block);
        // Bind parameters; a `&blk` parameter binds the passed block.
        let mut arg_iter = args.iter();
        for p in &def.params {
            let value = if p.block {
                frame.block.clone().map_or(Value::Nil, Value::Lambda)
            } else {
                match arg_iter.next() {
                    Some(v) => v.clone(),
                    None => match &p.default {
                        Some(d) => self.eval(&frame, d)?,
                        None => Value::Nil,
                    },
                }
            };
            frame.set_local(p.slot, value);
        }
        match self.eval_body(&frame, &def.body) {
            Ok(v) => Ok(v),
            Err(Control::Return(v)) => Ok(v),
            Err(other) => Err(other),
        }
    }

    fn kernel_call(
        &self,
        span: Span,
        name: &str,
        args: &[Value],
        block: &Option<Rc<Closure>>,
    ) -> EvalResult<Option<Value>> {
        match name {
            "puts" | "p" | "print" => {
                let line = args.iter().map(|a| a.to_display_string()).collect::<Vec<_>>().join("");
                self.output.borrow_mut().push(line);
                Ok(Some(Value::Nil))
            }
            "raise" => {
                let msg = args
                    .first()
                    .map(|a| a.to_display_string())
                    .unwrap_or_else(|| "RuntimeError".to_string());
                Err(Control::error(ErrorKind::Raised, msg, span))
            }
            "assert" => {
                let ok = args.first().map(|a| a.truthy()).unwrap_or(false);
                if ok {
                    Ok(Some(Value::Bool(true)))
                } else {
                    Err(Control::error(ErrorKind::AssertionFailed, "assertion failed", span))
                }
            }
            "assert_equal" => {
                let a = args.first().cloned().unwrap_or(Value::Nil);
                let b = args.get(1).cloned().unwrap_or(Value::Nil);
                if a.ruby_eq(&b) {
                    Ok(Some(Value::Bool(true)))
                } else {
                    Err(Control::error(
                        ErrorKind::AssertionFailed,
                        format!("expected {} but got {}", a.inspect(), b.inspect()),
                        span,
                    ))
                }
            }
            "refute" => {
                let ok = args.first().map(|a| a.truthy()).unwrap_or(false);
                if ok {
                    Err(Control::error(ErrorKind::AssertionFailed, "refute failed", span))
                } else {
                    Ok(Some(Value::Bool(true)))
                }
            }
            "require" | "require_relative" | "attr_accessor" | "attr_reader" | "attr_writer" => {
                Ok(Some(Value::Bool(true)))
            }
            "lambda" | "proc" => match block {
                Some(b) => Ok(Some(Value::Lambda(b.clone()))),
                None => Ok(Some(Value::Nil)),
            },
            "rand" => {
                // Deterministic "random" for reproducible tests.
                let max = args.first().and_then(|a| a.as_int()).unwrap_or(2);
                Ok(Some(Value::Int(if max > 0 { 42 % max } else { 0 })))
            }
            _ => Ok(None),
        }
    }

    /// True if `value` is an instance of `class` (or a subclass).
    pub(crate) fn value_is_a(&self, value: &Value, class: &str) -> bool {
        let pseudo = match value {
            // Boolean pseudo-class.
            Value::Bool(_) => class == "Boolean",
            Value::Int(_) | Value::Float(_) => class == "Numeric",
            _ => false,
        };
        if pseudo || class == "Object" {
            return true;
        }
        let table = &self.program.table;
        match value {
            Value::Object(o) => table.is_a(&o.borrow().class, class),
            builtin => builtin.builtin_class_name().is_some_and(|c| table.is_a(c, class)),
        }
    }
}

/// How many call arguments [`Interpreter::eval_args`] evaluates into an
/// array on the stack; a call with more puts them in a `Vec`.
const INLINE_ARGS: usize = 4;

/// Evaluated call arguments, read as a slice.
enum ArgVals {
    /// The first `.1` values; the rest are `nil` placeholders.
    Inline([Value; INLINE_ARGS], usize),
    Heap(Vec<Value>),
}

impl Deref for ArgVals {
    type Target = [Value];

    fn deref(&self) -> &[Value] {
        match self {
            ArgVals::Inline(values, len) => &values[..*len],
            ArgVals::Heap(values) => values,
        }
    }
}

/// Builtin class names the interpreter recognizes as constants without a
/// user definition.
const BUILTIN_CLASSES: &[&str] = &[
    "Object",
    "String",
    "Integer",
    "Float",
    "Numeric",
    "Symbol",
    "Array",
    "Hash",
    "NilClass",
    "TrueClass",
    "FalseClass",
    "Boolean",
    "Proc",
    "Class",
    "RDL",
    "JSON",
    "Time",
    "ActiveRecord",
    "ActiveRecord::Base",
    "Sequel",
    "Sequel::Model",
    "StandardError",
    "ArgumentError",
    "RuntimeError",
];

#[cfg(test)]
mod tests {
    use super::*;
    use ruby_syntax::parse_program_strict;

    fn run(src: &str) -> Result<Value, RubyError> {
        let prog = parse_program_strict(src).expect("parse");
        let interp = Interpreter::new(prog);
        interp.eval_program()
    }

    fn run_ok(src: &str) -> Value {
        run(src).expect("eval")
    }

    #[test]
    fn evaluates_arithmetic_and_locals() {
        assert_eq!(run_ok("x = 2\ny = x * 3 + 1\ny"), Value::Int(7));
        assert_eq!(run_ok("x = 10.0 / 4\nx"), Value::Float(2.5));
        assert_eq!(run_ok("x = 7 % 3\nx"), Value::Int(1));
    }

    #[test]
    fn evaluates_conditionals_and_booleans() {
        assert_eq!(run_ok("if 1 == 1\n 'yes'\nelse\n 'no'\nend"), Value::str("yes"));
        assert_eq!(run_ok("x = nil\nx = 5 unless false\nx"), Value::Int(5));
        assert_eq!(run_ok("(1 == 2) || 'fallback'"), Value::str("fallback"));
        assert_eq!(run_ok("true && false"), Value::Bool(false));
        assert_eq!(run_ok("!nil"), Value::Bool(true));
    }

    #[test]
    fn evaluates_while_loops() {
        assert_eq!(run_ok("i = 0\nwhile i < 5\n i = i + 1\nend\ni"), Value::Int(5));
        assert_eq!(
            run_ok("i = 0\nwhile true\n i = i + 1\n break if i == 3\nend\ni"),
            Value::Int(3)
        );
    }

    #[test]
    fn defines_and_calls_methods() {
        let v = run_ok("def add(a, b)\n a + b\nend\nadd(2, 3)");
        assert_eq!(v, Value::Int(5));
        let v = run_ok("def greet(name = 'world')\n 'hello ' + name\nend\ngreet()");
        assert_eq!(v, Value::str("hello world"));
        // A default sees the parameters before it.
        assert_eq!(run_ok("def g(a, b = a + 1)\n b\nend\ng(1)"), Value::Int(2));
    }

    #[test]
    fn classes_instances_and_ivars() {
        let src = r#"
class Point
  def initialize(x, y)
    @x = x
    @y = y
  end
  def sum()
    @x + @y
  end
end
p = Point.new(3, 4)
p.sum()
"#;
        assert_eq!(run_ok(src), Value::Int(7));
    }

    #[test]
    fn singleton_methods_and_class_ivars() {
        let src = r#"
class Counter
  def self.bump()
    @count = (@count || 0) + 1
  end
end
Counter.bump()
Counter.bump()
Counter.bump()
"#;
        assert_eq!(run_ok(src), Value::Int(3));
    }

    #[test]
    fn inheritance_dispatch() {
        let src = r#"
class Animal
  def speak()
    'generic'
  end
  def describe()
    speak() + '!'
  end
end
class Dog < Animal
  def speak()
    'woof'
  end
end
Dog.new().describe()
"#;
        assert_eq!(run_ok(src), Value::str("woof!"));
    }

    #[test]
    fn attr_accessors() {
        let src = r#"
class User
  attr_accessor(:name)
end
u = User.new()
u.name = 'alice'
u.name
"#;
        assert_eq!(run_ok(src), Value::str("alice"));
    }

    #[test]
    fn blocks_and_yield() {
        let src = r#"
def twice()
  yield(1) + yield(2)
end
twice() { |x| x * 10 }
"#;
        assert_eq!(run_ok(src), Value::Int(30));
    }

    #[test]
    fn case_expression() {
        let src = "x = 2\ncase x\nwhen 1\n 'one'\nwhen 2\n 'two'\nelse\n 'many'\nend";
        assert_eq!(run_ok(src), Value::str("two"));
        let src = "x = 'str'\ncase x\nwhen String\n 'a string'\nelse\n 'other'\nend";
        assert_eq!(run_ok(src), Value::str("a string"));
    }

    #[test]
    fn errors_are_reported() {
        assert_eq!(run("frobnicate(1)").unwrap_err().kind, ErrorKind::NoMethod);
        assert_eq!(run("UndefinedConst").unwrap_err().kind, ErrorKind::Name);
        assert_eq!(run("raise('boom')").unwrap_err().kind, ErrorKind::Raised);
        assert_eq!(run("assert(1 == 2)").unwrap_err().kind, ErrorKind::AssertionFailed);
        // A local that was never bound falls back to a call on `self`.
        assert_eq!(run("if false; x = 1; end; x").unwrap_err().kind, ErrorKind::NoMethod);
    }

    #[test]
    fn infinite_loops_time_out() {
        let prog = parse_program_strict("while true\n x = 1\nend").unwrap();
        let mut interp = Interpreter::new(prog);
        interp.set_fuel(10_000);
        let err = interp.eval_program().unwrap_err();
        assert_eq!(err.kind, ErrorKind::Timeout);
    }

    #[test]
    fn op_assign_forms() {
        assert_eq!(run_ok("x = 1\nx += 4\nx"), Value::Int(5));
        assert_eq!(run_ok("x = nil\nx ||= 'default'\nx"), Value::str("default"));
        assert_eq!(run_ok("x = 'set'\nx ||= 'default'\nx"), Value::str("set"));
        // The right side runs before `x` is bound, so it calls the method.
        assert_eq!(run_ok("def x()\n 7\nend\nx = x\nx"), Value::Int(7));
    }

    #[test]
    fn globals_and_constants() {
        assert_eq!(run_ok("$counter = 7\n$counter + 1"), Value::Int(8));
        assert_eq!(run_ok("MAX = 10\nMAX * 2"), Value::Int(20));
    }

    #[test]
    fn lambdas_are_values() {
        let src = "double = ->(x) { x * 2 }\ndouble.call(21)";
        assert_eq!(run_ok(src), Value::Int(42));
        // A lambda sees a later write to a local it captured.
        let src = "n = 1\nadd = ->(x) { x + n }\nn = 10\nadd.call(1)";
        assert_eq!(run_ok(src), Value::Int(11));
    }

    #[test]
    fn puts_is_captured() {
        let prog = parse_program_strict("puts('hello')\nputs(42)").unwrap();
        let interp = Interpreter::new(prog);
        interp.eval_program().unwrap();
        assert_eq!(interp.output(), vec!["hello".to_string(), "42".to_string()]);
    }

    #[test]
    fn self_referential_containers_give_a_value_or_a_ruby_error() {
        let a = "a = [1]\na.push(a)\n";
        let cases = [
            (format!("{a}a.inspect()"), Ok(Value::str("[1, [...]]"))),
            (format!("{a}b = [1]\nb.push(b)\na == b"), Ok(Value::Bool(true))),
            (format!("{a}a.flatten()"), Err(ErrorKind::Argument)),
            ("h = {}\nh[:a] = h\nh.inspect()".to_string(), Ok(Value::str("{:a => {...}}"))),
        ];
        for (src, expected) in cases {
            assert_eq!(run(&src).map_err(|e| e.kind), expected, "{src}");
        }
        let err = run(&format!("{a}a.flatten()")).unwrap_err();
        assert_eq!(err.message, "tried to flatten recursive array");
    }

    #[test]
    fn shovel_appends_and_shifts() {
        assert_eq!(run_ok("xs = [1]\nxs << 2 << 3\nxs"), run_ok("[1, 2, 3]"));
        assert_eq!(run_ok("s = 'a'\ns << 'b'\ns"), Value::str("ab"));
        assert_eq!(run_ok("1 << 3"), Value::Int(8));
        assert_eq!(run_ok("-8 << -1"), Value::Int(-4));
        assert_eq!(run_ok("1 << 2 + 1"), Value::Int(8));
        assert_eq!(run("1 << 63").unwrap_err().kind, ErrorKind::Raised);
        assert_eq!(run("1.5 << 1").unwrap_err().kind, ErrorKind::NoMethod);
        let src = "class Log\n def <<(line)\n line * 2\n end\nend\nLog.new() << 4";
        assert_eq!(run_ok(src), Value::Int(8));
    }

    #[test]
    fn dup_and_clone_copy_and_equal_tests_identity() {
        let cases = [
            ("a = [1]\nb = a.dup\nb.push(2)\na.length", Value::Int(1)),
            ("s = 'x'\nt = s.clone\nt << 'y'\ns", Value::str("x")),
            ("h = {a: 1}\ng = h.dup\ng[:b] = 2\nh.length", Value::Int(1)),
            ("[1].equal?([1])", Value::Bool(false)),
            ("'x'.equal?('x')", Value::Bool(false)),
            ("a = [1]\na.equal?(a)", Value::Bool(true)),
        ];
        for (src, want) in cases {
            assert_eq!(run_ok(src), want, "{src}");
        }
    }

    #[test]
    fn user_methods_on_builtin_classes_win_over_corelib() {
        let src = "class Integer\n def twice()\n self * 2\n end\nend\n3.twice()";
        assert_eq!(run_ok(src), Value::Int(6));
        let src = "class Integer\n def to_s()\n 'mine'\n end\nend\n3.to_s()";
        assert_eq!(run_ok(src), Value::str("mine"));
    }

    #[test]
    fn builtin_receivers_see_only_their_own_class() {
        let src = "def helper()\n 1\nend\n3.helper()";
        assert_eq!(run(src).unwrap_err().kind, ErrorKind::NoMethod);
        let src = "class Numeric\n def twice()\n self * 2\n end\nend\n3.twice()";
        assert_eq!(run(src).unwrap_err().kind, ErrorKind::NoMethod);
    }

    #[test]
    fn singleton_and_instance_methods_of_one_name_stay_apart() {
        let src = r#"
class K
  def self.f()
    'class'
  end
  def f()
    'instance'
  end
end
[K.f(), K.new().f()]
"#;
        assert_eq!(run_ok(src), Value::array(vec![Value::str("class"), Value::str("instance")]));
    }

    #[test]
    fn inherited_attr_reader_reads_but_does_not_write() {
        let classes = r#"
class A
  attr_reader(:x)
  def initialize()
    @x = 5
  end
end
class B < A
end
b = B.new()
"#;
        assert_eq!(run_ok(&format!("{classes}b.x")), Value::Int(5));
        assert_eq!(run(&format!("{classes}b.x = 6")).unwrap_err().kind, ErrorKind::NoMethod);
    }

    #[test]
    fn is_a_follows_superclasses_and_the_numeric_tower() {
        let src = "class A\nend\nclass B < A\nend\nclass C < B\nend\nC.new().is_a?(A)";
        assert_eq!(run_ok(src), Value::Bool(true));
        assert_eq!(run_ok("[3.is_a?(Numeric), 3.5.is_a?(Numeric)]"), run_ok("[true, true]"));
        let src = "class A\nend\nA.new().is_a?(Numeric)";
        assert_eq!(run_ok(src), Value::Bool(false));
    }

    #[test]
    fn block_parameters_bind_the_passed_block_or_nil() {
        let def = "def f(a, &blk)\n blk.call(a)\nend\n";
        assert_eq!(run_ok(&format!("{def}f(1) {{ |x| x + 1 }}")), Value::Int(2));
        assert_eq!(run_ok("def g(&blk)\n blk\nend\ng()"), Value::Nil);
    }

    #[test]
    fn arity_errors_do_not_count_the_block_parameter() {
        let err = run("def f(a, &blk)\n a\nend\nf(1, 2)").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Argument);
        assert!(err.message.contains("(given 2, expected 1)"), "{}", err.message);
    }

    #[test]
    fn lambdas_from_one_literal_keep_separate_captures() {
        let src = "def make(n)\n ->(x) { x + n }\nend\n[make(1).call(1), make(10).call(1)]";
        assert_eq!(run_ok(src), Value::array(vec![Value::Int(2), Value::Int(11)]));
    }

    #[test]
    fn blocks_write_their_defining_frame_locals() {
        assert_eq!(run_ok("sum = 0\n[1, 2, 3].each { |x| sum = sum + x }\nsum"), Value::Int(6));
        // Block parameters and locals first bound in a block stay visible
        // in the defining scope after the block returns.
        assert_eq!(run_ok("[1].each { |y| z = y }\n[y, z]"), run_ok("[1, 1]"));
    }

    #[test]
    fn nested_blocks_and_proc_arity_read_the_shared_block() {
        let src = "[1, 2].map { |x| [10, 20].map { |y| x + y } }";
        assert_eq!(run_ok(src), run_ok("[[11, 21], [12, 22]]"));
        assert_eq!(run_ok("->(a, b) { a }.arity()"), Value::Int(2));
    }

    #[test]
    fn break_ends_the_call_its_block_was_passed_to() {
        let yields = "def f()\n yield(1)\n 99\nend\n";
        let cases = [
            ("[1, 2, 3].map { |x| break }".to_string(), Value::Nil),
            ("3.times { |i| break }".to_string(), Value::Nil),
            ("{ a: 1 }.each { |k, v| break }".to_string(), Value::Nil),
            (format!("{yields}f() {{ |x| break }}"), Value::Nil),
            ("n = 0\n[1, 2, 3].each { |x| n = x; break if x == 2 }\nn".to_string(), Value::Int(2)),
            // The break ends the `map`, not the loop around it.
            (
                "i = 0\nwhile i < 3\n i = i + 1\n [1].map { |x| break }\nend\ni".to_string(),
                Value::Int(3),
            ),
        ];
        for (src, expected) in cases {
            assert_eq!(run(&src).unwrap_or_else(|e| panic!("{src}: {e}")), expected, "{src}");
        }
    }

    #[test]
    fn a_checked_call_ended_by_break_checks_the_break_value() {
        struct Record(RefCell<Vec<Value>>);
        impl DynamicCheckHook for Record {
            fn has_check(&self, _site: Span) -> bool {
                true
            }
            fn before_call(
                &self,
                _site: Span,
                _recv: &Value,
                _args: &[Value],
            ) -> Result<(), String> {
                Ok(())
            }
            fn after_call(&self, _site: Span, ret: &Value) -> Result<(), String> {
                self.0.borrow_mut().push(ret.clone());
                Ok(())
            }
        }
        let hook = Rc::new(Record(RefCell::new(Vec::new())));
        let mut interp =
            Interpreter::new(parse_program_strict("[1, 2].map { |x| break }").unwrap());
        interp.set_hook(hook.clone());
        assert_eq!(interp.eval_program().unwrap(), Value::Nil);
        assert_eq!(*hook.0.borrow(), vec![Value::Nil]);
    }

    #[test]
    fn superclass_cycles_end_the_ancestor_walk() {
        let cycle = "class A < B\nend\nclass B < A\nend\n";
        assert_eq!(
            run(&format!("{cycle}A.new().missing()")).unwrap_err().kind,
            ErrorKind::NoMethod
        );
        assert_eq!(run_ok(&format!("{cycle}A.new().is_a?(String)")), Value::Bool(false));
    }
}

//! The resolve step: a [`Program`] turned, once, into the tree the
//! interpreter evaluates.
//!
//! Resolving does three things the interpreter would otherwise do on every
//! evaluation:
//!
//! * **Locals become slots.**  Each scope (a method body, or the top level)
//!   numbers every name that a parameter, a block parameter or a local
//!   assignment anywhere in it binds; blocks and lambdas share their
//!   defining scope's slots.  A frame holds one slot per name, and an
//!   identifier that names a slot reads it.  A slot that is still unset at
//!   run time falls back to a call on `self`, as an identifier that names
//!   no local does.
//! * **Names become handles.**  Symbol literals, instance-variable names,
//!   global names and constant paths (pre-joined with `::`) are `Rc<str>`
//!   handles built here, so evaluating one clones a pointer.
//! * **Definitions move into a method table.**  Per-class instance and
//!   singleton method maps and `attr_*` declarations; see
//!   [`MethodTable::find_ancestor`] for the dispatch order.
//!
//! The tree keeps one node per AST node, so fuel (one unit per node
//! evaluated) is unchanged by resolving.

use crate::value::Value;
use ruby_syntax::{self as ast, BinOp, ExprKind, FxHashMap, Item, LValue, Span};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// A frame's local slots, shared with the blocks created in it.  `None` is
/// a local that has not been bound yet.
pub(crate) type Slots = Rc<RefCell<Vec<Option<Value>>>>;

/// A resolved expression and its source span.
#[derive(Debug)]
pub(crate) struct Node {
    pub(crate) kind: NodeKind,
    pub(crate) span: Span,
}

/// A resolved expression.  Variants mirror [`ExprKind`]; identifiers,
/// names and assignment targets are resolved.
#[derive(Debug)]
pub(crate) enum NodeKind {
    Nil,
    True,
    False,
    Int(i64),
    Float(f64),
    Str(Box<str>),
    Sym(Rc<str>),
    Array(Vec<Node>),
    Hash(Vec<(Node, Node)>),
    SelfExpr,
    /// An identifier: the local in `slot` once it is bound, else a call on
    /// `self` named `name`.  `slot` is `None` when nothing in the scope
    /// binds the name.
    Ident {
        slot: Option<usize>,
        name: Box<str>,
    },
    IVar(Rc<str>),
    GVar(Rc<str>),
    /// A constant read; the path is joined with `::`.
    Const(Rc<str>),
    Assign {
        target: Target,
        value: Box<Node>,
    },
    OpAssign {
        target: Target,
        op: Box<str>,
        value: Box<Node>,
    },
    Call {
        recv: Option<Box<Node>>,
        name: Box<str>,
        args: Vec<Node>,
        block: Option<Rc<Block>>,
    },
    BoolOp {
        op: BinOp,
        lhs: Box<Node>,
        rhs: Box<Node>,
    },
    Not(Box<Node>),
    If {
        arms: Vec<(Node, Vec<Node>)>,
        else_body: Vec<Node>,
    },
    Case {
        subject: Box<Node>,
        arms: Vec<(Node, Vec<Node>)>,
        else_body: Vec<Node>,
    },
    While {
        cond: Box<Node>,
        body: Vec<Node>,
    },
    Return(Option<Box<Node>>),
    Yield(Vec<Node>),
    Break,
    Next,
    Lambda(Rc<Block>),
    TypeCast(Box<Node>),
    /// The parser's placeholder for source that failed to parse; `nil`.
    Error,
}

/// A resolved assignment target.
#[derive(Debug)]
pub(crate) enum Target {
    Local(usize),
    IVar(Rc<str>),
    GVar(Rc<str>),
    Const(Rc<str>),
    Index {
        recv: Box<Node>,
        index: Box<Node>,
    },
    /// `recv.name = v`: `reader` is `name`, `writer` is `name=`.
    Attr {
        recv: Box<Node>,
        reader: Box<str>,
        writer: Box<str>,
    },
}

/// A resolved block or lambda literal: its parameters' slots in the
/// defining scope, and its body.
#[derive(Debug)]
pub(crate) struct Block {
    pub(crate) params: Vec<usize>,
    pub(crate) body: Vec<Node>,
}

/// A resolved method definition.
#[derive(Debug)]
pub(crate) struct Method {
    pub(crate) name: Box<str>,
    pub(crate) params: Vec<Param>,
    /// Parameters that take a positional argument (all but `&blk`).
    pub(crate) positional: usize,
    pub(crate) body: Vec<Node>,
    /// Slots a frame of this method needs.
    pub(crate) slots: usize,
}

/// A resolved formal parameter.
#[derive(Debug)]
pub(crate) struct Param {
    pub(crate) slot: usize,
    pub(crate) default: Option<Node>,
    /// A `&blk` parameter, bound to the passed block.
    pub(crate) block: bool,
}

/// How attr accessor helpers behave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessorKind {
    Reader,
    Writer,
    Both,
}

/// Superclass steps a dispatch walk follows before it stops, so a
/// superclass cycle ends the walk instead of hanging it.
const MAX_SUPERCLASS_STEPS: usize = 64;

/// What user code defines on one class: a declared (or reopened) class, or
/// `Object` as the owner of top-level methods.
#[derive(Default)]
struct ClassEntry {
    /// The superclass (`Object` when omitted); `None` if no `class` item
    /// declares this name.
    superclass: Option<String>,
    /// Instance methods by name.
    instance: FxHashMap<String, Method>,
    /// Singleton (`def self.`) methods by name.
    singleton: FxHashMap<String, Method>,
    /// `attr_*` declarations by attribute, with the attribute's ivar handle.
    accessors: FxHashMap<String, (AccessorKind, Rc<str>)>,
}

/// The user-defined classes, methods and accessors of a program.  The table
/// never changes after it is built, so lookups borrow from it and allocate
/// nothing.
#[derive(Default)]
pub(crate) struct MethodTable {
    /// Per-class definitions.
    classes: FxHashMap<String, ClassEntry>,
}

impl MethodTable {
    fn add(&mut self, owner: &str, item: &Item) {
        match item {
            Item::Method(m) => {
                let method = resolve_method(m);
                let entry = self.classes.entry(owner.to_string()).or_default();
                let methods = if m.singleton { &mut entry.singleton } else { &mut entry.instance };
                methods.insert(m.name.clone(), method);
            }
            Item::Class(c) => {
                self.classes.entry(c.name.to_string()).or_default().superclass =
                    Some(c.superclass.as_deref().unwrap_or("Object").to_string());
                for member in &c.body {
                    match member {
                        Item::Expr(e) => self.add_accessors(&c.name, e),
                        member => self.add(&c.name, member),
                    }
                }
            }
            Item::Expr(_) => {}
        }
    }

    /// Records an `attr_accessor` / `attr_reader` / `attr_writer` call in
    /// `class`'s body; other class-body expressions never run.
    fn add_accessors(&mut self, class: &str, expr: &ast::Expr) {
        let ExprKind::Call { recv: None, name, args, .. } = &expr.kind else { return };
        let kind = match name.as_str() {
            "attr_accessor" => AccessorKind::Both,
            "attr_reader" => AccessorKind::Reader,
            "attr_writer" => AccessorKind::Writer,
            _ => return,
        };
        for arg in args {
            if let ExprKind::Sym(attr) = &arg.kind {
                let entry = self.classes.entry(class.to_string()).or_default();
                entry.accessors.insert(attr.to_string(), (kind, Rc::from(attr.as_str())));
            }
        }
    }

    /// Calls `visit` on each ancestor of `class` in dispatch order and
    /// returns its first `Some`.  The order is the class, its superclass
    /// chain (at most [`MAX_SUPERCLASS_STEPS`] steps), `Numeric` for
    /// `Integer` and `Float`, then `Object` unless the chain reached it.
    /// `visit` also gets the ancestor's entry, if user code defines one.
    fn find_ancestor<'a, T>(
        &'a self,
        class: &str,
        mut visit: impl FnMut(&str, Option<&'a ClassEntry>) -> Option<T>,
    ) -> Option<T> {
        let mut name = class;
        let mut entry = self.classes.get(class);
        let mut saw_object = false;
        for _ in 0..=MAX_SUPERCLASS_STEPS {
            saw_object |= name == "Object";
            if let Some(found) = visit(name, entry) {
                return Some(found);
            }
            let Some(superclass) = entry.and_then(|e| e.superclass.as_deref()) else { break };
            name = superclass;
            entry = self.classes.get(superclass);
        }
        if matches!(class, "Integer" | "Float") {
            if let Some(found) = visit("Numeric", self.classes.get("Numeric")) {
                return Some(found);
            }
        }
        if saw_object {
            return None;
        }
        visit("Object", self.classes.get("Object"))
    }

    /// The method `name` that a `class` receiver (or, with `singleton`, the
    /// class object itself) dispatches to.
    pub(crate) fn lookup(&self, class: &str, singleton: bool, name: &str) -> Option<&Method> {
        self.find_ancestor(class, |_, entry| {
            let entry = entry?;
            if singleton { &entry.singleton } else { &entry.instance }.get(name)
        })
    }

    /// The method `name` defined on the builtin `class` itself.  Builtin
    /// receivers see only their own class: a top-level `def` or a
    /// `class Numeric` method does not reach `3`.
    pub(crate) fn builtin_method(&self, class: &str, name: &str) -> Option<&Method> {
        self.classes.get(class)?.instance.get(name)
    }

    /// If `name` is a reader (or, ending in `=`, a writer) that `class` or
    /// an ancestor declares, the attribute's ivar handle and whether `name`
    /// writes it.
    pub(crate) fn accessor(&self, class: &str, name: &str) -> Option<(&Rc<str>, bool)> {
        let (attr, writes) = match name.strip_suffix('=') {
            Some(attr) => (attr, true),
            None => (name, false),
        };
        let ivar = self.find_ancestor(class, |_, entry| {
            let (kind, ivar) = entry?.accessors.get(attr)?;
            let allowed = match kind {
                AccessorKind::Both => true,
                AccessorKind::Reader => !writes,
                AccessorKind::Writer => writes,
            };
            allowed.then_some(ivar)
        })?;
        Some((ivar, writes))
    }

    /// True if `ancestor` is `class` or one of its ancestors.
    pub(crate) fn is_a(&self, class: &str, ancestor: &str) -> bool {
        self.find_ancestor(class, |name, _| (name == ancestor).then_some(())).is_some()
    }

    /// True if a `class` item declares `name`.
    pub(crate) fn is_class(&self, name: &str) -> bool {
        self.classes.get(name).is_some_and(|e| e.superclass.is_some())
    }
}

/// A program resolved for evaluation: its method table and its top-level
/// expressions.  Build it once and share it, by `Rc`, between the
/// interpreters that run the same program (see
/// [`crate::Interpreter::with_program`]); each interpreter keeps its own
/// globals, constants and objects.
pub struct ResolvedProgram {
    pub(crate) table: MethodTable,
    pub(crate) top_level: Vec<Node>,
    /// Slots the top-level frame needs.
    pub(crate) top_level_slots: usize,
}

impl ResolvedProgram {
    /// Resolves `program`: class and method definitions go into the method
    /// table, and the top-level expressions are kept, in order, to run when
    /// [`crate::Interpreter::eval_program`] is called.
    pub fn new(program: &ast::Program) -> Self {
        let mut table = MethodTable::default();
        let mut top_level = Vec::new();
        for item in &program.items {
            match item {
                Item::Expr(e) => top_level.push(e),
                member => table.add("Object", member),
            }
        }
        let mut scope = Scope::default();
        for e in &top_level {
            scope.bind_in(e);
        }
        let top_level = top_level.into_iter().map(|e| scope.resolve(e)).collect();
        ResolvedProgram { table, top_level, top_level_slots: scope.slots.len() }
    }
}

fn resolve_method(def: &ast::MethodDef) -> Method {
    let mut scope = Scope::default();
    for p in &def.params {
        scope.bind(&p.name);
    }
    for p in &def.params {
        if let Some(d) = &p.default {
            scope.bind_in(d);
        }
    }
    scope.bind_body(&def.body);
    let params = def
        .params
        .iter()
        .map(|p| Param {
            slot: scope.slot(&p.name),
            default: p.default.as_ref().map(|d| scope.resolve(d)),
            block: p.block,
        })
        .collect();
    let body = scope.resolve_body(&def.body);
    Method {
        name: def.name.as_str().into(),
        params,
        positional: def.params.iter().filter(|p| !p.block).count(),
        body,
        slots: scope.slots.len(),
    }
}

/// One scope's local names, borrowed from the AST, and their slots.
#[derive(Default)]
struct Scope<'a> {
    slots: HashMap<&'a str, usize>,
}

impl<'a> Scope<'a> {
    fn bind(&mut self, name: &'a str) {
        let next = self.slots.len();
        self.slots.entry(name).or_insert(next);
    }

    fn slot(&self, name: &str) -> usize {
        self.slots[name]
    }

    fn bind_body(&mut self, body: &'a [ast::Expr]) {
        for e in body {
            self.bind_in(e);
        }
    }

    fn bind_block(&mut self, block: &'a ast::Block) {
        for p in &block.params {
            self.bind(p);
        }
        self.bind_body(&block.body);
    }

    /// Binds every name that `expr` binds, in blocks and lambdas too.
    fn bind_in(&mut self, expr: &'a ast::Expr) {
        match &expr.kind {
            ExprKind::Array(items) | ExprKind::Yield(items) => self.bind_body(items),
            ExprKind::Hash(pairs) => {
                for (k, v) in pairs {
                    self.bind_in(k);
                    self.bind_in(v);
                }
            }
            ExprKind::Assign { target, value } | ExprKind::OpAssign { target, value, .. } => {
                match target {
                    LValue::Local(name) => self.bind(name),
                    LValue::Index { recv, index } => {
                        self.bind_in(recv);
                        self.bind_in(index);
                    }
                    LValue::Attr { recv, .. } => self.bind_in(recv),
                    LValue::IVar(_) | LValue::GVar(_) | LValue::Const(_) => {}
                }
                self.bind_in(value);
            }
            ExprKind::Call { recv, args, block, .. } => {
                if let Some(r) = recv {
                    self.bind_in(r);
                }
                self.bind_body(args);
                if let Some(b) = block {
                    self.bind_block(b);
                }
            }
            ExprKind::BoolOp { lhs, rhs, .. } => {
                self.bind_in(lhs);
                self.bind_in(rhs);
            }
            ExprKind::Not(inner) | ExprKind::TypeCast { expr: inner, .. } => self.bind_in(inner),
            ExprKind::Return(inner) => {
                if let Some(e) = inner {
                    self.bind_in(e);
                }
            }
            ExprKind::If { arms, else_body } => {
                for arm in arms {
                    self.bind_in(&arm.cond);
                    self.bind_body(&arm.body);
                }
                self.bind_body(else_body);
            }
            ExprKind::Case { subject, arms, else_body } => {
                self.bind_in(subject);
                for arm in arms {
                    self.bind_in(&arm.cond);
                    self.bind_body(&arm.body);
                }
                self.bind_body(else_body);
            }
            ExprKind::While { cond, body } => {
                self.bind_in(cond);
                self.bind_body(body);
            }
            ExprKind::Lambda(block) => self.bind_block(block),
            ExprKind::Nil
            | ExprKind::True
            | ExprKind::False
            | ExprKind::Int(_)
            | ExprKind::Float(_)
            | ExprKind::Str(_)
            | ExprKind::Sym(_)
            | ExprKind::SelfExpr
            | ExprKind::Ident(_)
            | ExprKind::IVar(_)
            | ExprKind::GVar(_)
            | ExprKind::Const(_)
            | ExprKind::Break
            | ExprKind::Next
            | ExprKind::Error => {}
        }
    }

    fn resolve_body(&self, body: &[ast::Expr]) -> Vec<Node> {
        body.iter().map(|e| self.resolve(e)).collect()
    }

    fn resolve_boxed(&self, expr: &ast::Expr) -> Box<Node> {
        Box::new(self.resolve(expr))
    }

    fn resolve_block(&self, block: &ast::Block) -> Rc<Block> {
        Rc::new(Block {
            params: block.params.iter().map(|p| self.slot(p)).collect(),
            body: self.resolve_body(&block.body),
        })
    }

    fn resolve_arms(&self, arms: &[ast::CondArm]) -> Vec<(Node, Vec<Node>)> {
        arms.iter().map(|arm| (self.resolve(&arm.cond), self.resolve_body(&arm.body))).collect()
    }

    fn resolve_target(&self, target: &LValue) -> Target {
        match target {
            LValue::Local(name) => Target::Local(self.slot(name)),
            LValue::IVar(name) => Target::IVar(name.as_str().into()),
            LValue::GVar(name) => Target::GVar(name.as_str().into()),
            LValue::Const(name) => Target::Const(name.as_str().into()),
            LValue::Index { recv, index } => {
                Target::Index { recv: self.resolve_boxed(recv), index: self.resolve_boxed(index) }
            }
            LValue::Attr { recv, name } => Target::Attr {
                recv: self.resolve_boxed(recv),
                reader: name.as_str().into(),
                writer: format!("{name}=").into(),
            },
        }
    }

    /// Resolves `expr` against this scope, whose names [`Scope::bind_in`]
    /// has already bound.
    fn resolve(&self, expr: &ast::Expr) -> Node {
        let kind = match &expr.kind {
            ExprKind::Nil => NodeKind::Nil,
            ExprKind::True => NodeKind::True,
            ExprKind::False => NodeKind::False,
            ExprKind::Int(i) => NodeKind::Int(*i),
            ExprKind::Float(f) => NodeKind::Float(*f),
            ExprKind::Str(s) => NodeKind::Str(s.as_str().into()),
            ExprKind::Sym(s) => NodeKind::Sym(s.as_str().into()),
            ExprKind::Array(items) => NodeKind::Array(self.resolve_body(items)),
            ExprKind::Hash(pairs) => NodeKind::Hash(
                pairs.iter().map(|(k, v)| (self.resolve(k), self.resolve(v))).collect(),
            ),
            ExprKind::SelfExpr => NodeKind::SelfExpr,
            ExprKind::Ident(name) => NodeKind::Ident {
                slot: self.slots.get(name.as_str()).copied(),
                name: name.as_str().into(),
            },
            ExprKind::IVar(name) => NodeKind::IVar(name.as_str().into()),
            ExprKind::GVar(name) => NodeKind::GVar(name.as_str().into()),
            ExprKind::Const(path) => NodeKind::Const(path.join("::").into()),
            ExprKind::Assign { target, value } => NodeKind::Assign {
                target: self.resolve_target(target),
                value: self.resolve_boxed(value),
            },
            ExprKind::OpAssign { target, op, value } => NodeKind::OpAssign {
                target: self.resolve_target(target),
                op: op.as_str().into(),
                value: self.resolve_boxed(value),
            },
            ExprKind::Call { recv, name, args, block } => NodeKind::Call {
                recv: recv.as_ref().map(|r| self.resolve_boxed(r)),
                name: name.as_str().into(),
                args: self.resolve_body(args),
                block: block.as_ref().map(|b| self.resolve_block(b)),
            },
            ExprKind::BoolOp { op, lhs, rhs } => NodeKind::BoolOp {
                op: *op,
                lhs: self.resolve_boxed(lhs),
                rhs: self.resolve_boxed(rhs),
            },
            ExprKind::Not(inner) => NodeKind::Not(self.resolve_boxed(inner)),
            ExprKind::If { arms, else_body } => NodeKind::If {
                arms: self.resolve_arms(arms),
                else_body: self.resolve_body(else_body),
            },
            ExprKind::Case { subject, arms, else_body } => NodeKind::Case {
                subject: self.resolve_boxed(subject),
                arms: self.resolve_arms(arms),
                else_body: self.resolve_body(else_body),
            },
            ExprKind::While { cond, body } => {
                NodeKind::While { cond: self.resolve_boxed(cond), body: self.resolve_body(body) }
            }
            ExprKind::Return(inner) => {
                NodeKind::Return(inner.as_ref().map(|e| self.resolve_boxed(e)))
            }
            ExprKind::Yield(args) => NodeKind::Yield(self.resolve_body(args)),
            ExprKind::Break => NodeKind::Break,
            ExprKind::Next => NodeKind::Next,
            ExprKind::Lambda(block) => NodeKind::Lambda(self.resolve_block(block)),
            ExprKind::TypeCast { expr: inner, .. } => NodeKind::TypeCast(self.resolve_boxed(inner)),
            ExprKind::Error => NodeKind::Error,
        };
        Node { kind, span: expr.span }
    }
}

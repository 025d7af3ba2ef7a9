//! Abstract syntax tree for the Ruby subset.
//!
//! The subset covers the language features exercised by CompRDL's examples
//! and evaluation: literals, symbols, arrays and hashes, local / instance /
//! global variables, constants, method definitions (instance and `self.`
//! class methods), classes, conditionals, `while` loops, boolean operators,
//! method calls with optional blocks, assignments (including index and
//! attribute assignment) and `return`.
//!
//! Every name in the tree except [`MethodDef::name`] is a [`Name`] shared
//! by all its occurrences in one parsed file (see [`crate::name`]).

use crate::index::ProgramIndex;
use crate::name::Name;
use crate::span::Span;
use std::sync::Arc;

/// A whole source file: a sequence of top-level items.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

impl Program {
    /// An empty program.
    pub fn empty() -> Self {
        Program { items: Vec::new() }
    }

    /// Every class definition (nested ones included, in source order); a
    /// view of [`ProgramIndex::classes`].
    pub fn classes(&self) -> Vec<&ClassDef> {
        ProgramIndex::new(self).classes().to_vec()
    }

    /// Every method definition along with the name of its enclosing class
    /// (`"Object"` for top-level methods), in source order; a view of
    /// [`ProgramIndex::methods`] with owned owners.
    pub fn methods(&self) -> Vec<(String, &MethodDef)> {
        ProgramIndex::new(self).methods().iter().map(|&(owner, m)| (owner.to_string(), m)).collect()
    }

    /// Appends `other`'s items after this program's, producing the combined
    /// program of a multi-file source (e.g. an app followed by its test
    /// suite).  Parse each file with
    /// [`crate::parser::parse_program_in_file`] and a distinct file id first,
    /// or byte-offset spans from different files become indistinguishable.
    #[must_use]
    pub fn merge(mut self, other: Program) -> Program {
        self.items.extend(other.items);
        self
    }
}

/// A top-level or class-body item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A class definition.
    Class(ClassDef),
    /// A method definition.
    Method(MethodDef),
    /// A bare expression (e.g. an annotation call or a test assertion).
    Expr(Expr),
}

/// A class definition `class Name < Super ... end`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDef {
    /// The class name.
    pub name: Name,
    /// The optional superclass path (joined with `::`).
    pub superclass: Option<Name>,
    /// The class body.
    pub body: Vec<Item>,
    /// Source span of the `class` keyword through `end`.
    pub span: Span,
}

/// A method definition `def name(params) ... end`.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDef {
    /// The method name (may end in `?`, `!` or `=`).  Unlike the tree's
    /// other names it is an owned `String`: callers collect it as one.
    pub name: String,
    /// Whether this is a class-level (`def self.name`) method.
    pub singleton: bool,
    /// Formal parameters.
    pub params: Vec<Param>,
    /// The method body.
    pub body: Vec<Expr>,
    /// Source span of the definition.
    pub span: Span,
    /// True when recovery poisoned this method: its body failed to parse,
    /// the parser emitted one `PARSE` diagnostic for it and resynchronized
    /// at the matching `end`, and [`MethodDef::body`] holds only a single
    /// [`ExprKind::Error`] placeholder.  Consumers (checker, lints, effect
    /// summaries) skip poisoned methods; the semantic hash covers this flag
    /// so a poisoned method can never replay a stale cached verdict.
    pub poisoned: bool,
}

impl MethodDef {
    /// Number of required parameters (those without defaults).
    pub fn required_arity(&self) -> usize {
        self.params.iter().filter(|p| p.default.is_none() && !p.block).count()
    }
}

/// A formal parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: Name,
    /// Optional default value expression.
    pub default: Option<Expr>,
    /// Whether this is a block parameter (`&blk`).
    pub block: bool,
}

impl Param {
    /// A plain required parameter.
    pub fn required(name: impl Into<Name>) -> Self {
        Param { name: name.into(), default: None, block: false }
    }
}

/// An assignment target.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A local variable.
    Local(Name),
    /// An instance variable `@x`.
    IVar(Name),
    /// A global variable `$x`.
    GVar(Name),
    /// A constant.
    Const(Name),
    /// An index assignment `recv[index] = value` (desugars to `[]=`).
    Index { recv: Box<Expr>, index: Box<Expr> },
    /// An attribute assignment `recv.name = value` (desugars to `name=`).
    Attr { recv: Box<Expr>, name: Name },
}

/// A block argument attached to a method call.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Block parameter names.
    pub params: Vec<Name>,
    /// Block body.
    pub body: Vec<Expr>,
}

/// Binary operators that are *not* method calls in the subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `&&` / `and`
    And,
    /// `||` / `or`
    Or,
}

/// One `elsif`/`when` style arm of a conditional.
#[derive(Debug, Clone, PartialEq)]
pub struct CondArm {
    /// The test expression.
    pub cond: Expr,
    /// The body to evaluate when the test is truthy.
    pub body: Vec<Expr>,
}

/// An expression node.
///
/// Struct-variant fields follow the obvious reading (`recv`/`name`/`args`
/// for calls, `cond`/`body` for loops, and so on).
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// `nil`
    Nil,
    /// `true`
    True,
    /// `false`
    False,
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Symbol literal `:name`.
    Sym(Name),
    /// Array literal.
    Array(Vec<Expr>),
    /// Hash literal; keys are arbitrary expressions (symbols for labels).
    Hash(Vec<(Expr, Expr)>),
    /// `self`
    SelfExpr,
    /// A bare lower-case identifier: a local variable if one is in scope,
    /// otherwise a call to a method on `self`.
    Ident(Name),
    /// An instance variable read.
    IVar(Name),
    /// A global variable read.
    GVar(Name),
    /// A constant read; segments of `A::B::C`.
    Const(Vec<Name>),
    /// An assignment.
    Assign { target: LValue, value: Box<Expr> },
    /// An `x op= v` assignment kept in sugared form (`+=`, `-=`, `||=`).
    OpAssign { target: LValue, op: Name, value: Box<Expr> },
    /// A method call `recv.name(args) { |params| body }`.
    Call {
        /// Explicit receiver; `None` means a call on `self`.
        recv: Option<Box<Expr>>,
        /// Method name.
        name: Name,
        /// Positional arguments.
        args: Vec<Expr>,
        /// Optional literal block, shared (not copied) by clones of the tree.
        block: Option<Arc<Block>>,
    },
    /// Short-circuit boolean operation.
    BoolOp { op: BinOp, lhs: Box<Expr>, rhs: Box<Expr> },
    /// Logical negation `!e` / `not e`.
    Not(Box<Expr>),
    /// Conditional with zero or more `elsif` arms.
    If {
        /// The arms: the first is the `if`, subsequent ones are `elsif`s.
        arms: Vec<CondArm>,
        /// The `else` body (empty when absent).
        else_body: Vec<Expr>,
    },
    /// A `case subject when v ... else ... end` expression.
    Case {
        /// The scrutinee.
        subject: Box<Expr>,
        /// `when` arms; each condition is compared with `==`.
        arms: Vec<CondArm>,
        /// The `else` body.
        else_body: Vec<Expr>,
    },
    /// A `while` loop.
    While { cond: Box<Expr>, body: Vec<Expr> },
    /// `return e` / `return`.
    Return(Option<Box<Expr>>),
    /// `yield(args)`.
    Yield(Vec<Expr>),
    /// `break`.
    Break,
    /// `next`.
    Next,
    /// A stabby lambda `->(x) { body }`, shared like a call's block.
    Lambda(Arc<Block>),
    /// A type cast `RDL.type_cast(e, "T")`, preserved specially so the
    /// checker can count casts.  `ty` is the annotation source text.
    TypeCast { expr: Box<Expr>, ty: String },
    /// A placeholder for source that failed to parse.  The parser emits one
    /// of these (with the span of the unparsable region) after recording a
    /// recovery diagnostic, so downstream passes see an explicit marker
    /// instead of silently dropped code.  It is a leaf: it evaluates to
    /// `nil` in the interpreter and is skipped by analyses.
    Error,
}

/// An expression together with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression itself.
    pub kind: ExprKind,
    /// Where it appeared.
    pub span: Span,
}

impl Expr {
    /// Creates an expression with the given span.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// Creates an expression with a dummy span (used for synthesized nodes).
    pub fn synth(kind: ExprKind) -> Self {
        Expr { kind, span: Span::dummy() }
    }

    /// Convenience constructor for a call on an explicit receiver.
    pub fn call(recv: Expr, name: impl Into<Name>, args: Vec<Expr>) -> Self {
        Expr::synth(ExprKind::Call {
            recv: Some(Box::new(recv)),
            name: name.into(),
            args,
            block: None,
        })
    }

    /// Convenience constructor for a symbol literal.
    pub fn sym(name: impl Into<Name>) -> Self {
        Expr::synth(ExprKind::Sym(name.into()))
    }

    /// Convenience constructor for a string literal.
    pub fn str(text: impl Into<String>) -> Self {
        Expr::synth(ExprKind::Str(text.into()))
    }

    /// Convenience constructor for an integer literal.
    pub fn int(value: i64) -> Self {
        Expr::synth(ExprKind::Int(value))
    }

    /// Walks the expression tree, invoking `f` on every node (pre-order).
    pub fn walk(&self, f: &mut dyn FnMut(&Expr)) {
        f(self);
        let walk_all = |exprs: &[Expr], f: &mut dyn FnMut(&Expr)| {
            for e in exprs {
                e.walk(f);
            }
        };
        match &self.kind {
            ExprKind::Array(items) => walk_all(items, f),
            ExprKind::Hash(pairs) => {
                for (k, v) in pairs {
                    k.walk(f);
                    v.walk(f);
                }
            }
            ExprKind::Assign { target, value } | ExprKind::OpAssign { target, value, .. } => {
                match target {
                    LValue::Index { recv, index } => {
                        recv.walk(f);
                        index.walk(f);
                    }
                    LValue::Attr { recv, .. } => recv.walk(f),
                    _ => {}
                }
                value.walk(f);
            }
            ExprKind::Call { recv, args, block, .. } => {
                if let Some(r) = recv {
                    r.walk(f);
                }
                walk_all(args, f);
                if let Some(b) = block {
                    walk_all(&b.body, f);
                }
            }
            ExprKind::BoolOp { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            ExprKind::Not(e) => e.walk(f),
            ExprKind::If { arms, else_body } => {
                for arm in arms {
                    arm.cond.walk(f);
                    walk_all(&arm.body, f);
                }
                walk_all(else_body, f);
            }
            ExprKind::Case { subject, arms, else_body } => {
                subject.walk(f);
                for arm in arms {
                    arm.cond.walk(f);
                    walk_all(&arm.body, f);
                }
                walk_all(else_body, f);
            }
            ExprKind::While { cond, body } => {
                cond.walk(f);
                walk_all(body, f);
            }
            ExprKind::Return(Some(e)) => e.walk(f),
            ExprKind::Yield(args) => walk_all(args, f),
            ExprKind::Lambda(b) => walk_all(&b.body, f),
            ExprKind::TypeCast { expr, .. } => expr.walk(f),
            _ => {}
        }
    }

    /// Counts the number of nodes in the expression tree.
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_program() -> Program {
        Program {
            items: vec![Item::Class(ClassDef {
                name: "User".into(),
                superclass: Some("ActiveRecord::Base".into()),
                body: vec![Item::Method(MethodDef {
                    name: "available?".into(),
                    singleton: true,
                    params: vec![Param::required("name"), Param::required("email")],
                    body: vec![Expr::synth(ExprKind::True)],
                    span: Span::dummy(),
                    poisoned: false,
                })],
                span: Span::dummy(),
            })],
        }
    }

    #[test]
    fn program_navigation() {
        let p = sample_program();
        assert_eq!(p.classes().len(), 1);
        let methods = p.methods();
        assert_eq!(methods.len(), 1);
        assert_eq!(methods[0].0, "User");
    }

    #[test]
    fn required_arity_ignores_defaults_and_blocks() {
        let m = MethodDef {
            name: "m".into(),
            singleton: false,
            params: vec![
                Param::required("a"),
                Param { name: "b".into(), default: Some(Expr::int(1)), block: false },
                Param { name: "blk".into(), default: None, block: true },
            ],
            body: vec![],
            span: Span::dummy(),
            poisoned: false,
        };
        assert_eq!(m.required_arity(), 1);
    }

    #[test]
    fn walk_visits_nested_nodes() {
        let e =
            Expr::call(Expr::synth(ExprKind::Ident("page".into())), "[]", vec![Expr::sym("info")]);
        assert_eq!(e.node_count(), 3);
    }

    #[test]
    fn clones_share_every_block() {
        fn blocks(program: &Program) -> Vec<Arc<Block>> {
            let mut out = Vec::new();
            let mut visit = |e: &Expr| {
                if let ExprKind::Call { block: Some(b), .. } | ExprKind::Lambda(b) = &e.kind {
                    out.push(Arc::clone(b));
                }
            };
            for (_, m) in program.methods() {
                m.body.iter().for_each(|e| e.walk(&mut visit));
            }
            for item in &program.items {
                if let Item::Expr(e) = item {
                    e.walk(&mut visit);
                }
            }
            out
        }
        let src = "def f(xs)\n xs.map { |x| ->(y) { x + y } }\nend\n[1].each { |i| i }";
        let program = crate::parse_program_strict(src).unwrap();
        let original = blocks(&program);
        let cloned = blocks(&program.clone());
        assert_eq!(original.len(), 3);
        assert_eq!(cloned.len(), original.len());
        assert!(original.iter().zip(&cloned).all(|(a, b)| Arc::ptr_eq(a, b)));
    }
}

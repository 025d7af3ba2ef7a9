//! One method's identifiers: the walk that reports them and the table that
//! resolves them.
//!
//! A bare identifier in the subset is a parameter, a local or a call on
//! `self`, and a block or lambda parameter hides a method local of the same
//! name inside its body.  [`walk_names`] is the one walk that decides this:
//! the effect summaries, the lints and the dependency graph read a method's
//! identifiers only through it, so their call sets, slot tables and block
//! scopes cannot drift apart.  [`Locals`] is a method's table of parameters
//! and assigned locals, and [`Scope::resolve`] resolves a name against it
//! under the blocks in force: the walk resolves every identifier it reports
//! with it, and the taint evaluators, which compute a value per node and so
//! recurse over the tree themselves, call it at each identifier.
//!
//! A local read before the method first assigns it, in walk order
//! (parameter defaults, then the body), may call the same-named method: the
//! interpreter calls it while the local is unset, and the checker, whose
//! scope fills in that order, types the read as the call.

use crate::ast::{Expr, ExprKind, LValue, MethodDef};
use crate::bits::Bits;
use crate::name::Name;

/// What a bare identifier names where it is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolved {
    /// A block or lambda parameter in force hides it.
    Shadowed,
    /// The method parameter in this slot of the [`Locals`] table, a block
    /// parameter (`&b`) included.
    Param(usize),
    /// The method local in this slot.  `call` is set where the method has
    /// not assigned it yet in walk order: there the read may call the
    /// same-named method instead.
    Local {
        /// The local's slot.
        slot: usize,
        /// Whether the read may be a call on `self` too.
        call: bool,
    },
    /// No parameter or local has the name: a call on `self`.
    Call,
}

impl Resolved {
    /// The slot of the parameter or local read, if it reads one.
    pub fn slot(self) -> Option<usize> {
        match self {
            Resolved::Param(slot) | Resolved::Local { slot, .. } => Some(slot),
            Resolved::Shadowed | Resolved::Call => None,
        }
    }

    /// Whether the read may call a method on `self`.
    pub fn calls(self) -> bool {
        matches!(self, Resolved::Call | Resolved::Local { call: true, .. })
    }
}

/// One step of [`walk_names`], reported in evaluation order.
#[derive(Debug, Clone, Copy)]
pub enum Event<'a> {
    /// A bare identifier, with what it names there ([`Resolved::Shadowed`]
    /// where a block or lambda parameter hides it).
    Read(&'a Expr, &'a Name, Resolved),
    /// `x op= v` reads the local `x` before `v`, for every operator but
    /// `||`: `x ||= v` defines `x` without reading it.  With `x`'s slot, if
    /// the table holds it.
    OpRead(&'a Expr, &'a Name, Option<usize>),
    /// `x = v` or `x op= v` assigns the local `x`, after `v`.  With `x`'s
    /// slot, if the table holds it.
    Assign(&'a Expr, &'a Name, Option<usize>),
    /// A called name: a call's, before its receiver and arguments, or an
    /// operator assignment's operator, before its target and value.  `||=`
    /// and `&&=` are control flow and call nothing.
    Call(&'a Name),
    /// A write to anything but a local (`@x`, `$g`, a constant,
    /// `recv[i]` or `recv.name`), before the target's parts and the value.
    Write(&'a LValue),
    /// A `while` loop, before its condition.
    While,
    /// A `yield`, before its arguments.
    Yield,
}

/// A method's local table: its parameters and the locals it assigns where
/// no block parameter hides them, sorted and borrowed from the method.  A
/// name's slot is its rank in the table, so a [`Bits`] over slots means the
/// same names on every run.
#[derive(Debug, Clone, Default)]
pub struct Locals<'a> {
    names: Vec<&'a str>,
    params: Bits,
}

impl<'a> Locals<'a> {
    /// The table of `def`, from one walk of its parameter defaults and body.
    pub fn of(def: &'a MethodDef) -> Locals<'a> {
        let mut names = Vec::new();
        walk_method(def, &mut Scope::new(&Locals::default()), &mut |event| {
            if let Event::Assign(_, name, _) = event {
                names.push(name.as_str());
            }
        });
        names.extend(def.params.iter().map(|p| p.name.as_str()));
        names.sort_unstable();
        names.dedup();
        let mut locals = Locals { names, params: Bits::new() };
        locals.params = def.params.iter().filter_map(|p| locals.slot(&p.name)).collect();
        locals
    }

    /// The names, in slot order.
    pub fn names(&self) -> &[&'a str] {
        &self.names
    }

    /// The slot of `name`, if the table holds it.
    #[inline]
    pub fn slot(&self, name: &str) -> Option<usize> {
        self.names.binary_search(&name).ok()
    }

    /// The parameters' slots.
    pub fn params(&self) -> &Bits {
        &self.params
    }
}

/// Where a walk stands in one method: the table it resolves against, the
/// block and lambda parameters in force and the locals assigned so far.
#[derive(Debug)]
pub struct Scope<'s, 'a> {
    locals: &'s Locals<'a>,
    /// Each enclosing block's or lambda's parameters, innermost last.
    blocks: Vec<&'a [Name]>,
    /// The slots assigned so far in walk order.
    assigned: Bits,
}

impl<'s, 'a> Scope<'s, 'a> {
    /// The scope at the start of a method whose table is `locals`.
    pub fn new(locals: &'s Locals<'a>) -> Self {
        Scope { locals, blocks: Vec::new(), assigned: Bits::new() }
    }

    #[inline]
    fn hides(&self, name: &str) -> bool {
        self.blocks.iter().any(|params| params.iter().any(|p| p == name))
    }

    /// What the bare identifier `name` names here.
    #[inline]
    pub fn resolve(&self, name: &str) -> Resolved {
        if self.hides(name) {
            return Resolved::Shadowed;
        }
        match self.locals.slot(name) {
            None => Resolved::Call,
            Some(slot) if self.locals.params.contains(slot) => Resolved::Param(slot),
            Some(slot) => Resolved::Local { slot, call: !self.assigned.contains(slot) },
        }
    }

    /// Records an assignment to the local `name` and returns its slot, or
    /// `None` when a block parameter in force hides it or it has no slot.
    pub fn assign(&mut self, name: &str) -> Option<usize> {
        if self.hides(name) {
            return None;
        }
        let slot = self.locals.slot(name)?;
        self.assigned.insert(slot);
        Some(slot)
    }

    /// Puts a block's or lambda's parameters in force until
    /// [`Scope::leave_block`].
    pub fn enter_block(&mut self, params: &'a [Name]) {
        self.blocks.push(params);
    }

    /// Ends the innermost block's parameters.
    pub fn leave_block(&mut self) {
        self.blocks.pop();
    }
}

/// Walks `def`'s parameter defaults, which run before the body on every
/// call that omits them, then its body.
pub fn walk_method<'a>(
    def: &'a MethodDef,
    scope: &mut Scope<'_, 'a>,
    sink: &mut impl FnMut(Event<'a>),
) {
    let defaults = def.params.iter().filter_map(|p| p.default.as_ref());
    for e in defaults.chain(&def.body) {
        walk_names(e, scope, sink);
    }
}

fn walk_all<'a>(exprs: &'a [Expr], scope: &mut Scope<'_, 'a>, sink: &mut impl FnMut(Event<'a>)) {
    for e in exprs {
        walk_names(e, scope, sink);
    }
}

/// Walks one expression in evaluation order under `scope`, reporting each
/// [`Event`] to `sink` and recording local assignments in `scope`.  Block
/// and lambda parameters hide method locals of the same name for the
/// duration of their body.
pub fn walk_names<'a>(e: &'a Expr, scope: &mut Scope<'_, 'a>, sink: &mut impl FnMut(Event<'a>)) {
    match &e.kind {
        ExprKind::Ident(n) => sink(Event::Read(e, n, scope.resolve(n))),
        ExprKind::Assign { target, value } | ExprKind::OpAssign { target, value, .. } => {
            let op = match &e.kind {
                ExprKind::OpAssign { op, .. } => Some(op),
                _ => None,
            };
            if let Some(op) = op.filter(|op| *op != "||" && *op != "&&") {
                sink(Event::Call(op));
            }
            match target {
                LValue::Local(n) => {
                    if op.is_some_and(|op| op != "||") && !scope.hides(n) {
                        sink(Event::OpRead(e, n, scope.locals.slot(n)));
                    }
                }
                LValue::Index { recv, index } => {
                    sink(Event::Write(target));
                    walk_names(recv, scope, sink);
                    walk_names(index, scope, sink);
                }
                LValue::Attr { recv, .. } => {
                    sink(Event::Write(target));
                    walk_names(recv, scope, sink);
                }
                LValue::IVar(_) | LValue::GVar(_) | LValue::Const(_) => sink(Event::Write(target)),
            }
            walk_names(value, scope, sink);
            if let LValue::Local(n) = target {
                if !scope.hides(n) {
                    let slot = scope.assign(n);
                    sink(Event::Assign(e, n, slot));
                }
            }
        }
        ExprKind::Call { recv, name, args, block } => {
            sink(Event::Call(name));
            if let Some(r) = recv {
                walk_names(r, scope, sink);
            }
            walk_all(args, scope, sink);
            if let Some(b) = block {
                scope.enter_block(&b.params);
                walk_all(&b.body, scope, sink);
                scope.leave_block();
            }
        }
        ExprKind::Lambda(b) => {
            scope.enter_block(&b.params);
            walk_all(&b.body, scope, sink);
            scope.leave_block();
        }
        ExprKind::While { cond, body } => {
            sink(Event::While);
            walk_names(cond, scope, sink);
            walk_all(body, scope, sink);
        }
        ExprKind::Yield(args) => {
            sink(Event::Yield);
            walk_all(args, scope, sink);
        }
        ExprKind::Array(items) => walk_all(items, scope, sink),
        ExprKind::Hash(pairs) => {
            for (k, v) in pairs {
                walk_names(k, scope, sink);
                walk_names(v, scope, sink);
            }
        }
        ExprKind::BoolOp { lhs, rhs, .. } => {
            walk_names(lhs, scope, sink);
            walk_names(rhs, scope, sink);
        }
        ExprKind::Not(inner) | ExprKind::TypeCast { expr: inner, .. } => {
            walk_names(inner, scope, sink);
        }
        ExprKind::If { arms, else_body } => {
            for arm in arms {
                walk_names(&arm.cond, scope, sink);
                walk_all(&arm.body, scope, sink);
            }
            walk_all(else_body, scope, sink);
        }
        ExprKind::Case { subject, arms, else_body } => {
            walk_names(subject, scope, sink);
            for arm in arms {
                walk_names(&arm.cond, scope, sink);
                walk_all(&arm.body, scope, sink);
            }
            walk_all(else_body, scope, sink);
        }
        ExprKind::Return(Some(v)) => walk_names(v, scope, sink),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Param;
    use crate::parse_program_in_file;

    /// `def`'s local table (a parameter marked `*`) and its walk's events,
    /// one word each.
    fn walked(def: &MethodDef) -> (String, String) {
        let locals = Locals::of(def);
        let table: Vec<String> = (0..locals.names().len())
            .map(|i| {
                let mark = if locals.params().contains(i) { "*" } else { "" };
                format!("{}{mark}", locals.names()[i])
            })
            .collect();
        let show = |slot: Option<usize>| slot.map_or("-".to_string(), |i| i.to_string());
        let mut events = Vec::new();
        walk_method(def, &mut Scope::new(&locals), &mut |event| {
            events.push(match event {
                Event::Read(_, n, Resolved::Param(slot)) => format!("{n}:param{slot}"),
                Event::Read(_, n, Resolved::Local { slot, call: false }) => {
                    format!("{n}:local{slot}")
                }
                Event::Read(_, n, Resolved::Local { slot, call: true }) => {
                    format!("{n}:local{slot}+call")
                }
                Event::Read(_, n, Resolved::Call) => format!("{n}:call"),
                Event::Read(_, n, Resolved::Shadowed) => format!("{n}:shadowed"),
                Event::OpRead(_, n, slot) => format!("{n}:op-read{}", show(slot)),
                Event::Assign(_, n, slot) => format!("{n}={}", show(slot)),
                Event::Call(n) => format!("{n}()"),
                Event::Write(LValue::IVar(n)) => format!("@{n}="),
                Event::Write(LValue::GVar(n)) => format!("${n}="),
                Event::Write(LValue::Const(n)) => format!("{n}="),
                Event::Write(LValue::Index { .. }) => "[]=".to_string(),
                Event::Write(LValue::Attr { name, .. }) => format!(".{name}="),
                Event::Write(LValue::Local(n)) => panic!("{n} is reported as a write"),
                Event::While => "while".to_string(),
                Event::Yield => "yield".to_string(),
            });
        });
        (table.join(" "), events.join(" "))
    }

    /// The one rule, shape by shape: each source's single method, its table
    /// and its walk's events in order.
    #[test]
    fn each_shape_gives_its_events_in_order_and_its_table() {
        for (src, table, events) in [
            // Parameters, the block parameter `&b` included, and the
            // events that are not names.
            (
                "def m(a, &b)\n  while a\n    @w = yield(a)\n  end\n  $g = b.call(a)\nend\n",
                "a* b*",
                "while a:param0 @w= yield a:param0 $g= call() b:param1 a:param0",
            ),
            // Block and lambda parameters hide method names in their body,
            // where their reads are shadowed: `w` is assigned only while
            // hidden, so it is no local and is a call once its block ends;
            // `v` is a local assigned in a block and a lambda parameter
            // inside the lambda.
            (
                "def m(x, xs)\n  xs.each do |w|\n    w = x\n    v = w\n  end\n  \
                 ->(v) { xs.map { |x| x + v + w } }\n  v\nend\n",
                "v x* xs*",
                "each() xs:param2 x:param1 w:shadowed v=0 map() xs:param2 +() +() \
                 x:shadowed v:shadowed w:call v:local0",
            ),
            // A local read before its first assignment may be a call; after
            // it, it is the local.
            (
                "def m(x)\n  z = y\n  y = x\n  z + y\nend\n",
                "x* y z",
                "y:local1+call z=2 x:param0 y=1 +() z:local2 y:local1",
            ),
            // `||=` reads and calls nothing, `+=` reads its local target and
            // calls `+`, on local, index and attribute targets.
            (
                "def m(h, o)\n  a ||= 1\n  c += a\n  h[a] ||= c\n  h[c] += 1\n  \
                 o.n ||= a\n  o.n += c\nend\n",
                "a c h* o*",
                "a=0 +() c:op-read1 a:local0 c=1 []= h:param2 a:local0 c:local1 \
                 +() []= h:param2 c:local1 .n= o:param3 a:local0 +() .n= o:param3 c:local1",
            ),
            // Parameter defaults run first, so `c` is not yet assigned there.
            (
                "def m(a, b = a + c)\n  c = b\n  c\nend\n",
                "a* b* c",
                "+() a:param0 c:local2+call b:param1 c=2 c:local2",
            ),
            // A poisoned method keeps no parameter, and its placeholder
            // body reports nothing.
            ("def m(a)\n  1 +\nend\n", "", ""),
        ] {
            let (program, _) = parse_program_in_file(src, 0);
            let def = program.methods()[0].1;
            assert_eq!(walked(def), (table.to_string(), events.to_string()), "{src:?}");
        }
    }

    /// `&&=` has no surface syntax in the subset, so its shapes are built:
    /// it reads its local target like `+=` and, like `||=`, calls nothing.
    #[test]
    fn and_assign_reads_its_local_and_calls_nothing() {
        let ident = |n: &str| Box::new(Expr::synth(ExprKind::Ident(n.into())));
        let and_assign =
            |target| Expr::synth(ExprKind::OpAssign { target, op: "&&".into(), value: ident("h") });
        let def = MethodDef {
            name: "m".into(),
            singleton: false,
            params: vec![Param::required("h")],
            body: vec![
                and_assign(LValue::Local("b".into())),
                and_assign(LValue::Index { recv: ident("h"), index: ident("b") }),
                and_assign(LValue::Attr { recv: ident("h"), name: "n".into() }),
            ],
            span: crate::span::Span::dummy(),
            poisoned: false,
        };
        assert_eq!(
            walked(&def),
            (
                "b h*".to_string(),
                "b:op-read0 h:param1 b=0 []= h:param1 b:local0 h:param1 .n= h:param1 h:param1"
                    .to_string()
            )
        );
    }
}

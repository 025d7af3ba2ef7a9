//! The `LINT01xx` lint suite: flow-sensitive warnings over per-method CFGs.
//!
//! | code       | finding                                                    |
//! |------------|------------------------------------------------------------|
//! | `LINT0101` | use before definition (definite assignment, forward must)  |
//! | `LINT0102` | local variable assigned but never used                     |
//! | `LINT0103` | dead assignment (liveness, backward may)                   |
//! | `LINT0104` | unreachable code after `return`/`raise`/`break`/`next`     |
//! | `LINT0105` | parameter-derived value concatenated into a SQL fragment   |
//!
//! Each method's names come from the one identifier walk
//! ([`ruby_syntax::walk_names`]) and its slot table
//! ([`ruby_syntax::Locals`]: the parameters and the locals it assigns,
//! sorted and borrowed from the method).  Dataflow facts are bit sets over
//! those slots ([`ruby_syntax::Bits`]: one inline word, a tail only past 64
//! names), and block-parameter scopes are borrowed parameter lists, so
//! building, joining and comparing facts copies no name and, below 64
//! names, allocates nothing.  An identifier that is neither a parameter
//! nor an assigned local is a call on `self` and has no slot.
//!
//! Every lint is deterministic: a slot is a name's rank in the sorted
//! table, so a fact means the same names on every run and iterates in
//! slot order; blocks are scanned in id order; and findings are sorted
//! with the same span-then-code key as
//! [`diagnostics::DiagnosticBag::sort_by_span_then_code`], so a sequential
//! and a parallel run render byte-identical output.  The corpus pipeline
//! freezes findings into the on-disk check cache and replays them without
//! re-linting (see `comprdl::persist`), under a key it computes itself.
//!
//! `LINT0105` is optionally *interprocedural*: given the program's
//! [effect summaries](crate::summaries::ProgramSummaries), a call to a
//! method whose summary says "parameter *i* flows into a SQL sink" is
//! itself treated as a sink for argument *i*, and a call's result is
//! tainted exactly when the summary's return transfer says so (instead of
//! the conservative any-argument rule used for unknown callees).  Because
//! findings then depend on *callee* bodies, the corpus pipeline keys
//! persisted lint verdicts on the dependency-closure Merkle hash rather
//! than the intra-method [`ruby_syntax::method_hash`].
//!
//! Locals spelled with a leading underscore (`_tmp`) are the conventional
//! "intentionally unused" form and are exempt from `LINT0102`/`LINT0103`.

use crate::cfg::Cfg;
use crate::dataflow::{solve, DataflowProblem, Direction};
use crate::summaries::ProgramSummaries;
use diagnostics::{Diagnostic, Span};
use ruby_syntax::{walk_names, Bits, Event, Expr, ExprKind, LValue, Locals, MethodDef, Scope};

/// Use before definition.
pub const USE_BEFORE_DEF: &str = "LINT0101";
/// Unused variable.
pub const UNUSED_VARIABLE: &str = "LINT0102";
/// Dead assignment.
pub const DEAD_ASSIGNMENT: &str = "LINT0103";
/// Unreachable code.
pub const UNREACHABLE_CODE: &str = "LINT0104";
/// SQL interpolation taint.
pub const SQL_TAINT: &str = "LINT0105";

/// Method names treated as SQL sinks for `LINT0105` (their first argument
/// is parsed as a SQL condition fragment) — shared with the summary
/// inference so both ends agree on what a sink is.
use crate::summaries::SQL_SINKS;

/// One lint finding within a method, prior to diagnostic rendering.
///
/// The fields are exactly what the persisted check cache freezes; the
/// `= note:` line of the rendered diagnostic is derived from the code (see
/// [`note_for`]) so replayed findings render byte-identically without
/// storing the note.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Stable `LINT01xx` code.
    pub code: String,
    /// Headline message.
    pub message: String,
    /// The primary label's text.
    pub label: String,
    /// The primary label's span (always inside the method).
    pub span: Span,
}

/// All findings for one method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodLints {
    /// Enclosing class (`"Object"` for top-level methods).
    pub owner: String,
    /// Method name.
    pub name: String,
    /// Whether it is a `def self.` method.
    pub singleton: bool,
    /// Findings in canonical span-then-code order.
    pub findings: Vec<LintFinding>,
}

/// The `= note:` line attached to each lint code's diagnostics.
pub fn note_for(code: &str) -> &'static str {
    match code {
        USE_BEFORE_DEF => "the variable is only assigned on some of the paths that reach this use",
        UNUSED_VARIABLE => "remove the assignment or read the value",
        DEAD_ASSIGNMENT => "the right-hand side still runs; only the stored value is never read",
        UNREACHABLE_CODE => {
            "every path to this statement ends in `return`, `raise`, `break` or `next`"
        }
        SQL_TAINT => "bind the value as a `?` placeholder instead of concatenating it into the SQL",
        _ => "",
    }
}

impl From<&LintFinding> for Diagnostic {
    fn from(f: &LintFinding) -> Diagnostic {
        let mut d = Diagnostic::warning(&f.code, &f.message).with_label(f.span, &f.label);
        let note = note_for(&f.code);
        if !note.is_empty() {
            d = d.with_note(note);
        }
        d
    }
}

impl From<LintFinding> for Diagnostic {
    fn from(f: LintFinding) -> Diagnostic {
        Diagnostic::from(&f)
    }
}

// ---------------------------------------------------------------------------
// A method's names, from the identifier walk
// ---------------------------------------------------------------------------

/// The slot a walk event reads, if it reads a parameter or a local: an
/// identifier, or an operator assignment's target.
fn read_slot(event: Event<'_>) -> Option<(&Expr, usize)> {
    match event {
        Event::Read(e, _, resolved) => Some((e, resolved.slot()?)),
        Event::OpRead(e, _, slot) => Some((e, slot?)),
        _ => None,
    }
}

/// What one walk over a method body finds out about its names.
struct MethodNames<'a> {
    locals: Locals<'a>,
    /// Every parameter or local read anywhere in the body.
    used: Bits,
    /// Every local assigned anywhere in the body.
    assigned: Bits,
    /// Each assigned local with the span of its first assignment, in walk
    /// order.
    first_defs: Vec<(usize, Span)>,
}

impl<'a> MethodNames<'a> {
    fn of(def: &'a MethodDef) -> MethodNames<'a> {
        let locals = Locals::of(def);
        let (mut used, mut assigned, mut first_defs) = (Bits::new(), Bits::new(), Vec::new());
        let mut scope = Scope::new(&locals);
        for stmt in &def.body {
            walk_names(stmt, &mut scope, &mut |event| {
                if let Some((_, i)) = read_slot(event) {
                    used.insert(i);
                } else if let Event::Assign(e, _, slot) = event {
                    let i = slot.expect("the walk's locals have slots");
                    if assigned.insert(i) {
                        first_defs.push((i, e.span));
                    }
                }
            });
        }
        MethodNames { locals, used, assigned, first_defs }
    }
}

// ---------------------------------------------------------------------------
// LINT0101: definite assignment (forward must-analysis)
// ---------------------------------------------------------------------------

struct DefiniteAssign<'s, 'a> {
    locals: &'s Locals<'a>,
    universe: Bits,
    params: Bits,
}

impl<'a> DataflowProblem<'a> for DefiniteAssign<'_, 'a> {
    type Fact = Bits;
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn boundary(&self) -> Bits {
        self.params.clone()
    }
    fn top(&self) -> Bits {
        self.universe.clone()
    }
    fn join(&self, into: &mut Bits, from: &Bits) {
        into.intersect(from);
    }
    fn transfer(&self, stmt: &'a Expr, fact: &mut Bits) {
        walk_names(stmt, &mut Scope::new(self.locals), &mut |event| {
            if let Event::Assign(_, _, Some(i)) = event {
                fact.insert(i);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// LINT0103: liveness (backward may-analysis)
// ---------------------------------------------------------------------------

struct Liveness<'s, 'a> {
    locals: &'s Locals<'a>,
}

impl<'a> DataflowProblem<'a> for Liveness<'_, 'a> {
    type Fact = Bits;
    fn direction(&self) -> Direction {
        Direction::Backward
    }
    fn boundary(&self) -> Bits {
        Bits::new()
    }
    fn top(&self) -> Bits {
        Bits::new()
    }
    fn join(&self, into: &mut Bits, from: &Bits) {
        into.union(from);
    }
    fn transfer(&self, stmt: &'a Expr, fact: &mut Bits) {
        // Only a statement-position `x = v` kills `x`; nested assignments
        // conservatively leave liveness alone.
        let mut read = stmt;
        if let ExprKind::Assign { target: LValue::Local(n), value } = &stmt.kind {
            if let Some(i) = self.locals.slot(n) {
                fact.remove(i);
            }
            read = value;
        }
        walk_names(read, &mut Scope::new(self.locals), &mut |event| {
            if let Some((_, i)) = read_slot(event) {
                fact.insert(i);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// LINT0105: SQL interpolation taint (forward may-analysis)
// ---------------------------------------------------------------------------

/// The program's effect summaries, for interprocedural `LINT0105`.
type Summaries<'s> = Option<&'s ProgramSummaries<'s>>;

struct TaintWithParams<'s, 'a> {
    params: Bits,
    locals: &'s Locals<'a>,
    summaries: Summaries<'s>,
}

impl<'a> DataflowProblem<'a> for TaintWithParams<'_, 'a> {
    type Fact = Bits;
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn boundary(&self) -> Bits {
        self.params.clone()
    }
    fn top(&self) -> Bits {
        Bits::new()
    }
    fn join(&self, into: &mut Bits, from: &Bits) {
        into.union(from);
    }
    fn transfer(&self, stmt: &'a Expr, fact: &mut Bits) {
        let mut scope = Scope::new(self.locals);
        taint_eval(stmt, fact, self.summaries, &mut scope, &mut |_, _, _, _| {});
    }
}

/// Evaluates `e` for taint: returns whether its value is derived from a
/// tainted name, updates `fact` across assignments, and invokes
/// `on_sink(call, arg_index, fact, scope)` on every sink argument, with
/// the block scopes in force at the call — the first argument of a literal
/// SQL-sink call, plus (given summaries) every argument a callee's summary
/// routes into a sink.
fn taint_eval<'s, 'a>(
    e: &'a Expr,
    fact: &mut Bits,
    summaries: Summaries<'_>,
    scope: &mut Scope<'s, 'a>,
    on_sink: &mut dyn FnMut(&'a Expr, usize, &Bits, &mut Scope<'s, 'a>),
) -> bool {
    match &e.kind {
        // An identifier that calls a method on `self` passes it no
        // argument, so its result is clean.
        ExprKind::Ident(n) => scope.resolve(n).slot().is_some_and(|i| fact.contains(i)),
        ExprKind::Array(items) => {
            let mut t = false;
            for item in items {
                t |= taint_eval(item, fact, summaries, scope, on_sink);
            }
            t
        }
        ExprKind::Hash(pairs) => {
            let mut t = false;
            for (k, v) in pairs {
                t |= taint_eval(k, fact, summaries, scope, on_sink);
                t |= taint_eval(v, fact, summaries, scope, on_sink);
            }
            t
        }
        ExprKind::Assign { target, value } => {
            match target {
                LValue::Index { recv, index } => {
                    taint_eval(recv, fact, summaries, scope, on_sink);
                    taint_eval(index, fact, summaries, scope, on_sink);
                }
                LValue::Attr { recv, .. } => {
                    taint_eval(recv, fact, summaries, scope, on_sink);
                }
                _ => {}
            }
            let t = taint_eval(value, fact, summaries, scope, on_sink);
            if let LValue::Local(n) = target {
                if let Some(i) = scope.assign(n) {
                    if t {
                        fact.insert(i);
                    } else {
                        fact.remove(i);
                    }
                }
            }
            t
        }
        ExprKind::OpAssign { target, value, .. } => {
            let mut t = taint_eval(value, fact, summaries, scope, on_sink);
            if let LValue::Local(n) = target {
                if let Some(i) = scope.assign(n) {
                    t |= fact.contains(i);
                    if t {
                        fact.insert(i);
                    }
                }
            }
            t
        }
        ExprKind::Call { recv, name, args, block } => {
            let recv_t =
                recv.as_ref().is_some_and(|r| taint_eval(r, fact, summaries, scope, on_sink));
            let mut arg_t = Bits::new();
            for (i, arg) in args.iter().enumerate() {
                if taint_eval(arg, fact, summaries, scope, on_sink) {
                    arg_t.insert(i);
                }
            }
            if let Some(b) = block {
                scope.enter_block(&b.params);
                for stmt in &b.body {
                    taint_eval(stmt, fact, summaries, scope, on_sink);
                }
                scope.leave_block();
            }
            // Sink positions: argument 0 of a literal SQL sink, plus every
            // argument the callee's taint summary routes into a sink.
            let mut sink_args = Bits::new();
            if SQL_SINKS.contains(&name.as_str()) && !args.is_empty() {
                sink_args.insert(0);
            }
            let callee = summaries.and_then(|s| s.taint_for_name(name));
            if let Some(t) = &callee {
                for i in t.params_to_sink() {
                    if i < args.len() {
                        sink_args.insert(i);
                    }
                }
            }
            for i in sink_args.iter() {
                on_sink(e, i, fact, scope);
            }
            match &callee {
                // A summarized callee: taint flows to the result exactly
                // along the inferred return transfer.
                Some(t) => {
                    t.params_to_return().any(|i| arg_t.contains(i))
                        || (t.self_to_return() && recv_t)
                }
                // Unknown callee: conservatively derive from every input.
                None => recv_t || !arg_t.is_empty(),
            }
        }
        ExprKind::BoolOp { lhs, rhs, .. } => {
            let l = taint_eval(lhs, fact, summaries, scope, on_sink);
            let r = taint_eval(rhs, fact, summaries, scope, on_sink);
            l || r
        }
        ExprKind::Not(inner) | ExprKind::TypeCast { expr: inner, .. } => {
            taint_eval(inner, fact, summaries, scope, on_sink)
        }
        ExprKind::If { arms, else_body } => {
            let mut t = false;
            for arm in arms {
                taint_eval(&arm.cond, fact, summaries, scope, on_sink);
                for stmt in &arm.body {
                    t |= taint_eval(stmt, fact, summaries, scope, on_sink);
                }
            }
            for stmt in else_body {
                t |= taint_eval(stmt, fact, summaries, scope, on_sink);
            }
            t
        }
        ExprKind::Case { subject, arms, else_body } => {
            taint_eval(subject, fact, summaries, scope, on_sink);
            let mut t = false;
            for arm in arms {
                taint_eval(&arm.cond, fact, summaries, scope, on_sink);
                for stmt in &arm.body {
                    t |= taint_eval(stmt, fact, summaries, scope, on_sink);
                }
            }
            for stmt in else_body {
                t |= taint_eval(stmt, fact, summaries, scope, on_sink);
            }
            t
        }
        ExprKind::While { cond, body } => {
            taint_eval(cond, fact, summaries, scope, on_sink);
            for stmt in body {
                taint_eval(stmt, fact, summaries, scope, on_sink);
            }
            false
        }
        ExprKind::Return(Some(v)) => {
            taint_eval(v, fact, summaries, scope, on_sink);
            false
        }
        ExprKind::Yield(args) => {
            for arg in args {
                taint_eval(arg, fact, summaries, scope, on_sink);
            }
            false
        }
        ExprKind::Lambda(b) => {
            scope.enter_block(&b.params);
            for stmt in &b.body {
                taint_eval(stmt, fact, summaries, scope, on_sink);
            }
            scope.leave_block();
            false
        }
        _ => false,
    }
}

/// Flattens a `+` concatenation chain into its leaf operands.
fn concat_parts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let ExprKind::Call { recv: Some(r), name, args, block: None } = &e.kind {
        if name == "+" && args.len() == 1 {
            concat_parts(r, out);
            concat_parts(&args[0], out);
            return;
        }
    }
    out.push(e);
}

/// Whether `e`'s value derives from a tainted name — evaluated with the
/// same summary-aware rules as the taint facts themselves, under the block
/// scopes in force where `e` sits (`scope`, left as it was found), against
/// a scratch copy of `fact` so sink callbacks and assignments don't
/// reenter.
fn reads_tainted<'s, 'a>(
    e: &'a Expr,
    fact: &Bits,
    summaries: Summaries<'_>,
    scope: &mut Scope<'s, 'a>,
) -> bool {
    let mut scratch = fact.clone();
    taint_eval(e, &mut scratch, summaries, scope, &mut |_, _, _, _| {})
}

/// Inspects one sink argument and pushes a `LINT0105` finding if a tainted
/// non-literal part is concatenated with SQL text that `sql_tc` can parse
/// as a condition.  Each part reads its names under `scope`, the block
/// scopes in force at the sink, so a block parameter hides a tainted method
/// parameter of the same name.
fn check_sql_sink<'s, 'a>(
    call: &'a Expr,
    arg: usize,
    fact: &Bits,
    summaries: Summaries<'_>,
    scope: &mut Scope<'s, 'a>,
    findings: &mut Vec<LintFinding>,
) {
    let ExprKind::Call { args, .. } = &call.kind else { return };
    let Some(frag_arg) = args.get(arg) else { return };
    let mut parts = Vec::new();
    concat_parts(frag_arg, &mut parts);
    if parts.len() < 2 {
        return; // a lone literal or a lone variable is not an interpolation
    }
    let mut has_literal = false;
    let mut has_tainted = false;
    let mut fragment = String::new();
    for part in &parts {
        match &part.kind {
            ExprKind::Str(s) => {
                has_literal = true;
                fragment.push_str(s);
            }
            _ => {
                has_tainted |= reads_tainted(part, fact, summaries, scope);
                fragment.push('?');
            }
        }
    }
    if has_literal && has_tainted && sql_tc::parse_condition(&fragment).is_ok() {
        findings.push(LintFinding {
            code: SQL_TAINT.to_string(),
            message: "user-supplied value is interpolated into a SQL fragment".to_string(),
            label: format!("this concatenation builds the SQL condition `{fragment}`"),
            span: frag_arg.span,
        });
    }
}

// ---------------------------------------------------------------------------
// The per-method lint driver
// ---------------------------------------------------------------------------

/// Canonical finding order: the same key as
/// [`DiagnosticBag::sort_by_span_then_code`](diagnostics::DiagnosticBag::sort_by_span_then_code).
fn sort_findings(findings: &mut [LintFinding]) {
    findings.sort_by(|a, b| {
        (a.span.file, a.span.start, a.span.line, a.span.end, &a.code, &a.message).cmp(&(
            b.span.file,
            b.span.start,
            b.span.line,
            b.span.end,
            &b.code,
            &b.message,
        ))
    });
}

/// Runs every lint over one method, intraprocedurally (calls to unknown
/// methods propagate taint conservatively; no summary-driven sinks).
pub fn lint_method(owner: &str, def: &MethodDef) -> MethodLints {
    lint_method_with_summaries(owner, def, None)
}

/// Runs every lint over one method; when `summaries` are supplied,
/// `LINT0105` propagates taint through calls using the inferred transfer
/// functions (see [`crate::summaries`]).
pub fn lint_method_with_summaries(
    owner: &str,
    def: &MethodDef,
    summaries: Option<&ProgramSummaries>,
) -> MethodLints {
    // A poisoned method's body is a recovery placeholder, not the user's
    // code: linting it would report phantom unused/undefined variables on
    // top of the parse diagnostic.  Its (empty) verdict still occupies its
    // slot, so incremental replay stays aligned with `Program::methods()`
    // order.
    if def.poisoned {
        return MethodLints {
            owner: owner.to_string(),
            name: def.name.clone(),
            singleton: def.singleton,
            findings: Vec::new(),
        };
    }
    let cfg = Cfg::build(&def.body);
    let reachable = cfg.reachable();
    let mut findings = Vec::new();
    let MethodNames { locals, used, assigned, first_defs } = MethodNames::of(def);
    let params = locals.params();

    // LINT0102: assigned but never read.  A leading underscore is the
    // conventional "intentionally unused" spelling and stays quiet.
    for &(i, span) in &first_defs {
        let name = locals.names()[i];
        if !used.contains(i) && !params.contains(i) && !name.starts_with('_') {
            findings.push(LintFinding {
                code: UNUSED_VARIABLE.to_string(),
                message: format!("local variable `{name}` is never used"),
                label: "assigned here but never read".to_string(),
                span,
            });
        }
    }

    // LINT0101: a read of a local that is not definitely assigned on every
    // path.  Only names that are assigned *somewhere* qualify — a bare
    // identifier that is never assigned is a method call on `self` in this
    // subset, not a variable.
    {
        let mut universe = assigned.clone();
        universe.union(params);
        let sol =
            solve(&cfg, &DefiniteAssign { locals: &locals, universe, params: params.clone() });
        let mut reported = Bits::new();
        for (b, block) in cfg.blocks.iter().enumerate() {
            if !reachable[b] {
                continue;
            }
            let mut fact = sol.block_in[b].clone();
            for stmt in &block.stmts {
                walk_names(stmt, &mut Scope::new(&locals), &mut |event| {
                    if let Some((e, i)) = read_slot(event) {
                        if assigned.contains(i)
                            && !params.contains(i)
                            && !fact.contains(i)
                            && reported.insert(i)
                        {
                            findings.push(LintFinding {
                                code: USE_BEFORE_DEF.to_string(),
                                message: format!(
                                    "`{}` may be used before it is assigned",
                                    locals.names()[i]
                                ),
                                label: "used here before any unconditional assignment".to_string(),
                                span: e.span,
                            });
                        }
                    } else if let Event::Assign(_, _, Some(i)) = event {
                        fact.insert(i);
                    }
                });
            }
        }
    }

    // LINT0103: a statement-position assignment whose value no later read
    // can observe.  The method's tail statement is its implicit return
    // value, so it is exempt; names never read at all are LINT0102's job.
    {
        let liveness = Liveness { locals: &locals };
        let sol = solve(&cfg, &liveness);
        let tail: Option<*const Expr> = def.body.last().map(|e| e as *const Expr);
        for (b, block) in cfg.blocks.iter().enumerate() {
            if !reachable[b] {
                continue;
            }
            let mut live = sol.block_out[b].clone();
            for stmt in block.stmts.iter().rev() {
                if let ExprKind::Assign { target: LValue::Local(n), .. } = &stmt.kind {
                    if locals.slot(n).is_some_and(|i| used.contains(i) && !live.contains(i))
                        && !n.starts_with('_')
                        && Some(*stmt as *const Expr) != tail
                    {
                        findings.push(LintFinding {
                            code: DEAD_ASSIGNMENT.to_string(),
                            message: format!("value assigned to `{n}` is never read"),
                            label: "this value is overwritten or dropped before any read"
                                .to_string(),
                            span: stmt.span,
                        });
                    }
                }
                liveness.transfer(stmt, &mut live);
            }
        }
    }

    // LINT0104: the head statement of every dead region.
    for (b, block) in cfg.blocks.iter().enumerate() {
        if reachable[b] || block.stmts.is_empty() {
            continue;
        }
        // Only the head of a dead region: all of its predecessors (if any)
        // are reachable blocks.
        if block.preds.iter().all(|&p| reachable[p]) {
            findings.push(LintFinding {
                code: UNREACHABLE_CODE.to_string(),
                message: "unreachable code".to_string(),
                label: "this statement can never execute".to_string(),
                span: block.stmts[0].span,
            });
        }
    }

    // LINT0105: parameter-derived values concatenated into SQL fragments.
    let taint_seed: Bits = def
        .params
        .iter()
        .filter(|p| !p.block)
        .map(|p| locals.slot(&p.name).expect("parameters have slots"))
        .collect();
    if !taint_seed.is_empty() {
        let sol = solve(&cfg, &TaintWithParams { params: taint_seed, locals: &locals, summaries });
        for (b, block) in cfg.blocks.iter().enumerate() {
            if !reachable[b] {
                continue;
            }
            let mut fact = sol.block_in[b].clone();
            for stmt in &block.stmts {
                let mut scope = Scope::new(&locals);
                taint_eval(
                    stmt,
                    &mut fact,
                    summaries,
                    &mut scope,
                    &mut |call, arg, fact, scope| {
                        check_sql_sink(call, arg, fact, summaries, scope, &mut findings);
                    },
                );
            }
        }
    }

    sort_findings(&mut findings);
    MethodLints {
        owner: owner.to_string(),
        name: def.name.clone(),
        singleton: def.singleton,
        findings,
    }
}

/// Lints the given `(owner, def)` methods — typically
/// [`ruby_syntax::ProgramIndex::methods`] or the subset an incremental
/// driver could not replay — threading the program's effect summaries into
/// `LINT0105` (see [`lint_method_with_summaries`]).  With `threads > 1` the
/// work is claimed from an atomic index (the same scheme as
/// `comprdl::TypeChecker::check_methods_parallel`) and results are merged
/// back in `methods` order, so the output is byte-identical to a sequential
/// run regardless of scheduling.
pub fn lint_methods<O: AsRef<str> + Sync>(
    methods: &[(O, &MethodDef)],
    summaries: Option<&ProgramSummaries>,
    threads: usize,
) -> Vec<MethodLints> {
    crate::map_claimed(methods, threads, |(owner, def)| {
        lint_method_with_summaries(owner.as_ref(), def, summaries)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruby_syntax::parse_program_strict;

    fn lint_src(src: &str) -> Vec<LintFinding> {
        let p = parse_program_strict(src).expect("parse");
        let (owner, def) = &p.methods()[0];
        lint_method(owner, def).findings
    }

    fn codes(findings: &[LintFinding]) -> Vec<&str> {
        findings.iter().map(|f| f.code.as_str()).collect()
    }

    #[test]
    fn clean_method_has_no_findings() {
        let f = lint_src("def m(x)\n  y = x + 1\n  y * 2\nend\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn use_before_def_fires_on_branch_only_assignment() {
        let f = lint_src("def m(c)\n  if c\n    x = 1\n  end\n  x + 1\nend\n");
        assert_eq!(codes(&f), vec![USE_BEFORE_DEF], "{f:?}");
        assert!(f[0].message.contains("`x`"), "{}", f[0].message);
    }

    #[test]
    fn use_before_def_quiet_when_all_branches_assign() {
        let f = lint_src("def m(c)\n  if c\n    x = 1\n  else\n    x = 2\n  end\n  x + 1\nend\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn bare_identifiers_that_are_method_calls_are_not_flagged() {
        // `rows` is never assigned, so it is a call on self, not a variable.
        let f = lint_src("def m()\n  rows.length\nend\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unused_variable_fires_once_at_first_assignment() {
        let f = lint_src("def m(x)\n  waste = x + 1\n  x\nend\n");
        assert_eq!(codes(&f), vec![UNUSED_VARIABLE], "{f:?}");
        assert!(f[0].message.contains("`waste`"));
    }

    #[test]
    fn parameters_are_not_unused_variables() {
        let f = lint_src("def m(unused)\n  1\nend\n");
        assert!(f.is_empty(), "{f:?}");
    }

    /// Pin: a leading underscore is the conventional "intentionally
    /// unused" spelling — `_tmp` is exempt from LINT0102/LINT0103 while
    /// plain `tmp` still warns.
    #[test]
    fn underscore_prefixed_locals_are_exempt_but_plain_ones_warn() {
        // LINT0102: assigned, never read.
        let f = lint_src("def m(x)\n  _tmp = x + 1\n  x\nend\n");
        assert!(f.is_empty(), "{f:?}");
        let f = lint_src("def m(x)\n  tmp = x + 1\n  x\nend\n");
        assert_eq!(codes(&f), vec![UNUSED_VARIABLE], "{f:?}");
        assert!(f[0].message.contains("`tmp`"));

        // LINT0103: dead store before a later read.
        let f = lint_src("def m(x)\n  _y = x + 1\n  _y = 2\n  _y\nend\n");
        assert!(f.is_empty(), "{f:?}");
        let f = lint_src("def m(x)\n  y = x + 1\n  y = 2\n  y\nend\n");
        assert_eq!(codes(&f), vec![DEAD_ASSIGNMENT], "{f:?}");
    }

    #[test]
    fn dead_assignment_fires_when_value_is_overwritten() {
        let f = lint_src("def m(x)\n  y = x + 1\n  y = 2\n  y\nend\n");
        assert_eq!(codes(&f), vec![DEAD_ASSIGNMENT], "{f:?}");
        assert!(f[0].message.contains("`y`"));
    }

    #[test]
    fn tail_assignment_is_the_implicit_return_not_a_dead_store() {
        let f = lint_src("def m(x)\n  y = x\n  y = y + 1\nend\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unreachable_code_after_return_fires_once_per_region() {
        let f = lint_src("def m()\n  return 1\n  a = 2\n  a + 1\nend\n");
        // One LINT0104 for the dead region; `a` is genuinely used inside it
        // so no unused-variable noise.
        assert_eq!(codes(&f), vec![UNREACHABLE_CODE], "{f:?}");
    }

    #[test]
    fn guarded_raise_keeps_the_tail_reachable() {
        let f = lint_src("def m(c)\n  c || raise('no')\n  1\nend\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn sql_taint_fires_on_param_concatenation() {
        let f = lint_src("def self.search(q)\n  Topic.where('title = ' + q)\nend\n");
        assert_eq!(codes(&f), vec![SQL_TAINT], "{f:?}");
        assert!(f[0].label.contains("title = ?"), "{}", f[0].label);
    }

    #[test]
    fn sql_taint_tracks_flow_through_locals() {
        let f = lint_src("def self.search(q)\n  frag = 'title = ' + q\n  Topic.where(frag)\nend\n");
        // The concatenation happens at the assignment; the sink receives a
        // lone variable, so the finding anchors at the sink only if the
        // concatenation reaches it.  Flowing a prebuilt tainted fragment
        // into `where` as a single argument is not an *interpolation* site,
        // so this stays quiet — the assignment form is covered by the test
        // above when inlined.
        assert!(codes(&f).is_empty() || codes(&f) == vec![SQL_TAINT], "{f:?}");
    }

    #[test]
    fn sql_taint_reads_a_sink_under_its_block_scopes() {
        // The block's `q` hides the tainted method parameter `q`, at a
        // singleton and at an instance method alike.
        for head in ["def self.m(q, xs)", "def m(q, xs)"] {
            let src = format!("{head}\n  xs.each {{ |q| Topic.where('a = ' + q) }}\nend\n");
            let f = lint_src(&src);
            assert!(codes(&f).is_empty(), "{src:?}: {f:?}");
        }
        // A method parameter the block does not hide still taints the sink.
        let f = lint_src("def m(q, xs)\n  xs.each { |p| Topic.where('a = ' + q) }\nend\n");
        assert_eq!(codes(&f), vec![SQL_TAINT], "{f:?}");
    }

    #[test]
    fn sql_taint_quiet_on_placeholder_style() {
        let f = lint_src("def self.search(q)\n  Topic.where('title = ?', q)\nend\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn sql_taint_quiet_when_concatenating_untainted_constants() {
        let f = lint_src(
            "def self.recent()\n  col = 'created_at'\n  Topic.where(col + ' IS NOT NULL')\nend\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn block_parameters_shadow_method_locals() {
        // `r` is a block parameter, not an unassigned method local.
        let f = lint_src("def m(rows)\n  rows.map { |r| r + 1 }\nend\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn or_assign_defines_without_using() {
        let f = lint_src("def m()\n  x ||= 1\n  x\nend\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn findings_are_sorted_by_span_then_code() {
        let f = lint_src("def m(c)\n  waste = 1\n  if c\n    x = 1\n  end\n  x + 1\nend\n");
        assert_eq!(codes(&f), vec![UNUSED_VARIABLE, USE_BEFORE_DEF], "{f:?}");
        assert!(f[0].span.start < f[1].span.start);
    }

    #[test]
    fn parallel_lint_is_byte_identical_to_sequential() {
        let src = "class A\n  def m(c)\n    if c\n      x = 1\n    end\n    x\n  end\n  def n()\n    waste = 1\n    2\n  end\n  def o(q)\n    A.where('title = ' + q)\n  end\nend\n";
        let p = parse_program_strict(src).expect("parse");
        let methods = p.methods();
        let seq = lint_methods(&methods, None, 1);
        for threads in [2, 4, 7] {
            assert_eq!(seq, lint_methods(&methods, None, threads), "threads={threads}");
        }
        assert!(seq.iter().any(|m| !m.findings.is_empty()));
    }

    /// With summaries, the sink and the interpolation can live in
    /// different methods: the callee's summary routes the caller's
    /// argument into the sink, so the finding fires at the call site.
    #[test]
    fn sql_taint_crosses_calls_with_summaries() {
        let src = "def self.apply_filter(frag)\n  Topic.where(frag)\nend\ndef self.search(q)\n  apply_filter('title = ' + q)\nend\n";
        let p = parse_program_strict(src).expect("parse");

        // Blind without summaries: the callee sees a lone variable at the
        // sink, the caller sees no sink at all.
        let blind = lint_methods(&p.methods(), None, 1);
        assert!(blind.iter().all(|m| m.findings.is_empty()), "{blind:?}");

        let seed = rdl_types::EffectTable::new();
        let sums = ProgramSummaries::infer(&p, &seed, 1);
        let seen = lint_methods(&p.methods(), Some(&sums), 1);
        let search = seen.iter().find(|m| m.name == "search").unwrap();
        assert_eq!(codes(&search.findings), vec![SQL_TAINT], "{seen:?}");
        assert!(search.findings[0].label.contains("title = ?"), "{}", search.findings[0].label);
    }

    /// The summary return transfer is *more precise* than the conservative
    /// any-argument rule: a callee that provably drops its parameter
    /// un-taints the result.
    #[test]
    fn summary_return_transfer_untaints_sanitized_values() {
        let src = "def self.quote(q)\n  'quoted'\nend\ndef self.search(q)\n  Topic.where('title = ' + quote(q))\nend\n";
        let p = parse_program_strict(src).expect("parse");
        let blind = lint_methods(&p.methods(), None, 1);
        assert!(
            blind.iter().any(|m| codes(&m.findings) == vec![SQL_TAINT]),
            "conservatively tainted without summaries: {blind:?}"
        );
        let sums = ProgramSummaries::infer(&p, &rdl_types::EffectTable::new(), 1);
        let seen = lint_methods(&p.methods(), Some(&sums), 1);
        assert!(seen.iter().all(|m| m.findings.is_empty()), "{seen:?}");
    }

    #[test]
    fn parallel_lint_with_summaries_is_byte_identical() {
        let src = "def self.apply_filter(frag)\n  Topic.where(frag)\nend\ndef self.search(q)\n  apply_filter('title = ' + q)\nend\ndef m(c)\n  if c\n    x = 1\n  end\n  x\nend\n";
        let p = parse_program_strict(src).expect("parse");
        let sums = ProgramSummaries::infer(&p, &rdl_types::EffectTable::new(), 1);
        let methods = p.methods();
        let seq = lint_methods(&methods, Some(&sums), 1);
        for threads in [2, 4, 8] {
            let par = lint_methods(&methods, Some(&sums), threads);
            assert_eq!(seq, par, "threads={threads}");
        }
        assert!(seq.iter().any(|m| !m.findings.is_empty()));
    }

    #[test]
    fn findings_convert_to_warning_diagnostics() {
        let f = lint_src("def m(x)\n  waste = x\n  x\nend\n");
        let d = Diagnostic::from(&f[0]);
        assert_eq!(d.severity, diagnostics::Severity::Warning);
        assert_eq!(d.code, UNUSED_VARIABLE);
        assert_eq!(d.notes.len(), 1);
        assert_eq!(d.labels.len(), 1);
    }
}

//! Recursive-descent parser for the Ruby subset.
//!
//! Parsing is **error-resilient**: [`parse_program`] never fails.  A syntax
//! error inside a `def` records one `PARSE0002` diagnostic, poisons that
//! method ([`MethodDef::poisoned`]) and resynchronizes at the matching
//! `end`; a syntax error elsewhere records a `PARSE0001` diagnostic, emits
//! an [`ExprKind::Error`] placeholder item and resynchronizes at the next
//! statement boundary.  One broken method therefore still yields a fully
//! parsed rest-of-file.  [`parse_program_strict`] restores fail-stop
//! behaviour for callers that want a hard error.

use crate::ast::*;
use crate::lexer::{lex_strict, LexError};
use crate::span::Span;
use crate::token::{Kw, Token, TokenKind};
use diagnostics::Diagnostic;
use std::fmt;
use std::sync::Arc;

/// An error produced while parsing.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human readable description.
    pub message: String,
    /// Where the error occurred.
    pub span: Span,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { message: e.message, span: e.span }
    }
}

impl From<ParseError> for diagnostics::Diagnostic {
    fn from(e: ParseError) -> Self {
        diagnostics::Diagnostic::error("PARSE0001", e.message.clone())
            .with_label(e.span, "parsed up to here")
    }
}

type PResult<T> = Result<T, ParseError>;

/// Parses a full program (a sequence of classes, methods and expressions)
/// with error recovery, returning the AST together with every `LEX`/`PARSE`
/// recovery diagnostic.  The diagnostics are empty exactly when the source
/// was well formed; on error the AST still covers everything that parsed
/// (broken methods come back poisoned, broken statements as
/// [`ExprKind::Error`] placeholders).
///
/// # Examples
///
/// ```
/// let (prog, diags) = ruby_syntax::parse_program("class A\n def m()\n 1\n end\nend\n");
/// assert_eq!(prog.classes().len(), 1);
/// assert!(diags.is_empty());
/// ```
pub fn parse_program(src: &str) -> (Program, Vec<Diagnostic>) {
    parse_program_in_file(src, 0)
}

/// Like [`parse_program`], but every span in the resulting AST (and every
/// diagnostic) carries the given source-file id, so multi-file programs
/// (merged with [`Program::merge`]) keep their call sites distinguishable
/// even when byte offsets coincide across files.
pub fn parse_program_in_file(src: &str, file: u32) -> (Program, Vec<Diagnostic>) {
    let (tokens, mut diags) = crate::lexer::lex_in_file(src, file);
    let mut p = Parser::new(tokens);
    let program = p.parse_program_recovering();
    diags.append(&mut p.diags);
    (program, diags)
}

/// Fail-stop parsing: like [`parse_program`], but the first recovery
/// diagnostic is returned as a [`ParseError`] instead of a recovered AST.
///
/// # Errors
///
/// Returns a [`ParseError`] when the source does not conform to the subset
/// grammar.
///
/// # Examples
///
/// ```
/// let prog = ruby_syntax::parse_program_strict("class A\n def m()\n 1\n end\nend\n").unwrap();
/// assert_eq!(prog.classes().len(), 1);
/// assert!(ruby_syntax::parse_program_strict("def broken(").is_err());
/// ```
pub fn parse_program_strict(src: &str) -> Result<Program, ParseError> {
    parse_program_in_file_strict(src, 0)
}

/// [`parse_program_strict`] with an explicit source-file id.
///
/// # Errors
///
/// See [`parse_program_strict`].
pub fn parse_program_in_file_strict(src: &str, file: u32) -> Result<Program, ParseError> {
    let (program, diags) = parse_program_in_file(src, file);
    match diags.into_iter().next() {
        None => Ok(program),
        Some(d) => Err(ParseError { message: d.message.clone(), span: d.primary_span() }),
    }
}

/// Parses a single expression (useful for type-level code and tests).
///
/// # Errors
///
/// Returns a [`ParseError`] if the source is not a single valid expression.
///
/// # Examples
///
/// ```
/// let e = ruby_syntax::parse_expr("page[:info].first").unwrap();
/// assert!(matches!(e.kind, ruby_syntax::ExprKind::Call { .. }));
/// ```
pub fn parse_expr(src: &str) -> PResult<Expr> {
    let tokens = lex_strict(src)?;
    let mut p = Parser::new(tokens);
    p.skip_newlines();
    let e = p.parse_stmt()?;
    p.skip_newlines();
    p.expect_eof()?;
    Ok(e)
}

/// The precedence of a binary operator token, tightest highest: the
/// comparisons, then `<<` (as in Ruby, between the comparisons and `+`),
/// then `+`/`-`, then `*`, `/` and `%`.
fn binding(token: &TokenKind) -> Option<u8> {
    use TokenKind::*;
    Some(match token {
        Lt | Gt | Le | Ge | Spaceship => 0,
        Shl => 1,
        Plus | Minus => 2,
        Star | Slash | Percent => 3,
        _ => return None,
    })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    diags: Vec<Diagnostic>,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser { tokens, pos: 0, diags: Vec::new() }
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn check(&self, kind: &TokenKind) -> bool {
        self.peek() == kind
    }

    fn check_kw(&self, kw: Kw) -> bool {
        matches!(self.peek(), TokenKind::Keyword(k) if *k == kw)
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.check(kind) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        if self.check_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> PResult<Token> {
        if self.check(kind) {
            Ok(self.advance())
        } else {
            Err(self.error(format!(
                "expected {}, found {}",
                kind.describe(),
                self.peek().describe()
            )))
        }
    }

    fn expect_kw(&mut self, kw: Kw) -> PResult<Token> {
        if self.check_kw(kw) {
            Ok(self.advance())
        } else {
            Err(self.error(format!("expected keyword `{kw}`, found {}", self.peek().describe())))
        }
    }

    fn expect_eof(&mut self) -> PResult<()> {
        self.skip_newlines();
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.error(format!("unexpected {}", self.peek().describe())))
        }
    }

    fn error(&self, message: String) -> ParseError {
        ParseError { message, span: self.span() }
    }

    fn skip_newlines(&mut self) {
        while matches!(self.peek(), TokenKind::Newline) {
            self.advance();
        }
    }

    // ---- programs and items -------------------------------------------

    fn parse_program_recovering(&mut self) -> Program {
        let mut items = Vec::new();
        self.skip_newlines();
        while !matches!(self.peek(), TokenKind::Eof) {
            items.push(self.parse_item_recovering());
            self.skip_newlines();
        }
        Program { items }
    }

    // ---- error recovery -------------------------------------------------

    /// Parses one item, recovering from syntax errors instead of failing:
    /// a broken `def` comes back poisoned (one `PARSE0002` diagnostic, body
    /// replaced by an error placeholder, resynchronized at its matching
    /// `end`); any other broken item records a `PARSE0001` diagnostic,
    /// skips to the next statement boundary and yields an
    /// [`ExprKind::Error`] placeholder.
    fn parse_item_recovering(&mut self) -> Item {
        if self.check_kw(Kw::Def) {
            return Item::Method(self.parse_def_recovering());
        }
        let before = self.pos;
        match self.parse_item() {
            Ok(item) => item,
            Err(e) => {
                let span = e.span;
                self.diags.push(e.into());
                self.recover_to_stmt_boundary(before);
                Item::Expr(Expr::new(ExprKind::Error, span))
            }
        }
    }

    fn parse_def_recovering(&mut self) -> MethodDef {
        let start_pos = self.pos;
        match self.parse_def() {
            Ok(def) => def,
            Err(e) => {
                self.pos = start_pos;
                self.poison_def(e)
            }
        }
    }

    /// Positioned back at the `def` keyword of a method whose parse failed:
    /// records exactly one `PARSE0002` diagnostic, re-reads the method name
    /// (best effort, for navigation and the diagnostic message), skips past
    /// the matching `end` and returns the poisoned placeholder definition.
    fn poison_def(&mut self, cause: ParseError) -> MethodDef {
        let def_span = self.span();
        self.advance(); // the `def` keyword
        let mut singleton = false;
        if self.check_kw(Kw::SelfKw) && matches!(self.peek_at(1), TokenKind::Dot) {
            self.advance();
            self.advance();
            singleton = true;
        }
        let name = self.parse_method_name().unwrap_or_else(|_| "<invalid>".to_string());
        let end_span = self.resync_to_matching_end();
        self.diags.push(
            Diagnostic::error(
                "PARSE0002",
                format!("method `{name}` could not be parsed: {}", cause.message),
            )
            .with_label(cause.span, "syntax error here")
            .with_secondary_label(def_span, "this method is poisoned")
            .with_note(
                "the body was replaced by an error placeholder; checking, lints and \
                 effect inference skip this method",
            ),
        );
        MethodDef {
            name,
            singleton,
            params: Vec::new(),
            body: vec![Expr::new(ExprKind::Error, cause.span)],
            span: def_span.to(end_span),
            poisoned: true,
        }
    }

    /// Skips tokens until the `end` that closes an already-open block
    /// (depth 1 at entry), consuming it, and returns its span (or the Eof
    /// span if the block is unterminated).  Block-opening keywords seen on
    /// the way (`def`, `class`, `module`, `case`, block `do`, and
    /// statement-position `if`/`unless`/`while`) deepen the nesting so a
    /// well-formed tail inside the broken region cannot end it early.
    fn resync_to_matching_end(&mut self) -> Span {
        let mut depth: usize = 1;
        // True when the previous significant token could end an expression:
        // an `if`/`unless`/`while` right after one is a postfix modifier,
        // not a block opener.
        let mut after_expr = false;
        // Set between a counted `while` and its terminating newline so the
        // optional `do` of `while cond do` is not counted a second time.
        let mut while_cond = false;
        loop {
            let span = self.span();
            match self.peek() {
                TokenKind::Eof => return span,
                TokenKind::Keyword(Kw::End) => {
                    self.advance();
                    depth -= 1;
                    if depth == 0 {
                        return span;
                    }
                    after_expr = true;
                }
                TokenKind::Keyword(Kw::Def | Kw::Class | Kw::Module | Kw::Case) => {
                    depth += 1;
                    self.advance();
                    after_expr = false;
                }
                TokenKind::Keyword(Kw::While) => {
                    if !after_expr {
                        depth += 1;
                        while_cond = true;
                    }
                    self.advance();
                    after_expr = false;
                }
                TokenKind::Keyword(Kw::If | Kw::Unless) => {
                    if !after_expr {
                        depth += 1;
                    }
                    self.advance();
                    after_expr = false;
                }
                TokenKind::Keyword(Kw::Do) => {
                    if while_cond {
                        while_cond = false;
                    } else {
                        depth += 1;
                    }
                    self.advance();
                    after_expr = false;
                }
                TokenKind::Newline => {
                    while_cond = false;
                    self.advance();
                    after_expr = false;
                }
                k => {
                    after_expr = matches!(
                        k,
                        TokenKind::Ident(_)
                            | TokenKind::Const(_)
                            | TokenKind::IVar(_)
                            | TokenKind::GVar(_)
                            | TokenKind::Symbol(_)
                            | TokenKind::Int(_)
                            | TokenKind::Float(_)
                            | TokenKind::Str(_)
                            | TokenKind::RParen
                            | TokenKind::RBracket
                            | TokenKind::RBrace
                            | TokenKind::Keyword(
                                Kw::SelfKw | Kw::Nil | Kw::True | Kw::False | Kw::Break | Kw::Next
                            )
                    );
                    self.advance();
                }
            }
        }
    }

    /// Skips forward to the next statement boundary after a parse error,
    /// guaranteeing at least one token of progress so recovery always
    /// terminates.  Stops *before* tokens that close an enclosing construct
    /// (`end`, `else`, `elsif`, `when`, `}`) so the surrounding parse can
    /// resume.
    fn recover_to_stmt_boundary(&mut self, error_start: usize) {
        if self.pos == error_start && !matches!(self.peek(), TokenKind::Eof) {
            self.advance();
        }
        loop {
            match self.peek() {
                TokenKind::Eof
                | TokenKind::RBrace
                | TokenKind::Keyword(Kw::End | Kw::Else | Kw::Elsif | Kw::When) => break,
                TokenKind::Newline => {
                    self.advance();
                    break;
                }
                _ => {
                    self.advance();
                }
            }
        }
    }

    fn parse_item(&mut self) -> PResult<Item> {
        if self.check_kw(Kw::Class) || self.check_kw(Kw::Module) {
            Ok(Item::Class(self.parse_class()?))
        } else if self.check_kw(Kw::Def) {
            Ok(Item::Method(self.parse_def()?))
        } else {
            let e = self.parse_stmt()?;
            self.terminate_stmt()?;
            Ok(Item::Expr(e))
        }
    }

    fn terminate_stmt(&mut self) -> PResult<()> {
        match self.peek() {
            TokenKind::Newline => {
                self.advance();
                Ok(())
            }
            TokenKind::Eof
            | TokenKind::RBrace
            | TokenKind::Keyword(Kw::End)
            | TokenKind::Keyword(Kw::Else)
            | TokenKind::Keyword(Kw::Elsif)
            | TokenKind::Keyword(Kw::When) => Ok(()),
            other => {
                Err(self.error(format!("expected end of statement, found {}", other.describe())))
            }
        }
    }

    fn parse_class(&mut self) -> PResult<ClassDef> {
        let start = self.span();
        self.advance(); // class | module
        let name = match self.advance().kind {
            TokenKind::Const(name) => name,
            other => {
                return Err(self.error(format!("expected class name, found {}", other.describe())))
            }
        };
        let superclass =
            if self.eat(&TokenKind::Lt) { Some(self.parse_const_path()?) } else { None };
        self.skip_newlines();
        let mut body = Vec::new();
        while !self.check_kw(Kw::End) {
            if matches!(self.peek(), TokenKind::Eof) {
                return Err(self.error("unterminated class body (missing `end`)".to_string()));
            }
            // Recover inside the class body too: one broken method (or
            // statement) must not take the sibling definitions with it.
            body.push(self.parse_item_recovering());
            self.skip_newlines();
        }
        let end = self.expect_kw(Kw::End)?.span;
        Ok(ClassDef { name, superclass, body, span: start.to(end) })
    }

    fn parse_const_path(&mut self) -> PResult<String> {
        let mut parts = Vec::new();
        loop {
            match self.advance().kind {
                TokenKind::Const(name) => parts.push(name),
                other => {
                    return Err(self.error(format!("expected constant, found {}", other.describe())))
                }
            }
            if !self.eat(&TokenKind::ColonColon) {
                break;
            }
        }
        Ok(parts.join("::"))
    }

    fn parse_def(&mut self) -> PResult<MethodDef> {
        let start = self.expect_kw(Kw::Def)?.span;
        let mut singleton = false;
        if self.check_kw(Kw::SelfKw) && matches!(self.peek_at(1), TokenKind::Dot) {
            self.advance();
            self.advance();
            singleton = true;
        }
        let name = self.parse_method_name()?;
        let params = self.parse_params()?;
        self.skip_newlines();
        let body = self.parse_body(&[Kw::End])?;
        let end = self.expect_kw(Kw::End)?.span;
        Ok(MethodDef { name, singleton, params, body, span: start.to(end), poisoned: false })
    }

    fn parse_method_name(&mut self) -> PResult<String> {
        let tok = self.advance();
        let mut name = match tok.kind {
            TokenKind::Ident(name) => name,
            TokenKind::Const(name) => name,
            TokenKind::Keyword(kw) => kw.as_str().to_string(),
            TokenKind::LBracket if self.eat(&TokenKind::RBracket) => {
                let mut n = "[]".to_string();
                if self.eat(&TokenKind::Assign) {
                    n.push('=');
                }
                return Ok(n);
            }
            op @ (TokenKind::EqEq
            | TokenKind::Plus
            | TokenKind::Minus
            | TokenKind::Star
            | TokenKind::Slash
            | TokenKind::Percent
            | TokenKind::Pow
            | TokenKind::Lt
            | TokenKind::Gt
            | TokenKind::Le
            | TokenKind::Ge
            | TokenKind::Spaceship
            | TokenKind::Shl) => return Ok(op.symbol_str().to_string()),
            other => {
                return Err(self.error(format!("expected method name, found {}", other.describe())))
            }
        };
        // `def name=(v)` attribute writer.
        if self.check(&TokenKind::Assign) && matches!(self.peek_at(1), TokenKind::LParen) {
            self.advance();
            name.push('=');
        }
        Ok(name)
    }

    fn parse_params(&mut self) -> PResult<Vec<Param>> {
        let mut params = Vec::new();
        if self.eat(&TokenKind::LParen) {
            while !self.check(&TokenKind::RParen) {
                let block = self.eat(&TokenKind::Amp);
                let name = match self.advance().kind {
                    TokenKind::Ident(name) => name,
                    other => {
                        return Err(self
                            .error(format!("expected parameter name, found {}", other.describe())))
                    }
                };
                let default =
                    if self.eat(&TokenKind::Assign) { Some(self.parse_expr()?) } else { None };
                params.push(Param { name, default, block });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        if matches!(self.peek(), TokenKind::Newline) {
            self.advance();
        }
        Ok(params)
    }

    /// Parses statements until one of `terminators` (or `else`/`elsif`/
    /// `when`, which always terminate a body) is reached.
    fn parse_body(&mut self, terminators: &[Kw]) -> PResult<Vec<Expr>> {
        let mut body = Vec::new();
        loop {
            self.skip_newlines();
            match self.peek() {
                TokenKind::Eof | TokenKind::RBrace => break,
                TokenKind::Keyword(kw)
                    if terminators.contains(kw)
                        || matches!(kw, Kw::End | Kw::Else | Kw::Elsif | Kw::When) =>
                {
                    break
                }
                _ => {}
            }
            body.push(self.parse_stmt()?);
            match self.peek() {
                TokenKind::Newline => {
                    self.advance();
                }
                _ => break,
            }
        }
        Ok(body)
    }

    // ---- statements -----------------------------------------------------

    /// Parses a statement: an expression possibly wrapped by the `if` /
    /// `unless` / `while` postfix modifiers and the low precedence keyword
    /// boolean operators.
    fn parse_stmt(&mut self) -> PResult<Expr> {
        let mut e = self.parse_kw_bool()?;
        loop {
            if self.check_kw(Kw::If) {
                self.advance();
                let cond = self.parse_kw_bool()?;
                let span = e.span.to(cond.span);
                e = Expr::new(
                    ExprKind::If { arms: vec![CondArm { cond, body: vec![e] }], else_body: vec![] },
                    span,
                );
            } else if self.check_kw(Kw::Unless) {
                self.advance();
                let cond = self.parse_kw_bool()?;
                let span = e.span.to(cond.span);
                let neg = Expr::new(ExprKind::Not(Box::new(cond)), span);
                e = Expr::new(
                    ExprKind::If {
                        arms: vec![CondArm { cond: neg, body: vec![e] }],
                        else_body: vec![],
                    },
                    span,
                );
            } else if self.check_kw(Kw::While) {
                self.advance();
                let cond = self.parse_kw_bool()?;
                let span = e.span.to(cond.span);
                e = Expr::new(ExprKind::While { cond: Box::new(cond), body: vec![e] }, span);
            } else {
                break;
            }
        }
        Ok(e)
    }

    /// Keyword `and` / `or` / `not`, the lowest precedence operators.
    fn parse_kw_bool(&mut self) -> PResult<Expr> {
        if self.check_kw(Kw::Not) {
            let start = self.advance().span;
            let e = self.parse_kw_bool()?;
            let span = start.to(e.span);
            return Ok(Expr::new(ExprKind::Not(Box::new(e)), span));
        }
        let mut lhs = self.parse_expr()?;
        loop {
            let op = if self.check_kw(Kw::And) {
                BinOp::And
            } else if self.check_kw(Kw::Or) {
                BinOp::Or
            } else {
                break;
            };
            self.advance();
            let rhs = self.parse_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr::new(ExprKind::BoolOp { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }, span);
        }
        Ok(lhs)
    }

    // ---- expressions ------------------------------------------------------

    fn parse_expr(&mut self) -> PResult<Expr> {
        let lhs = self.parse_or()?;
        // Assignment (right associative) when the left side is an lvalue.
        let op = match self.peek() {
            TokenKind::Assign => Some(None),
            TokenKind::PlusAssign => Some(Some("+".to_string())),
            TokenKind::MinusAssign => Some(Some("-".to_string())),
            TokenKind::OrOrAssign => Some(Some("||".to_string())),
            _ => None,
        };
        if let Some(op) = op {
            if let Some(target) = Self::as_lvalue(&lhs) {
                self.advance();
                let value = self.parse_expr()?;
                let span = lhs.span.to(value.span);
                let kind = match op {
                    None => ExprKind::Assign { target, value: Box::new(value) },
                    Some(op) => ExprKind::OpAssign { target, op, value: Box::new(value) },
                };
                return Ok(Expr::new(kind, span));
            }
        }
        Ok(lhs)
    }

    fn as_lvalue(e: &Expr) -> Option<LValue> {
        match &e.kind {
            ExprKind::Ident(name) => Some(LValue::Local(name.clone())),
            ExprKind::IVar(name) => Some(LValue::IVar(name.clone())),
            ExprKind::GVar(name) => Some(LValue::GVar(name.clone())),
            ExprKind::Const(path) if path.len() == 1 => Some(LValue::Const(path[0].clone())),
            ExprKind::Call { recv: Some(recv), name, args, block: None } => {
                if name == "[]" && args.len() == 1 {
                    Some(LValue::Index { recv: recv.clone(), index: Box::new(args[0].clone()) })
                } else if args.is_empty() {
                    Some(LValue::Attr { recv: recv.clone(), name: name.clone() })
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn parse_or(&mut self) -> PResult<Expr> {
        let mut lhs = self.parse_and()?;
        while self.eat(&TokenKind::OrOr) {
            let rhs = self.parse_and()?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr::new(
                ExprKind::BoolOp { op: BinOp::Or, lhs: Box::new(lhs), rhs: Box::new(rhs) },
                span,
            );
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> PResult<Expr> {
        let mut lhs = self.parse_equality()?;
        while self.eat(&TokenKind::AndAnd) {
            let rhs = self.parse_equality()?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr::new(
                ExprKind::BoolOp { op: BinOp::And, lhs: Box::new(lhs), rhs: Box::new(rhs) },
                span,
            );
        }
        Ok(lhs)
    }

    fn parse_equality(&mut self) -> PResult<Expr> {
        let mut lhs = self.parse_binary(0)?;
        loop {
            let negate = match self.peek() {
                TokenKind::EqEq => false,
                TokenKind::NotEq => true,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_binary(0)?;
            let span = lhs.span.to(rhs.span);
            let eq = Expr::new(
                ExprKind::Call {
                    recv: Some(Box::new(lhs)),
                    name: "==".to_string(),
                    args: vec![rhs],
                    block: None,
                },
                span,
            );
            lhs = if negate { Expr::new(ExprKind::Not(Box::new(eq)), span) } else { eq };
        }
        Ok(lhs)
    }

    /// Parses a chain of the binary operators that bind at least as tightly
    /// as `min`, each a call of the method the operator names on its left
    /// operand.  The operators are left-associative; [`binding`] gives
    /// their precedence.
    fn parse_binary(&mut self, min: u8) -> PResult<Expr> {
        let mut lhs = self.parse_unary()?;
        while let Some(prec) = binding(self.peek()).filter(|&p| p >= min) {
            let name = self.advance().kind.symbol_str().to_string();
            let rhs = self.parse_binary(prec + 1)?;
            let span = lhs.span.to(rhs.span);
            lhs = Expr::new(
                ExprKind::Call { recv: Some(Box::new(lhs)), name, args: vec![rhs], block: None },
                span,
            );
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> PResult<Expr> {
        match self.peek() {
            TokenKind::Bang => {
                let start = self.advance().span;
                let e = self.parse_unary()?;
                let span = start.to(e.span);
                Ok(Expr::new(ExprKind::Not(Box::new(e)), span))
            }
            TokenKind::Minus => {
                let start = self.advance().span;
                let e = self.parse_unary()?;
                let span = start.to(e.span);
                match e.kind {
                    ExprKind::Int(i) => Ok(Expr::new(ExprKind::Int(-i), span)),
                    ExprKind::Float(f) => Ok(Expr::new(ExprKind::Float(-f), span)),
                    _ => Ok(Expr::new(
                        ExprKind::Call {
                            recv: Some(Box::new(e)),
                            name: "-@".to_string(),
                            args: vec![],
                            block: None,
                        },
                        span,
                    )),
                }
            }
            _ => self.parse_pow(),
        }
    }

    fn parse_pow(&mut self) -> PResult<Expr> {
        let lhs = self.parse_postfix()?;
        if self.eat(&TokenKind::Pow) {
            let rhs = self.parse_unary()?;
            let span = lhs.span.to(rhs.span);
            return Ok(Expr::new(
                ExprKind::Call {
                    recv: Some(Box::new(lhs)),
                    name: "**".to_string(),
                    args: vec![rhs],
                    block: None,
                },
                span,
            ));
        }
        Ok(lhs)
    }

    fn parse_postfix(&mut self) -> PResult<Expr> {
        let mut e = self.parse_primary()?;
        loop {
            match self.peek() {
                TokenKind::Dot => {
                    self.advance();
                    let name = self.parse_method_name()?;
                    let args = if self.check(&TokenKind::LParen) {
                        self.parse_call_args()?
                    } else {
                        Vec::new()
                    };
                    let block = self.parse_optional_block()?;
                    let span = e.span.to(self.span());
                    e = self.make_call(Some(Box::new(e)), name, args, block, span);
                }
                TokenKind::ColonColon => {
                    // Extend a constant path: `A::B`.
                    if let ExprKind::Const(path) = &e.kind {
                        let mut path = path.clone();
                        self.advance();
                        match self.advance().kind {
                            TokenKind::Const(name) => path.push(name),
                            other => {
                                return Err(self.error(format!(
                                    "expected constant after `::`, found {}",
                                    other.describe()
                                )))
                            }
                        }
                        let span = e.span.to(self.span());
                        e = Expr::new(ExprKind::Const(path), span);
                    } else {
                        break;
                    }
                }
                TokenKind::LBracket => {
                    self.advance();
                    self.skip_newlines();
                    let mut args = Vec::new();
                    while !self.check(&TokenKind::RBracket) {
                        args.push(self.parse_expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                        self.skip_newlines();
                    }
                    let end = self.expect(&TokenKind::RBracket)?.span;
                    let span = e.span.to(end);
                    e = Expr::new(
                        ExprKind::Call {
                            recv: Some(Box::new(e)),
                            name: "[]".to_string(),
                            args,
                            block: None,
                        },
                        span,
                    );
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn make_call(
        &self,
        recv: Option<Box<Expr>>,
        name: String,
        args: Vec<Expr>,
        block: Option<Arc<Block>>,
        span: Span,
    ) -> Expr {
        // Recognize `RDL.type_cast(e, "T")` so the checker can count casts.
        if name == "type_cast" && block.is_none() && args.len() >= 2 {
            if let Some(recv) = &recv {
                if matches!(&recv.kind, ExprKind::Const(path) if path == &["RDL".to_string()]) {
                    if let ExprKind::Str(ty) = &args[1].kind {
                        return Expr::new(
                            ExprKind::TypeCast { expr: Box::new(args[0].clone()), ty: ty.clone() },
                            span,
                        );
                    }
                }
            }
        }
        Expr::new(ExprKind::Call { recv, name, args, block }, span)
    }

    fn parse_call_args(&mut self) -> PResult<Vec<Expr>> {
        self.expect(&TokenKind::LParen)?;
        self.skip_newlines();
        let mut args = Vec::new();
        while !self.check(&TokenKind::RParen) {
            // Support bare label arguments as an implicit trailing hash:
            // `where(name: x, age: y)`.
            if matches!(self.peek(), TokenKind::Label(_)) {
                let pairs = self.parse_hash_pairs(&TokenKind::RParen)?;
                let span = self.span();
                args.push(Expr::new(ExprKind::Hash(pairs), span));
                break;
            }
            args.push(self.parse_expr()?);
            self.skip_newlines();
            if !self.eat(&TokenKind::Comma) {
                break;
            }
            self.skip_newlines();
        }
        self.expect(&TokenKind::RParen)?;
        Ok(args)
    }

    fn parse_optional_block(&mut self) -> PResult<Option<Arc<Block>>> {
        if self.check(&TokenKind::LBrace) {
            self.advance();
            let params = self.parse_block_params()?;
            let body = self.parse_body(&[])?;
            self.skip_newlines();
            self.expect(&TokenKind::RBrace)?;
            return Ok(Some(Arc::new(Block { params, body })));
        }
        if self.check_kw(Kw::Do) {
            self.advance();
            let params = self.parse_block_params()?;
            self.skip_newlines();
            let body = self.parse_body(&[Kw::End])?;
            self.expect_kw(Kw::End)?;
            return Ok(Some(Arc::new(Block { params, body })));
        }
        Ok(None)
    }

    fn parse_block_params(&mut self) -> PResult<Vec<String>> {
        let mut params = Vec::new();
        self.skip_newlines();
        if self.eat(&TokenKind::Pipe) {
            while !self.check(&TokenKind::Pipe) {
                match self.advance().kind {
                    TokenKind::Ident(name) => params.push(name),
                    other => {
                        return Err(self.error(format!(
                            "expected block parameter, found {}",
                            other.describe()
                        )))
                    }
                }
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::Pipe)?;
        }
        Ok(params)
    }

    fn parse_hash_pairs(&mut self, terminator: &TokenKind) -> PResult<Vec<(Expr, Expr)>> {
        let mut pairs = Vec::new();
        self.skip_newlines();
        while !self.check(terminator) {
            let key = match self.peek().clone() {
                TokenKind::Label(name) => {
                    let span = self.advance().span;
                    Expr::new(ExprKind::Sym(name), span)
                }
                _ => {
                    let key = self.parse_expr()?;
                    self.expect(&TokenKind::FatArrow)?;
                    key
                }
            };
            self.skip_newlines();
            let value = self.parse_expr()?;
            pairs.push((key, value));
            self.skip_newlines();
            if !self.eat(&TokenKind::Comma) {
                break;
            }
            self.skip_newlines();
        }
        Ok(pairs)
    }

    fn parse_primary(&mut self) -> PResult<Expr> {
        let span = self.span();
        match self.peek().clone() {
            TokenKind::Keyword(Kw::Nil) => {
                self.advance();
                Ok(Expr::new(ExprKind::Nil, span))
            }
            TokenKind::Keyword(Kw::True) => {
                self.advance();
                Ok(Expr::new(ExprKind::True, span))
            }
            TokenKind::Keyword(Kw::False) => {
                self.advance();
                Ok(Expr::new(ExprKind::False, span))
            }
            TokenKind::Keyword(Kw::SelfKw) => {
                self.advance();
                Ok(Expr::new(ExprKind::SelfExpr, span))
            }
            TokenKind::Keyword(Kw::Return) => {
                self.advance();
                let value = if self.stmt_ends_here()
                    || self.check_kw(Kw::If)
                    || self.check_kw(Kw::Unless)
                {
                    None
                } else {
                    Some(Box::new(self.parse_expr()?))
                };
                Ok(Expr::new(ExprKind::Return(value), span))
            }
            TokenKind::Keyword(Kw::Break) => {
                self.advance();
                Ok(Expr::new(ExprKind::Break, span))
            }
            TokenKind::Keyword(Kw::Next) => {
                self.advance();
                Ok(Expr::new(ExprKind::Next, span))
            }
            TokenKind::Keyword(Kw::Yield) => {
                self.advance();
                let args = if self.check(&TokenKind::LParen) {
                    self.parse_call_args()?
                } else {
                    Vec::new()
                };
                Ok(Expr::new(ExprKind::Yield(args), span))
            }
            TokenKind::Keyword(Kw::If) => self.parse_if(false),
            TokenKind::Keyword(Kw::Unless) => self.parse_if(true),
            TokenKind::Keyword(Kw::While) => self.parse_while(),
            TokenKind::Keyword(Kw::Case) => self.parse_case(),
            TokenKind::Int(i) => {
                self.advance();
                Ok(Expr::new(ExprKind::Int(i), span))
            }
            TokenKind::Float(f) => {
                self.advance();
                Ok(Expr::new(ExprKind::Float(f), span))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::new(ExprKind::Str(s), span))
            }
            TokenKind::Symbol(s) => {
                self.advance();
                Ok(Expr::new(ExprKind::Sym(s), span))
            }
            TokenKind::IVar(name) => {
                self.advance();
                Ok(Expr::new(ExprKind::IVar(name), span))
            }
            TokenKind::GVar(name) => {
                self.advance();
                Ok(Expr::new(ExprKind::GVar(name), span))
            }
            TokenKind::Const(name) => {
                self.advance();
                Ok(Expr::new(ExprKind::Const(vec![name]), span))
            }
            TokenKind::Ident(name) => {
                self.advance();
                if self.check(&TokenKind::LParen) {
                    let args = self.parse_call_args()?;
                    let block = self.parse_optional_block()?;
                    let full = span.to(self.span());
                    Ok(self.make_call(None, name, args, block, full))
                } else if self.check(&TokenKind::LBrace) || self.check_kw(Kw::Do) {
                    let block = self.parse_optional_block()?;
                    let full = span.to(self.span());
                    Ok(Expr::new(ExprKind::Call { recv: None, name, args: vec![], block }, full))
                } else {
                    Ok(Expr::new(ExprKind::Ident(name), span))
                }
            }
            TokenKind::LParen => {
                self.advance();
                self.skip_newlines();
                let e = self.parse_stmt()?;
                self.skip_newlines();
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::LBracket => {
                self.advance();
                self.skip_newlines();
                let mut items = Vec::new();
                while !self.check(&TokenKind::RBracket) {
                    items.push(self.parse_expr()?);
                    self.skip_newlines();
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                    self.skip_newlines();
                }
                let end = self.expect(&TokenKind::RBracket)?.span;
                Ok(Expr::new(ExprKind::Array(items), span.to(end)))
            }
            TokenKind::LBrace => {
                self.advance();
                let pairs = self.parse_hash_pairs(&TokenKind::RBrace)?;
                self.skip_newlines();
                let end = self.expect(&TokenKind::RBrace)?.span;
                Ok(Expr::new(ExprKind::Hash(pairs), span.to(end)))
            }
            TokenKind::Arrow => {
                self.advance();
                let mut params = Vec::new();
                if self.eat(&TokenKind::LParen) {
                    while !self.check(&TokenKind::RParen) {
                        match self.advance().kind {
                            TokenKind::Ident(name) => params.push(name),
                            other => {
                                return Err(self.error(format!(
                                    "expected lambda parameter, found {}",
                                    other.describe()
                                )))
                            }
                        }
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                }
                self.expect(&TokenKind::LBrace)?;
                let body = self.parse_body(&[])?;
                self.skip_newlines();
                let end = self.expect(&TokenKind::RBrace)?.span;
                Ok(Expr::new(ExprKind::Lambda(Arc::new(Block { params, body })), span.to(end)))
            }
            other => Err(self.error(format!("unexpected {}", other.describe()))),
        }
    }

    fn stmt_ends_here(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Newline
                | TokenKind::Eof
                | TokenKind::RBrace
                | TokenKind::RParen
                | TokenKind::Keyword(Kw::End)
        )
    }

    fn parse_if(&mut self, negated: bool) -> PResult<Expr> {
        let start = self.advance().span; // if | unless
        let cond = self.parse_kw_bool()?;
        let cond = if negated {
            let span = cond.span;
            Expr::new(ExprKind::Not(Box::new(cond)), span)
        } else {
            cond
        };
        self.eat_kw(Kw::Then);
        self.skip_newlines();
        let body = self.parse_body(&[Kw::End, Kw::Else, Kw::Elsif])?;
        let mut arms = vec![CondArm { cond, body }];
        let mut else_body = Vec::new();
        loop {
            self.skip_newlines();
            if self.check_kw(Kw::Elsif) {
                self.advance();
                let cond = self.parse_kw_bool()?;
                self.eat_kw(Kw::Then);
                self.skip_newlines();
                let body = self.parse_body(&[Kw::End, Kw::Else, Kw::Elsif])?;
                arms.push(CondArm { cond, body });
            } else if self.check_kw(Kw::Else) {
                self.advance();
                self.skip_newlines();
                else_body = self.parse_body(&[Kw::End])?;
            } else {
                break;
            }
        }
        let end = self.expect_kw(Kw::End)?.span;
        Ok(Expr::new(ExprKind::If { arms, else_body }, start.to(end)))
    }

    fn parse_while(&mut self) -> PResult<Expr> {
        let start = self.expect_kw(Kw::While)?.span;
        let cond = self.parse_kw_bool()?;
        self.eat_kw(Kw::Do);
        self.skip_newlines();
        let body = self.parse_body(&[Kw::End])?;
        let end = self.expect_kw(Kw::End)?.span;
        Ok(Expr::new(ExprKind::While { cond: Box::new(cond), body }, start.to(end)))
    }

    fn parse_case(&mut self) -> PResult<Expr> {
        let start = self.expect_kw(Kw::Case)?.span;
        let subject = self.parse_expr()?;
        self.skip_newlines();
        let mut arms = Vec::new();
        let mut else_body = Vec::new();
        loop {
            self.skip_newlines();
            if self.check_kw(Kw::When) {
                self.advance();
                let cond = self.parse_expr()?;
                self.eat_kw(Kw::Then);
                self.skip_newlines();
                let body = self.parse_body(&[Kw::End, Kw::Else, Kw::When])?;
                arms.push(CondArm { cond, body });
            } else if self.check_kw(Kw::Else) {
                self.advance();
                self.skip_newlines();
                else_body = self.parse_body(&[Kw::End])?;
            } else {
                break;
            }
        }
        let end = self.expect_kw(Kw::End)?.span;
        Ok(Expr::new(ExprKind::Case { subject: Box::new(subject), arms, else_body }, start.to(end)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure1_method() {
        let src = r#"
class User < ActiveRecord::Base
  def self.available?(name, email)
    return false if reserved?(name)
    return true if !User.exists?({ username: name })
    return User.joins(:emails).exists?({ staged: true, username: name, emails: { email: email } })
  end
end
"#;
        let prog = parse_program_strict(src).unwrap();
        let classes = prog.classes();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].name, "User");
        assert_eq!(classes[0].superclass.as_deref(), Some("ActiveRecord::Base"));
        let m = prog.find_method("User", "available?").unwrap();
        assert!(m.singleton);
        assert_eq!(m.params.len(), 2);
        assert_eq!(m.body.len(), 3);
    }

    #[test]
    fn parses_figure2_method() {
        let src = r#"
def image_url()
  page[:info].first
end
"#;
        let prog = parse_program_strict(src).unwrap();
        let m = prog.find_method("Object", "image_url").unwrap();
        assert_eq!(m.body.len(), 1);
        match &m.body[0].kind {
            ExprKind::Call { name, recv, .. } => {
                assert_eq!(name, "first");
                assert!(recv.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_type_cast() {
        let e = parse_expr(r#"RDL.type_cast(page[:info], "Array<String>").first"#).unwrap();
        match &e.kind {
            ExprKind::Call { recv: Some(recv), name, .. } => {
                assert_eq!(name, "first");
                assert!(matches!(recv.kind, ExprKind::TypeCast { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_index_assignment() {
        let e = parse_expr("a[0] = 'one'").unwrap();
        match &e.kind {
            ExprKind::Assign { target: LValue::Index { .. }, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_blocks() {
        let e = parse_expr("array.map { |val| val + 1 }").unwrap();
        match &e.kind {
            ExprKind::Call { name, block: Some(block), .. } => {
                assert_eq!(name, "map");
                assert_eq!(block.params, vec!["val".to_string()]);
                assert_eq!(block.body.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        let e = parse_expr("items.each do |x, y|\n x\n y\nend").unwrap();
        match &e.kind {
            ExprKind::Call { name, block: Some(block), .. } => {
                assert_eq!(name, "each");
                assert_eq!(block.params.len(), 2);
                assert_eq!(block.body.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_chained_query() {
        let e =
            parse_expr("Post.includes(:topic)\n  .where('topics.title IN (SELECT 1)', self.id)")
                .unwrap();
        match &e.kind {
            ExprKind::Call { name, args, .. } => {
                assert_eq!(name, "where");
                assert_eq!(args.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_if_elsif_else() {
        let e = parse_expr("if a\n 1\nelsif b\n 2\nelse\n 3\nend").unwrap();
        match &e.kind {
            ExprKind::If { arms, else_body } => {
                assert_eq!(arms.len(), 2);
                assert_eq!(else_body.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_unless_and_postfix() {
        let e = parse_expr("return false unless ok?()").unwrap();
        assert!(matches!(e.kind, ExprKind::If { .. }));
        let e = parse_expr("x = 1 if y").unwrap();
        assert!(matches!(e.kind, ExprKind::If { .. }));
    }

    #[test]
    fn parses_case_when() {
        let e = parse_expr("case x\nwhen 1\n 'a'\nwhen 2\n 'b'\nelse\n 'c'\nend").unwrap();
        match &e.kind {
            ExprKind::Case { arms, else_body, .. } => {
                assert_eq!(arms.len(), 2);
                assert_eq!(else_body.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_hash_with_fat_arrows_and_labels() {
        let e = parse_expr("{ :action => prompt, name: 'x' }").unwrap();
        match &e.kind {
            ExprKind::Hash(pairs) => assert_eq!(pairs.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_label_args_as_trailing_hash() {
        let e = parse_expr("User.exists?(username: name)").unwrap();
        match &e.kind {
            ExprKind::Call { name, args, .. } => {
                assert_eq!(name, "exists?");
                assert_eq!(args.len(), 1);
                assert!(matches!(args[0].kind, ExprKind::Hash(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_operator_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match &e.kind {
            ExprKind::Call { name, args, .. } => {
                assert_eq!(name, "+");
                assert!(matches!(&args[0].kind, ExprKind::Call { name, .. } if name == "*"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_shovel_between_comparison_and_additive() {
        fn split(e: &Expr) -> (&str, &Expr, &Expr) {
            match &e.kind {
                ExprKind::Call { recv: Some(recv), name, args, .. } => (name, recv, &args[0]),
                other => panic!("unexpected {other:?}"),
            }
        }
        let e = parse_expr("a << b + 1").unwrap();
        let (op, _, rhs) = split(&e);
        assert_eq!((op, split(rhs).0), ("<<", "+"));
        let e = parse_expr("a < b << 1").unwrap();
        let (op, _, rhs) = split(&e);
        assert_eq!((op, split(rhs).0), ("<", "<<"));
        let e = parse_expr("a << b << c").unwrap();
        let (op, lhs, _) = split(&e);
        assert_eq!((op, split(lhs).0), ("<<", "<<"));
        let prog =
            parse_program_strict("class Log\n  def <<(line)\n    line\n  end\nend\n").unwrap();
        assert_eq!(prog.methods()[0].1.name, "<<");
    }

    #[test]
    fn parses_keyword_and_or() {
        let e = parse_expr("a and b or c").unwrap();
        assert!(matches!(e.kind, ExprKind::BoolOp { op: BinOp::Or, .. }));
    }

    #[test]
    fn parses_while_loop() {
        let e = parse_expr("while x < 10\n x = x + 1\nend").unwrap();
        assert!(matches!(e.kind, ExprKind::While { .. }));
    }

    #[test]
    fn parses_lambda() {
        let e = parse_expr("->(x) { x + 1 }").unwrap();
        assert!(matches!(e.kind, ExprKind::Lambda(_)));
    }

    #[test]
    fn parses_op_assign() {
        let e = parse_expr("x += 1").unwrap();
        assert!(matches!(e.kind, ExprKind::OpAssign { .. }));
        let e = parse_expr("@memo ||= compute()").unwrap();
        assert!(matches!(e.kind, ExprKind::OpAssign { .. }));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_expr("def").is_err());
        assert!(parse_program_strict("class Foo\n def m\n end").is_err());
        assert!(parse_expr("1 +").is_err());
    }

    #[test]
    fn broken_method_poisons_only_itself() {
        let src = "def good()\n  1\nend\ndef bad()\n  x = 1 +\nend\ndef tail()\n  2\nend\n";
        let (prog, diags) = parse_program(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "PARSE0002");
        assert!(diags[0].message.contains("`bad`"), "{diags:?}");
        let methods = prog.methods();
        assert_eq!(methods.len(), 3, "{methods:?}");
        let bad = prog.find_method("Object", "bad").unwrap();
        assert!(bad.poisoned);
        assert!(matches!(bad.body[..], [Expr { kind: ExprKind::Error, .. }]));
        let good = prog.find_method("Object", "good").unwrap();
        assert!(!good.poisoned);
        assert_eq!(good.body.len(), 1);
        let tail = prog.find_method("Object", "tail").unwrap();
        assert!(!tail.poisoned, "recovery must resynchronize before `tail`");
        assert_eq!(tail.body.len(), 1);
    }

    #[test]
    fn broken_method_in_class_spares_its_siblings() {
        let src = "class C\n  def a()\n    1\n  end\n  def b()\n    2 +\n  end\n  def c()\n    3\n  end\nend\n";
        let (prog, diags) = parse_program(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(prog.classes().len(), 1);
        assert!(prog.find_method("C", "b").unwrap().poisoned);
        assert!(!prog.find_method("C", "a").unwrap().poisoned);
        assert!(!prog.find_method("C", "c").unwrap().poisoned);
    }

    #[test]
    fn resync_skips_nested_blocks_inside_the_broken_method() {
        // The broken method contains nested well-formed `if`/`while`/`do`
        // blocks; their `end`s must not terminate the poison region early.
        let src = "def broken()\n  if x\n    while y\n      z\n    end\n  end\n  items.each do |i|\n    i\n  end\n  1 +\nend\ndef after()\n  4\nend\n";
        let (prog, diags) = parse_program(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(prog.methods().len(), 2, "{:?}", prog.methods());
        assert!(!prog.find_method("Object", "after").unwrap().poisoned);
    }

    #[test]
    fn broken_statement_recovers_at_the_next_line() {
        let src = "x = ]\ny = 2\n";
        let (prog, diags) = parse_program(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "PARSE0001");
        assert_eq!(prog.items.len(), 2, "{prog:?}");
        assert!(matches!(prog.items[0], Item::Expr(Expr { kind: ExprKind::Error, .. })));
        assert!(matches!(prog.items[1], Item::Expr(Expr { kind: ExprKind::Assign { .. }, .. })));
    }

    #[test]
    fn unterminated_def_poisons_to_eof_without_losing_earlier_items() {
        let (prog, diags) = parse_program("def a()\n 1\nend\ndef b()\n x =\n");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(prog.methods().len(), 2);
        assert!(!prog.find_method("Object", "a").unwrap().poisoned);
        assert!(prog.find_method("Object", "b").unwrap().poisoned);
    }

    #[test]
    fn lex_errors_surface_as_parse_diagnostics_with_recovery() {
        let (prog, diags) = parse_program("def m()\n  s = 'unterminated\nend\n");
        assert!(!diags.is_empty());
        assert!(diags.iter().any(|d| d.code == "LEX0001"), "{diags:?}");
        // The placeholder string still parses into a method body.
        assert_eq!(prog.methods().len(), 1);
    }

    #[test]
    fn parses_nested_classes_and_methods() {
        let src = "class A\n class B\n def m()\n 1\n end\n end\n def n()\n 2\n end\nend";
        let prog = parse_program_strict(src).unwrap();
        assert_eq!(prog.classes().len(), 2);
        assert_eq!(prog.methods().len(), 2);
        assert!(prog.find_method("B", "m").is_some());
        assert!(prog.find_method("A", "n").is_some());
    }

    #[test]
    fn parses_attr_assignment() {
        let e = parse_expr("user.name = 'bob'").unwrap();
        assert!(matches!(e.kind, ExprKind::Assign { target: LValue::Attr { .. }, .. }));
    }

    #[test]
    fn parses_yield_and_break() {
        let prog = parse_program_strict("def each_page()\n yield(1)\n break\nend").unwrap();
        let m = prog.find_method("Object", "each_page").unwrap();
        assert_eq!(m.body.len(), 2);
    }
}

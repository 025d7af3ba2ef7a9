//! A hand written lexer for the Ruby subset.
//!
//! The lexer is line oriented: logical statement boundaries are reported as
//! [`TokenKind::Newline`] tokens. Newlines are suppressed inside parentheses
//! and brackets, after binary operators and commas (line continuations), and
//! before a leading-dot method chain, which matches how Ruby treats those
//! positions.
//!
//! Lexing is **error-resilient**: malformed input never aborts the token
//! stream.  Each error site records a span-carrying `LEX0001`
//! [`diagnostics::Diagnostic`] and substitutes a placeholder (or skips the
//! offending byte), so the parser always receives a complete,
//! `Eof`-terminated stream.  Use [`lex_strict`] when the first error should
//! fail hard instead.

use crate::span::Span;
use crate::token::{Kw, Token, TokenKind};
use diagnostics::Diagnostic;
use std::fmt;

/// An error produced while lexing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human readable description.
    pub message: String,
    /// Where the error occurred.
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LexError {}

impl From<LexError> for diagnostics::Diagnostic {
    fn from(e: LexError) -> Self {
        diagnostics::Diagnostic::error("LEX0001", e.message.clone())
            .with_label(e.span, "lexed here")
    }
}

/// Converts Ruby subset source text into a token stream.
pub struct Lexer<'src> {
    src: &'src str,
    bytes: &'src [u8],
    pos: usize,
    line: u32,
    file: u32,
    paren_depth: i32,
    bracket_depth: i32,
    tokens: Vec<Token>,
    diags: Vec<Diagnostic>,
}

impl<'src> Lexer<'src> {
    /// Creates a lexer over `src` (file id `0`, the single-file default).
    pub fn new(src: &'src str) -> Self {
        Lexer::in_file(src, 0)
    }

    /// Creates a lexer over `src` stamping every token span with `file`, so
    /// multi-file programs keep their spans distinguishable (see
    /// [`diagnostics::Span::file`]).
    pub fn in_file(src: &'src str, file: u32) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            line: 1,
            file,
            paren_depth: 0,
            bracket_depth: 0,
            tokens: Vec::new(),
            diags: Vec::new(),
        }
    }

    fn error(&mut self, message: impl Into<String>, span: Span) {
        self.diags.push(Diagnostic::error("LEX0001", message).with_label(span, "lexed here"));
    }

    fn span_from(&self, start: usize, line: u32) -> Span {
        Span::in_file(self.file, start, self.pos, line)
    }

    /// Lexes the entire input, returning the token stream (terminated by
    /// [`TokenKind::Eof`]) together with every recovery diagnostic recorded
    /// along the way.  The stream is always complete: each malformed
    /// construct is replaced by a placeholder token (or skipped) and lexing
    /// continues, so one bad byte never hides the rest of the file.
    pub fn tokenize(mut self) -> (Vec<Token>, Vec<Diagnostic>) {
        while self.pos < self.bytes.len() {
            self.skip_spaces_and_comments();
            if self.pos >= self.bytes.len() {
                break;
            }
            let start = self.pos;
            let line = self.line;
            let c = self.bytes[self.pos];
            match c {
                b'\n' => {
                    self.pos += 1;
                    self.line += 1;
                    self.maybe_push_newline(start, line);
                }
                b';' => {
                    self.pos += 1;
                    self.push(TokenKind::Newline, start, line);
                }
                b'"' | b'\'' => self.lex_string(c),
                b'0'..=b'9' => self.lex_number(),
                b'@' => self.lex_ivar(),
                b'$' => self.lex_gvar(),
                b':' => self.lex_colon(),
                b'a'..=b'z' | b'_' => self.lex_ident(),
                b'A'..=b'Z' => self.lex_const(),
                _ => self.lex_operator(),
            }
        }
        // Ensure the final statement is terminated before EOF.
        if !matches!(self.tokens.last().map(|t| &t.kind), Some(TokenKind::Newline) | None) {
            let span = self.span_from(self.pos, self.line);
            self.tokens.push(Token::new(TokenKind::Newline, span));
        }
        let span = self.span_from(self.pos, self.line);
        self.tokens.push(Token::new(TokenKind::Eof, span));
        (self.tokens, self.diags)
    }

    fn skip_spaces_and_comments(&mut self) {
        loop {
            match self.bytes.get(self.pos) {
                Some(b' ') | Some(b'\t') | Some(b'\r') => self.pos += 1,
                Some(b'\\') if self.bytes.get(self.pos + 1) == Some(&b'\n') => {
                    // Explicit line continuation.
                    self.pos += 2;
                    self.line += 1;
                }
                Some(b'#') => {
                    while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn maybe_push_newline(&mut self, start: usize, line: u32) {
        if self.paren_depth > 0 || self.bracket_depth > 0 {
            return;
        }
        // Suppress after tokens that cannot end a statement.
        let suppress_after = match self.tokens.last().map(|t| &t.kind) {
            None | Some(TokenKind::Newline) => true,
            Some(k) => matches!(
                k,
                TokenKind::Plus
                    | TokenKind::Minus
                    | TokenKind::Star
                    | TokenKind::Slash
                    | TokenKind::Percent
                    | TokenKind::Pow
                    | TokenKind::EqEq
                    | TokenKind::NotEq
                    | TokenKind::Lt
                    | TokenKind::Gt
                    | TokenKind::Le
                    | TokenKind::Ge
                    | TokenKind::AndAnd
                    | TokenKind::OrOr
                    | TokenKind::Assign
                    | TokenKind::PlusAssign
                    | TokenKind::MinusAssign
                    | TokenKind::OrOrAssign
                    | TokenKind::FatArrow
                    | TokenKind::Arrow
                    | TokenKind::Comma
                    | TokenKind::Dot
                    | TokenKind::ColonColon
                    | TokenKind::LParen
                    | TokenKind::LBracket
                    | TokenKind::LBrace
                    | TokenKind::Pipe
                    | TokenKind::Label(_)
                    | TokenKind::Keyword(Kw::And)
                    | TokenKind::Keyword(Kw::Or)
                    | TokenKind::Keyword(Kw::Not)
                    | TokenKind::Keyword(Kw::Then)
                    | TokenKind::Keyword(Kw::Do)
                    | TokenKind::Keyword(Kw::Else)
            ),
        };
        if suppress_after {
            return;
        }
        // Suppress before a leading-dot method chain on the next line.
        let mut look = self.pos;
        loop {
            match self.bytes.get(look) {
                Some(b' ') | Some(b'\t') | Some(b'\r') | Some(b'\n') => look += 1,
                Some(b'#') => {
                    while look < self.bytes.len() && self.bytes[look] != b'\n' {
                        look += 1;
                    }
                }
                _ => break,
            }
        }
        if self.bytes.get(look) == Some(&b'.') && self.bytes.get(look + 1) != Some(&b'.') {
            return;
        }
        self.push(TokenKind::Newline, start, line);
    }

    fn push(&mut self, kind: TokenKind, start: usize, line: u32) {
        let span = self.span_from(start, line);
        self.tokens.push(Token::new(kind, span));
    }

    fn lex_string(&mut self, quote: u8) {
        let start = self.pos;
        let line = self.line;
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => {
                    // Recovery: keep what was collected as the literal's
                    // content so the rest of the (empty) input still lexes.
                    let span = self.span_from(start, line);
                    self.error("unterminated string literal", span);
                    break;
                }
                Some(&c) if c == quote => {
                    self.pos += 1;
                    break;
                }
                Some(b'\\') if quote == b'"' => {
                    let esc = self.bytes.get(self.pos + 1).copied();
                    match esc {
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'0') => out.push('\0'),
                        Some(b'e') => out.push('\u{1b}'),
                        Some(b's') => out.push(' '),
                        Some(b'\\') => out.push('\\'),
                        Some(b'"') => out.push('"'),
                        Some(b'\'') => out.push('\''),
                        // A backslash before a real newline elides it (line
                        // continuation inside the literal), but the line
                        // counter must still advance or every span after the
                        // literal reports the wrong line.
                        Some(b'\n') => self.line += 1,
                        Some(other) => {
                            out.push('\\');
                            out.push(other as char);
                        }
                        None => out.push('\\'),
                    }
                    self.pos += 2;
                }
                Some(b'\\') if self.bytes.get(self.pos + 1) == Some(&b'\'') => {
                    out.push('\'');
                    self.pos += 2;
                }
                Some(&b'\n') => {
                    out.push('\n');
                    self.line += 1;
                    self.pos += 1;
                }
                Some(&c) => {
                    // Collect a full UTF-8 character.
                    let ch_start = self.pos;
                    let ch_len = utf8_len(c);
                    self.pos += ch_len;
                    out.push_str(&self.src[ch_start..self.pos.min(self.src.len())]);
                }
            }
        }
        self.push(TokenKind::Str(out), start, line);
    }

    fn lex_number(&mut self) {
        let start = self.pos;
        let line = self.line;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9') | Some(b'_')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.bytes.get(self.pos) == Some(&b'.')
            && matches!(self.bytes.get(self.pos + 1), Some(b'0'..=b'9'))
        {
            is_float = true;
            self.pos += 1;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9') | Some(b'_')) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e') | Some(b'E'))
            && matches!(self.bytes.get(self.pos + 1), Some(b'0'..=b'9') | Some(b'-') | Some(b'+'))
        {
            is_float = true;
            self.pos += 2;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text: String = self.src[start..self.pos].chars().filter(|c| *c != '_').collect();
        let kind = if is_float {
            match text.parse::<f64>() {
                Ok(v) => TokenKind::Float(v),
                Err(_) => {
                    let span = self.span_from(start, line);
                    self.error(format!("invalid float literal `{text}`"), span);
                    TokenKind::Float(0.0)
                }
            }
        } else {
            match text.parse::<i64>() {
                Ok(v) => TokenKind::Int(v),
                Err(_) => {
                    let span = self.span_from(start, line);
                    self.error(format!("invalid integer literal `{text}`"), span);
                    TokenKind::Int(0)
                }
            }
        };
        self.push(kind, start, line);
    }

    fn ident_tail(&mut self) -> String {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'a'..=b'z') | Some(b'A'..=b'Z') | Some(b'0'..=b'9') | Some(b'_')
        ) {
            self.pos += 1;
        }
        self.src[start..self.pos].to_string()
    }

    fn lex_ivar(&mut self) {
        let start = self.pos;
        let line = self.line;
        self.pos += 1;
        let name = self.ident_tail();
        if name.is_empty() {
            // Recovery: drop the bare sigil and continue with the next byte.
            let span = self.span_from(start, line);
            self.error("expected instance variable name after `@`", span);
            return;
        }
        self.push(TokenKind::IVar(name), start, line);
    }

    fn lex_gvar(&mut self) {
        let start = self.pos;
        let line = self.line;
        self.pos += 1;
        let name = self.ident_tail();
        if name.is_empty() {
            let span = self.span_from(start, line);
            self.error("expected global variable name after `$`", span);
            return;
        }
        self.push(TokenKind::GVar(name), start, line);
    }

    fn lex_colon(&mut self) {
        let start = self.pos;
        let line = self.line;
        if self.bytes.get(self.pos + 1) == Some(&b':') {
            self.pos += 2;
            self.push(TokenKind::ColonColon, start, line);
            return;
        }
        // A symbol: `:` immediately followed by an identifier (possibly
        // ending in ? or !) or an operator name like :[] or :+.
        match self.bytes.get(self.pos + 1) {
            Some(b'a'..=b'z') | Some(b'A'..=b'Z') | Some(b'_') => {
                self.pos += 1;
                let mut name = self.ident_tail();
                if matches!(self.bytes.get(self.pos), Some(b'?') | Some(b'!')) {
                    name.push(self.bytes[self.pos] as char);
                    self.pos += 1;
                }
                if self.bytes.get(self.pos) == Some(&b'=')
                    && self.bytes.get(self.pos + 1) != Some(&b'=')
                    && self.bytes.get(self.pos + 1) != Some(&b'>')
                {
                    // attribute-writer symbols such as :name=
                    name.push('=');
                    self.pos += 1;
                }
                self.push(TokenKind::Symbol(name), start, line);
            }
            Some(b'[') if self.bytes.get(self.pos + 2) == Some(&b']') => {
                if self.bytes.get(self.pos + 3) == Some(&b'=') {
                    self.pos += 4;
                    self.push(TokenKind::Symbol("[]=".to_string()), start, line);
                } else {
                    self.pos += 3;
                    self.push(TokenKind::Symbol("[]".to_string()), start, line);
                }
            }
            // Operator symbols such as :+, :**, :<=, :==, :<=>, :<<.
            Some(b'+') | Some(b'-') | Some(b'*') | Some(b'/') | Some(b'%') | Some(b'<')
            | Some(b'>') | Some(b'=') => {
                let rest = &self.src[self.pos + 1..];
                let op = ["<=>", "**", "<<", "<=", ">=", "==", "+", "-", "*", "/", "%", "<", ">"]
                    .iter()
                    .find(|op| rest.starts_with(**op))
                    .copied();
                match op {
                    Some(op) => {
                        self.pos += 1 + op.len();
                        self.push(TokenKind::Symbol(op.to_string()), start, line);
                    }
                    None => {
                        self.pos += 1;
                        self.push(TokenKind::Colon, start, line);
                    }
                }
            }
            _ => {
                self.pos += 1;
                self.push(TokenKind::Colon, start, line);
            }
        }
    }

    fn lex_ident(&mut self) {
        let start = self.pos;
        let line = self.line;
        let mut name = self.ident_tail();
        if matches!(self.bytes.get(self.pos), Some(b'?') | Some(b'!')) {
            name.push(self.bytes[self.pos] as char);
            self.pos += 1;
        }
        // A label `name:` (not followed by another `:`).
        if self.bytes.get(self.pos) == Some(&b':')
            && self.bytes.get(self.pos + 1) != Some(&b':')
            && !name.ends_with('?')
            && !name.ends_with('!')
            && Kw::from_source(&name).is_none()
        {
            self.pos += 1;
            self.push(TokenKind::Label(name), start, line);
            return;
        }
        let kind = match Kw::from_source(&name) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(name),
        };
        self.push(kind, start, line);
    }

    fn lex_const(&mut self) {
        let start = self.pos;
        let line = self.line;
        let name = self.ident_tail();
        if self.bytes.get(self.pos) == Some(&b':') && self.bytes.get(self.pos + 1) != Some(&b':') {
            self.pos += 1;
            self.push(TokenKind::Label(name), start, line);
            return;
        }
        self.push(TokenKind::Const(name), start, line);
    }

    fn lex_operator(&mut self) {
        let start = self.pos;
        let line = self.line;
        let c = self.bytes[self.pos];
        let next = self.bytes.get(self.pos + 1).copied();
        let next2 = self.bytes.get(self.pos + 2).copied();
        let (kind, len) = match (c, next, next2) {
            (b'*', Some(b'*'), _) => (TokenKind::Pow, 2),
            (b'=', Some(b'='), _) => (TokenKind::EqEq, 2),
            (b'=', Some(b'>'), _) => (TokenKind::FatArrow, 2),
            (b'!', Some(b'='), _) => (TokenKind::NotEq, 2),
            (b'<', Some(b'='), Some(b'>')) => (TokenKind::Spaceship, 3),
            (b'<', Some(b'='), _) => (TokenKind::Le, 2),
            (b'<', Some(b'<'), _) => (TokenKind::Shl, 2),
            (b'>', Some(b'='), _) => (TokenKind::Ge, 2),
            (b'&', Some(b'&'), _) => (TokenKind::AndAnd, 2),
            (b'|', Some(b'|'), Some(b'=')) => (TokenKind::OrOrAssign, 3),
            (b'|', Some(b'|'), _) => (TokenKind::OrOr, 2),
            (b'+', Some(b'='), _) => (TokenKind::PlusAssign, 2),
            (b'-', Some(b'='), _) => (TokenKind::MinusAssign, 2),
            (b'-', Some(b'>'), _) => (TokenKind::Arrow, 2),
            (b'=', _, _) => (TokenKind::Assign, 1),
            (b'+', _, _) => (TokenKind::Plus, 1),
            (b'-', _, _) => (TokenKind::Minus, 1),
            (b'*', _, _) => (TokenKind::Star, 1),
            (b'/', _, _) => (TokenKind::Slash, 1),
            (b'%', _, _) => (TokenKind::Percent, 1),
            (b'<', _, _) => (TokenKind::Lt, 1),
            (b'>', _, _) => (TokenKind::Gt, 1),
            (b'!', _, _) => (TokenKind::Bang, 1),
            (b',', _, _) => (TokenKind::Comma, 1),
            (b'.', _, _) => (TokenKind::Dot, 1),
            (b'(', _, _) => {
                self.paren_depth += 1;
                (TokenKind::LParen, 1)
            }
            (b')', _, _) => {
                self.paren_depth -= 1;
                (TokenKind::RParen, 1)
            }
            (b'[', _, _) => {
                self.bracket_depth += 1;
                (TokenKind::LBracket, 1)
            }
            (b']', _, _) => {
                self.bracket_depth -= 1;
                (TokenKind::RBracket, 1)
            }
            (b'{', _, _) => (TokenKind::LBrace, 1),
            (b'}', _, _) => (TokenKind::RBrace, 1),
            (b'|', _, _) => (TokenKind::Pipe, 1),
            (b'&', _, _) => (TokenKind::Amp, 1),
            (b'?', _, _) => (TokenKind::Question, 1),
            _ => {
                // Recovery: report the stray byte and skip past the full
                // UTF-8 character it starts, emitting no token.
                self.error(
                    format!("unexpected character `{}`", c as char),
                    Span::in_file(self.file, start, start + 1, line),
                );
                self.pos += utf8_len(c);
                return;
            }
        };
        self.pos += len;
        self.push(kind, start, line);
    }
}

fn utf8_len(first: u8) -> usize {
    if first < 0x80 {
        1
    } else if first >> 5 == 0b110 {
        2
    } else if first >> 4 == 0b1110 {
        3
    } else {
        4
    }
}

/// Convenience wrapper: lexes `src` into tokens plus recovery diagnostics.
/// The token stream is always complete (malformed constructs become
/// placeholders); the diagnostics are empty exactly when the input was
/// well formed.
///
/// # Examples
///
/// ```
/// let (toks, diags) = ruby_syntax::lex("a = 1 + 2");
/// assert!(toks.len() > 4);
/// assert!(diags.is_empty());
/// ```
pub fn lex(src: &str) -> (Vec<Token>, Vec<Diagnostic>) {
    Lexer::new(src).tokenize()
}

/// Like [`lex`], but stamps every token span (and any diagnostic span) with
/// the given source-file id, for multi-file programs.
pub fn lex_in_file(src: &str, file: u32) -> (Vec<Token>, Vec<Diagnostic>) {
    Lexer::in_file(src, file).tokenize()
}

/// Fail-stop lexing: like [`lex`], but the first malformed construct is
/// returned as a [`LexError`] instead of being recovered from.
///
/// # Errors
///
/// Returns a [`LexError`] describing the first recovery diagnostic.
pub fn lex_strict(src: &str) -> Result<Vec<Token>, LexError> {
    lex_in_file_strict(src, 0)
}

/// [`lex_strict`] with an explicit source-file id.
///
/// # Errors
///
/// See [`lex_strict`].
pub fn lex_in_file_strict(src: &str, file: u32) -> Result<Vec<Token>, LexError> {
    let (tokens, diags) = Lexer::in_file(src, file).tokenize();
    match diags.into_iter().next() {
        None => Ok(tokens),
        Some(d) => Err(LexError { message: d.message.clone(), span: d.primary_span() }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind as T;

    fn kinds(src: &str) -> Vec<T> {
        let (toks, diags) = lex(src);
        assert!(diags.is_empty(), "{diags:?}");
        toks.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_simple_assignment() {
        let k = kinds("a = 1 + 2");
        assert_eq!(
            k,
            vec![
                T::Ident("a".into()),
                T::Assign,
                T::Int(1),
                T::Plus,
                T::Int(2),
                T::Newline,
                T::Eof
            ]
        );
    }

    #[test]
    fn lexes_symbols_and_labels() {
        let k = kinds("{ name: 'Alice', age: 30 }");
        assert!(k.contains(&T::Label("name".into())));
        assert!(k.contains(&T::Label("age".into())));
        let k = kinds("joins(:emails)");
        assert!(k.contains(&T::Symbol("emails".into())));
    }

    #[test]
    fn lexes_operator_symbols() {
        let k = kinds(":[] :[]= :+ :-");
        assert!(k.contains(&T::Symbol("[]".into())));
        assert!(k.contains(&T::Symbol("[]=".into())));
        assert!(k.contains(&T::Symbol("+".into())));
        assert!(k.contains(&T::Symbol("-".into())));
    }

    #[test]
    fn lexes_shovel_apart_from_the_comparisons() {
        let k = kinds("a << b < c <= d <=> e :<< :<");
        assert_eq!(
            k,
            vec![
                T::Ident("a".into()),
                T::Shl,
                T::Ident("b".into()),
                T::Lt,
                T::Ident("c".into()),
                T::Le,
                T::Ident("d".into()),
                T::Spaceship,
                T::Ident("e".into()),
                T::Symbol("<<".into()),
                T::Symbol("<".into()),
                T::Newline,
                T::Eof
            ]
        );
    }

    #[test]
    fn lexes_ivar_gvar() {
        let k = kinds("@page = $schema");
        assert_eq!(k[0], T::IVar("page".into()));
        assert_eq!(k[2], T::GVar("schema".into()));
    }

    #[test]
    fn lexes_strings_with_escapes() {
        let k = kinds(r#"x = "a\nb" + 'c'"#);
        assert!(k.contains(&T::Str("a\nb".into())));
        assert!(k.contains(&T::Str("c".into())));
    }

    #[test]
    fn decodes_the_full_escape_set() {
        let k = kinds(r#""a\\b" "q\"q" "z\0\e\sz" "keep\qkeep""#);
        assert!(k.contains(&T::Str("a\\b".into())), "{k:?}");
        assert!(k.contains(&T::Str("q\"q".into())), "{k:?}");
        assert!(k.contains(&T::Str("z\0\u{1b} z".into())), "{k:?}");
        // Unknown escapes pass through backslash-verbatim, as before.
        assert!(k.contains(&T::Str("keep\\qkeep".into())), "{k:?}");
    }

    #[test]
    fn escaped_newline_in_string_elides_it_and_keeps_lines_correct() {
        let toks = lex_strict("x = \"a\\\nb\"\ny").unwrap();
        let str_tok = toks.iter().find(|t| matches!(t.kind, T::Str(_))).unwrap();
        assert_eq!(str_tok.kind, T::Str("ab".into()), "backslash-newline is a continuation");
        // `y` sits on line 3 of the source; before the fix the lexer lost
        // the count at the escaped newline and reported line 2.
        let y = toks.iter().find(|t| t.kind == T::Ident("y".into())).unwrap();
        assert_eq!(y.span.line, 3, "{toks:?}");
    }

    #[test]
    fn raw_newline_in_string_still_counts_lines() {
        let toks = lex_strict("x = \"a\nb\"\ny").unwrap();
        let y = toks.iter().find(|t| t.kind == T::Ident("y".into())).unwrap();
        assert_eq!(y.span.line, 3, "{toks:?}");
    }

    #[test]
    fn file_id_is_stamped_on_every_token() {
        let (toks, diags) = lex_in_file("a = 1", 3);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(toks.iter().all(|t| t.span.file == 3), "{toks:?}");
        let err = lex_in_file_strict("x = 'oops", 5).unwrap_err();
        assert_eq!(err.span.file, 5);
    }

    #[test]
    fn unterminated_string_recovers_with_a_diagnostic() {
        let (toks, diags) = lex("x = 'oops");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "LEX0001");
        assert!(diags[0].message.contains("unterminated string"), "{diags:?}");
        // The collected content survives as a placeholder literal and the
        // stream is still Newline+Eof terminated.
        assert!(toks.iter().any(|t| t.kind == T::Str("oops".into())), "{toks:?}");
        assert_eq!(toks.last().unwrap().kind, T::Eof);
        assert!(lex_strict("x = 'oops").is_err());
    }

    #[test]
    fn stray_bytes_recover_and_keep_lexing() {
        let (toks, diags) = lex("a = 1 ~ ` @\nb = 2");
        assert_eq!(diags.len(), 3, "{diags:?}");
        assert!(diags.iter().all(|d| d.code == "LEX0001"));
        // Everything after the junk still lexes.
        assert!(toks.iter().any(|t| t.kind == T::Ident("b".into())), "{toks:?}");
        assert!(toks.iter().any(|t| t.kind == T::Int(2)));
    }

    #[test]
    fn overflowing_integer_recovers_with_a_placeholder() {
        let (toks, diags) = lex("x = 99999999999999999999999999");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("invalid integer literal"), "{diags:?}");
        assert!(toks.iter().any(|t| t.kind == T::Int(0)), "{toks:?}");
    }

    #[test]
    fn lexes_floats_and_ints() {
        let k = kinds("1 2.5 1_000 3e2");
        assert_eq!(k[0], T::Int(1));
        assert_eq!(k[1], T::Float(2.5));
        assert_eq!(k[2], T::Int(1000));
        assert_eq!(k[3], T::Float(300.0));
    }

    #[test]
    fn comments_are_skipped() {
        let k = kinds("a # a comment\nb");
        assert_eq!(
            k,
            vec![T::Ident("a".into()), T::Newline, T::Ident("b".into()), T::Newline, T::Eof]
        );
    }

    #[test]
    fn newline_suppressed_inside_parens_and_after_comma() {
        let k = kinds("foo(1,\n 2)\n");
        assert!(!k[..k.len() - 3].contains(&T::Newline));
        let k = kinds("a = [1,\n2,\n3]");
        let newline_count = k.iter().filter(|t| **t == T::Newline).count();
        assert_eq!(newline_count, 1);
    }

    #[test]
    fn newline_suppressed_before_leading_dot() {
        let k = kinds("Post.includes(:topic)\n  .where(x)\n");
        let newline_count = k.iter().filter(|t| **t == T::Newline).count();
        assert_eq!(newline_count, 1, "{k:?}");
    }

    #[test]
    fn keywords_are_recognized() {
        let k = kinds("if x then y else z end");
        assert_eq!(k[0], T::Keyword(Kw::If));
        assert_eq!(k[2], T::Keyword(Kw::Then));
        assert_eq!(k[4], T::Keyword(Kw::Else));
        assert_eq!(k[6], T::Keyword(Kw::End));
    }

    #[test]
    fn question_mark_methods() {
        let k = kinds("User.exists?(x)");
        assert!(k.contains(&T::Ident("exists?".into())));
    }

    #[test]
    fn lexes_double_colon_paths() {
        let k = kinds("ActiveRecord::Base");
        assert_eq!(
            k[..3],
            [T::Const("ActiveRecord".into()), T::ColonColon, T::Const("Base".into())]
        );
    }

    #[test]
    fn spaceship_and_pow() {
        let k = kinds("a <=> b ** c");
        assert!(k.contains(&T::Spaceship));
        assert!(k.contains(&T::Pow));
    }
}

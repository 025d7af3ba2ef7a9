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
//! `Eof`-terminated stream.
//!
//! The lexer allocates nothing per token: a token is a kind and a span, and
//! the parser slices a name out of the source ([`Token::text`]) and decodes
//! a string literal's escapes from its span ([`string_value`]).

use crate::span::Span;
use crate::token::{Kw, Token, TokenKind};
use diagnostics::Diagnostic;

/// Converts Ruby subset source text into a token stream.
pub(crate) struct Lexer<'src> {
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
                    | TokenKind::Label
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

    /// Skips a string literal, escapes and all, to just past its closing
    /// quote; the parser decodes it from the token's span
    /// ([`string_value`]).  Every newline inside counts as a line.
    fn lex_string(&mut self, quote: u8) {
        let start = self.pos;
        let line = self.line;
        self.pos += 1;
        loop {
            match self.bytes.get(self.pos) {
                None => {
                    // Recovery: the literal runs to the end of the input.
                    let span = self.span_from(start, line);
                    self.error("unterminated string literal", span);
                    break;
                }
                Some(&c) if c == quote => {
                    self.pos += 1;
                    break;
                }
                Some(b'\\') if quote == b'"' => {
                    // A backslash that ends the input escapes nothing, so
                    // the literal stops at the end of the input.
                    self.pos += 1 + self.bytes.get(self.pos + 1).map_or(0, |&c| utf8_len(c));
                }
                Some(b'\\') if self.bytes.get(self.pos + 1) == Some(&quote) => self.pos += 2,
                Some(&c) => self.pos += utf8_len(c),
            }
        }
        self.line += self.bytes[start..self.pos].iter().filter(|&&b| b == b'\n').count() as u32;
        self.push(TokenKind::Str, start, line);
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
        let source = &self.src[start..self.pos];
        let stripped;
        let text = if source.contains('_') {
            stripped = source.replace('_', "");
            stripped.as_str()
        } else {
            source
        };
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

    /// Skips the identifier characters at the cursor, returning how many.
    fn ident_tail(&mut self) -> usize {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'a'..=b'z') | Some(b'A'..=b'Z') | Some(b'0'..=b'9') | Some(b'_')
        ) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn lex_ivar(&mut self) {
        let start = self.pos;
        let line = self.line;
        self.pos += 1;
        if self.ident_tail() == 0 {
            // Recovery: drop the bare sigil and continue with the next byte.
            let span = self.span_from(start, line);
            self.error("expected instance variable name after `@`", span);
            return;
        }
        self.push(TokenKind::IVar, start, line);
    }

    fn lex_gvar(&mut self) {
        let start = self.pos;
        let line = self.line;
        self.pos += 1;
        if self.ident_tail() == 0 {
            let span = self.span_from(start, line);
            self.error("expected global variable name after `$`", span);
            return;
        }
        self.push(TokenKind::GVar, start, line);
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
                self.ident_tail();
                if matches!(self.bytes.get(self.pos), Some(b'?') | Some(b'!')) {
                    self.pos += 1;
                }
                if self.bytes.get(self.pos) == Some(&b'=')
                    && self.bytes.get(self.pos + 1) != Some(&b'=')
                    && self.bytes.get(self.pos + 1) != Some(&b'>')
                {
                    // attribute-writer symbols such as :name=
                    self.pos += 1;
                }
                self.push(TokenKind::Symbol, start, line);
            }
            Some(b'[') if self.bytes.get(self.pos + 2) == Some(&b']') => {
                self.pos += if self.bytes.get(self.pos + 3) == Some(&b'=') { 4 } else { 3 };
                self.push(TokenKind::Symbol, start, line);
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
                        self.push(TokenKind::Symbol, start, line);
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
        self.ident_tail();
        let predicate = matches!(self.bytes.get(self.pos), Some(b'?') | Some(b'!'));
        if predicate {
            self.pos += 1;
        }
        let keyword = Kw::from_source(&self.src[start..self.pos]);
        // A label `name:` (not followed by another `:`).
        if self.bytes.get(self.pos) == Some(&b':')
            && self.bytes.get(self.pos + 1) != Some(&b':')
            && !predicate
            && keyword.is_none()
        {
            self.pos += 1;
            self.push(TokenKind::Label, start, line);
            return;
        }
        self.push(keyword.map_or(TokenKind::Ident, TokenKind::Keyword), start, line);
    }

    fn lex_const(&mut self) {
        let start = self.pos;
        let line = self.line;
        self.ident_tail();
        if self.bytes.get(self.pos) == Some(&b':') && self.bytes.get(self.pos + 1) != Some(&b':') {
            self.pos += 1;
            self.push(TokenKind::Label, start, line);
            return;
        }
        self.push(TokenKind::Const, start, line);
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

/// The value of the string literal whose source text is `literal`, opening
/// quote first: a double-quoted literal's escapes decoded, a single-quoted
/// one's `\'` unescaped, up to the closing quote or the end of the text
/// (a literal left open).  The lexer found where the literal ends; this
/// reads it again the same way.
pub(crate) fn string_value(literal: &str) -> String {
    let bytes = literal.as_bytes();
    let Some(&quote) = bytes.first() else { return String::new() };
    let body = &literal[1..];
    // Most literals hold no backslash: their value is their body.
    match body.bytes().position(|b| b == quote || b == b'\\') {
        Some(i) if bytes[1 + i] == quote => return body[..i].to_string(),
        None => return body.to_string(),
        Some(_) => {}
    }
    let mut out = String::new();
    let mut pos = 1;
    loop {
        match bytes.get(pos) {
            None => break,
            Some(&c) if c == quote => break,
            Some(b'\\') if quote == b'"' => {
                match bytes.get(pos + 1) {
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'0') => out.push('\0'),
                    Some(b'e') => out.push('\u{1b}'),
                    Some(b's') => out.push(' '),
                    Some(b'\\') => out.push('\\'),
                    Some(b'"') => out.push('"'),
                    Some(b'\'') => out.push('\''),
                    // A backslash before a real newline elides it (line
                    // continuation inside the literal).
                    Some(b'\n') => {}
                    // Any other escape stays verbatim, backslash included.
                    Some(_) => {
                        let ch = literal[pos + 1..].chars().next().expect("a character follows");
                        out.push('\\');
                        out.push(ch);
                        pos += ch.len_utf8() - 1;
                    }
                    None => out.push('\\'),
                }
                pos += 2;
            }
            Some(b'\\') if bytes.get(pos + 1) == Some(&b'\'') => {
                out.push('\'');
                pos += 2;
            }
            Some(_) => {
                let ch = literal[pos..].chars().next().expect("a character starts here");
                out.push(ch);
                pos += ch.len_utf8();
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind as T;

    fn lex(src: &str) -> (Vec<Token>, Vec<Diagnostic>) {
        Lexer::in_file(src, 0).tokenize()
    }

    /// Each token's kind and the text it slices out of `src`
    /// ([`Token::text`]), for a source that lexes cleanly.
    fn kinds(src: &str) -> Vec<(T, &str)> {
        let (toks, diags) = lex(src);
        assert!(diags.is_empty(), "{diags:?}");
        toks.iter().map(|t| (t.kind, t.text(src))).collect()
    }

    /// The value of every string literal in `src`, in order.
    fn strings(src: &str) -> Vec<String> {
        let (toks, _) = lex(src);
        toks.iter().filter(|t| t.kind == T::Str).map(|t| string_value(t.source(src))).collect()
    }

    #[test]
    fn lexes_simple_assignment() {
        let k = kinds("a = 1 + 2");
        assert_eq!(
            k,
            vec![
                (T::Ident, "a"),
                (T::Assign, "="),
                (T::Int(1), "1"),
                (T::Plus, "+"),
                (T::Int(2), "2"),
                (T::Newline, ""),
                (T::Eof, "")
            ]
        );
    }

    #[test]
    fn lexes_symbols_and_labels() {
        let k = kinds("{ name: 'Alice', Age: 30 }");
        assert!(k.contains(&(T::Label, "name")), "{k:?}");
        assert!(k.contains(&(T::Label, "Age")), "{k:?}");
        let k = kinds("joins(:emails) :exists? :name=");
        assert!(k.contains(&(T::Symbol, "emails")), "{k:?}");
        assert!(k.contains(&(T::Symbol, "exists?")), "{k:?}");
        assert!(k.contains(&(T::Symbol, "name=")), "{k:?}");
    }

    #[test]
    fn lexes_operator_symbols() {
        let k = kinds(":[] :[]= :+ :-");
        assert!(k.contains(&(T::Symbol, "[]")));
        assert!(k.contains(&(T::Symbol, "[]=")));
        assert!(k.contains(&(T::Symbol, "+")));
        assert!(k.contains(&(T::Symbol, "-")));
    }

    #[test]
    fn lexes_shovel_apart_from_the_comparisons() {
        let k = kinds("a << b < c <= d <=> e :<< :<");
        assert_eq!(
            k,
            vec![
                (T::Ident, "a"),
                (T::Shl, "<<"),
                (T::Ident, "b"),
                (T::Lt, "<"),
                (T::Ident, "c"),
                (T::Le, "<="),
                (T::Ident, "d"),
                (T::Spaceship, "<=>"),
                (T::Ident, "e"),
                (T::Symbol, "<<"),
                (T::Symbol, "<"),
                (T::Newline, ""),
                (T::Eof, "")
            ]
        );
    }

    #[test]
    fn lexes_ivar_gvar() {
        let k = kinds("@page = $schema");
        assert_eq!(k[0], (T::IVar, "page"));
        assert_eq!(k[2], (T::GVar, "schema"));
    }

    #[test]
    fn lexes_strings_with_escapes() {
        let src = r#"x = "a\nb" + 'c'"#;
        let k = kinds(src);
        assert!(k.contains(&(T::Str, r#""a\nb""#)), "the token slices the literal: {k:?}");
        assert_eq!(strings(src), ["a\nb", "c"]);
    }

    #[test]
    fn decodes_the_full_escape_set() {
        let k = strings(r#""a\\b" "q\"q" "z\0\e\sz" "keep\qkeep" 'it\'s' 'back\slash'"#);
        assert!(k.contains(&"a\\b".to_string()), "{k:?}");
        assert!(k.contains(&"q\"q".to_string()), "{k:?}");
        assert!(k.contains(&"z\0\u{1b} z".to_string()), "{k:?}");
        // Unknown escapes pass through backslash-verbatim, as before.
        assert!(k.contains(&"keep\\qkeep".to_string()), "{k:?}");
        // A single-quoted literal unescapes only its quote.
        assert!(k.contains(&"it's".to_string()), "{k:?}");
        assert!(k.contains(&"back\\slash".to_string()), "{k:?}");
    }

    #[test]
    fn an_escaped_multibyte_character_stays_whole() {
        let src = "x = \"\\é→😀\" + 'é\\x'\ny";
        let (toks, diags) = lex(src);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(strings(src), ["\\é→😀", "é\\x"]);
        let y = toks.iter().find(|t| t.kind == T::Ident).unwrap();
        assert_eq!((y.text(src), y.span.line), ("x", 1));
        let y = toks.iter().rev().find(|t| t.kind == T::Ident).unwrap();
        assert_eq!((y.text(src), y.span.line), ("y", 2));
    }

    #[test]
    fn escaped_newline_in_string_elides_it_and_keeps_lines_correct() {
        let src = "x = \"a\\\nb\"\ny";
        let (toks, diags) = lex(src);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(strings(src), ["ab"], "backslash-newline is a continuation");
        // `y` sits on line 3 of the source; before the fix the lexer lost
        // the count at the escaped newline and reported line 2.
        let y = toks.iter().find(|t| t.kind == T::Ident && t.text(src) == "y").unwrap();
        assert_eq!(y.span.line, 3, "{toks:?}");
    }

    #[test]
    fn raw_newline_in_string_still_counts_lines() {
        let src = "x = \"a\nb\"\ny";
        let (toks, diags) = lex(src);
        assert!(diags.is_empty(), "{diags:?}");
        let y = toks.iter().find(|t| t.kind == T::Ident && t.text(src) == "y").unwrap();
        assert_eq!(y.span.line, 3, "{toks:?}");
    }

    #[test]
    fn file_id_is_stamped_on_every_token() {
        let (toks, diags) = Lexer::in_file("a = 1", 3).tokenize();
        assert!(diags.is_empty(), "{diags:?}");
        assert!(toks.iter().all(|t| t.span.file == 3), "{toks:?}");
        let (_, diags) = Lexer::in_file("x = 'oops", 5).tokenize();
        assert_eq!(diags[0].primary_span().file, 5);
    }

    #[test]
    fn unterminated_string_recovers_with_a_diagnostic() {
        let src = "x = 'oops";
        let (toks, diags) = lex(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "LEX0001");
        assert!(diags[0].message.contains("unterminated string"), "{diags:?}");
        // The collected content survives as a placeholder literal and the
        // stream is still Newline+Eof terminated.
        assert_eq!(strings(src), ["oops"]);
        assert_eq!(toks.last().unwrap().kind, T::Eof);
        // A backslash at the very end escapes nothing: the literal, its
        // diagnostic and the end of the stream all stop at the input's end.
        let src = "x = \"ab\\";
        let (toks, diags) = lex(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        let span = diags[0].primary_span();
        assert_eq!((span.start, span.end), (4, src.len()));
        let literal = toks.iter().find(|t| t.kind == T::Str).unwrap();
        assert_eq!((literal.span.start, literal.span.end), (4, src.len()));
        assert!(toks.iter().all(|t| t.span.end <= src.len()), "{toks:?}");
        assert_eq!(literal.source(src), "\"ab\\");
        assert_eq!(strings(src), ["ab\\"]);
        // So does the parse error of the method the literal breaks.
        let src = "def m\n  \"a\\";
        let (_, diags) = crate::parse_program_in_file(src, 0);
        assert!(!diags.is_empty());
        assert!(diags.iter().flat_map(|d| &d.labels).all(|l| l.span.end <= src.len()), "{diags:?}");
    }

    #[test]
    fn stray_bytes_recover_and_keep_lexing() {
        let src = "a = 1 ~ ` @\nb = 2";
        let (toks, diags) = lex(src);
        assert_eq!(diags.len(), 3, "{diags:?}");
        assert!(diags.iter().all(|d| d.code == "LEX0001"));
        // Everything after the junk still lexes.
        assert!(toks.iter().any(|t| t.kind == T::Ident && t.text(src) == "b"), "{toks:?}");
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
        let k = kinds("1 2.5 1_000 3e2 1_0.2_5");
        assert_eq!(k[0], (T::Int(1), "1"));
        assert_eq!(k[1], (T::Float(2.5), "2.5"));
        assert_eq!(k[2], (T::Int(1000), "1_000"));
        assert_eq!(k[3], (T::Float(300.0), "3e2"));
        assert_eq!(k[4], (T::Float(10.25), "1_0.2_5"));
    }

    #[test]
    fn comments_are_skipped() {
        let k = kinds("a # a comment\nb");
        assert_eq!(
            k,
            vec![
                (T::Ident, "a"),
                (T::Newline, "\n"),
                (T::Ident, "b"),
                (T::Newline, ""),
                (T::Eof, "")
            ]
        );
    }

    #[test]
    fn newline_suppressed_inside_parens_and_after_comma() {
        let k = kinds("foo(1,\n 2)\n");
        assert!(!k[..k.len() - 3].iter().any(|(t, _)| *t == T::Newline));
        let k = kinds("a = [1,\n2,\n3]");
        let newline_count = k.iter().filter(|(t, _)| *t == T::Newline).count();
        assert_eq!(newline_count, 1);
    }

    #[test]
    fn newline_suppressed_before_leading_dot() {
        let k = kinds("Post.includes(:topic)\n  .where(x)\n");
        let newline_count = k.iter().filter(|(t, _)| *t == T::Newline).count();
        assert_eq!(newline_count, 1, "{k:?}");
    }

    #[test]
    fn keywords_are_recognized() {
        let k = kinds("if x then y else z end");
        assert_eq!(k[0], (T::Keyword(Kw::If), "if"));
        assert_eq!(k[2], (T::Keyword(Kw::Then), "then"));
        assert_eq!(k[4], (T::Keyword(Kw::Else), "else"));
        assert_eq!(k[6], (T::Keyword(Kw::End), "end"));
    }

    #[test]
    fn question_mark_methods() {
        let k = kinds("User.exists?(x)");
        assert!(k.contains(&(T::Ident, "exists?")));
    }

    #[test]
    fn lexes_double_colon_paths() {
        let k = kinds("ActiveRecord::Base");
        assert_eq!(k[..3], [(T::Const, "ActiveRecord"), (T::ColonColon, "::"), (T::Const, "Base")]);
    }

    #[test]
    fn spaceship_and_pow() {
        let k = kinds("a <=> b ** c");
        assert!(k.contains(&(T::Spaceship, "<=>")));
        assert!(k.contains(&(T::Pow, "**")));
    }
}

//! Tokens produced by the [`Lexer`](crate::lexer::Lexer): a kind and a span,
//! no text.  Without its source a token means nothing, so the stream stays
//! inside the crate; [`crate::parse_program_in_file`] is the way in.

use crate::span::Span;
use std::fmt;

/// Reserved words of the Ruby subset.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Kw {
    Def,
    End,
    Class,
    Module,
    If,
    Elsif,
    Else,
    Unless,
    While,
    Do,
    Then,
    Return,
    SelfValue,
    Nil,
    True,
    False,
    And,
    Or,
    Not,
    Yield,
    Case,
    When,
    Break,
    Next,
}

impl Kw {
    /// Looks up a keyword by its source spelling.
    pub fn from_source(s: &str) -> Option<Kw> {
        Some(match s {
            "def" => Kw::Def,
            "end" => Kw::End,
            "class" => Kw::Class,
            "module" => Kw::Module,
            "if" => Kw::If,
            "elsif" => Kw::Elsif,
            "else" => Kw::Else,
            "unless" => Kw::Unless,
            "while" => Kw::While,
            "do" => Kw::Do,
            "then" => Kw::Then,
            "return" => Kw::Return,
            "self" => Kw::SelfValue,
            "nil" => Kw::Nil,
            "true" => Kw::True,
            "false" => Kw::False,
            "and" => Kw::And,
            "or" => Kw::Or,
            "not" => Kw::Not,
            "yield" => Kw::Yield,
            "case" => Kw::Case,
            "when" => Kw::When,
            "break" => Kw::Break,
            "next" => Kw::Next,
            _ => return None,
        })
    }

    /// The source spelling of the keyword.
    pub fn as_str(&self) -> &'static str {
        match self {
            Kw::Def => "def",
            Kw::End => "end",
            Kw::Class => "class",
            Kw::Module => "module",
            Kw::If => "if",
            Kw::Elsif => "elsif",
            Kw::Else => "else",
            Kw::Unless => "unless",
            Kw::While => "while",
            Kw::Do => "do",
            Kw::Then => "then",
            Kw::Return => "return",
            Kw::SelfValue => "self",
            Kw::Nil => "nil",
            Kw::True => "true",
            Kw::False => "false",
            Kw::And => "and",
            Kw::Or => "or",
            Kw::Not => "not",
            Kw::Yield => "yield",
            Kw::Case => "case",
            Kw::When => "when",
            Kw::Break => "break",
            Kw::Next => "next",
        }
    }
}

impl fmt::Display for Kw {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The kind of a lexed token.
///
/// A token carries no text: a name, symbol, label or string literal is the
/// slice of the source its span covers ([`Token::text`]), which the parser
/// reads and interns.  Punctuation variants are named after their symbol.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum TokenKind {
    /// A lower-case identifier (method or local variable name), possibly
    /// ending in `?` or `!`.
    Ident,
    /// An upper-case constant name.
    Const,
    /// An instance variable such as `@page`.
    IVar,
    /// A global variable such as `$schema`.
    GVar,
    /// A symbol literal such as `:emails`.
    Symbol,
    /// A hash label such as `name:` in `{ name: "Alice" }`.
    Label,
    /// An integer literal.
    Int(i64),
    /// A floating point literal.
    Float(f64),
    /// A string literal (single or double quoted; no interpolation), its
    /// escapes still undecoded in the source ([`crate::lexer::string_value`]).
    Str,
    /// A reserved word.
    Keyword(Kw),

    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Pow,
    EqEq,
    NotEq,
    Lt,
    Gt,
    Le,
    Ge,
    Spaceship,
    /// `<<`, a method call (`Array#<<`, `Integer#<<`).
    Shl,
    AndAnd,
    OrOr,
    Bang,
    Assign,
    PlusAssign,
    MinusAssign,
    OrOrAssign,
    /// `=>` used in hash literals.
    FatArrow,
    /// `->` used for lambda literals.
    Arrow,
    ColonColon,
    Comma,
    Dot,
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Pipe,
    Amp,
    Question,
    Colon,
    /// Statement separator: newline(s) or `;`.
    Newline,
    /// End of input.
    Eof,
}

impl TokenKind {
    /// A short human readable description used in parse errors.  `text` is
    /// the token's source text ([`Token::source`]); only a name, symbol,
    /// label or string token reads it.
    pub(crate) fn describe(&self, text: &str) -> String {
        match self {
            TokenKind::Ident => format!("identifier `{text}`"),
            TokenKind::Const => format!("constant `{text}`"),
            TokenKind::IVar => format!("instance variable `{text}`"),
            TokenKind::GVar => format!("global variable `{text}`"),
            TokenKind::Symbol => format!("symbol `{text}`"),
            TokenKind::Label => format!("label `{text}`"),
            TokenKind::Int(i) => format!("integer `{i}`"),
            TokenKind::Float(x) => format!("float `{x}`"),
            TokenKind::Str => format!("string {:?}", crate::lexer::string_value(text)),
            TokenKind::Keyword(k) => format!("keyword `{k}`"),
            TokenKind::Newline => "end of line".to_string(),
            TokenKind::Eof => "end of input".to_string(),
            other => format!("`{}`", other.symbol_str()),
        }
    }

    pub(crate) fn symbol_str(&self) -> &'static str {
        match self {
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Star => "*",
            TokenKind::Slash => "/",
            TokenKind::Percent => "%",
            TokenKind::Pow => "**",
            TokenKind::EqEq => "==",
            TokenKind::NotEq => "!=",
            TokenKind::Lt => "<",
            TokenKind::Gt => ">",
            TokenKind::Le => "<=",
            TokenKind::Ge => ">=",
            TokenKind::Spaceship => "<=>",
            TokenKind::Shl => "<<",
            TokenKind::AndAnd => "&&",
            TokenKind::OrOr => "||",
            TokenKind::Bang => "!",
            TokenKind::Assign => "=",
            TokenKind::PlusAssign => "+=",
            TokenKind::MinusAssign => "-=",
            TokenKind::OrOrAssign => "||=",
            TokenKind::FatArrow => "=>",
            TokenKind::Arrow => "->",
            TokenKind::ColonColon => "::",
            TokenKind::Comma => ",",
            TokenKind::Dot => ".",
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBracket => "[",
            TokenKind::RBracket => "]",
            TokenKind::LBrace => "{",
            TokenKind::RBrace => "}",
            TokenKind::Pipe => "|",
            TokenKind::Amp => "&",
            TokenKind::Question => "?",
            TokenKind::Colon => ":",
            _ => "?",
        }
    }
}

/// A token: its kind and the span of source it was lexed from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// Where in the source it came from.
    pub span: Span,
}

impl Token {
    /// Creates a token.
    pub fn new(kind: TokenKind, span: Span) -> Self {
        Token { kind, span }
    }

    /// The source text the token was lexed from.  The span of a string
    /// literal left open at the end of the input can run past it, so the
    /// slice is clamped to the source.
    pub fn source<'src>(&self, src: &'src str) -> &'src str {
        &src[self.span.start.min(src.len())..self.span.end.min(src.len())]
    }

    /// The name a name-like token spells: an identifier or constant as
    /// written, an instance or global variable and a symbol without their
    /// sigil, a label without its colon.  Any other token's source text.
    pub fn text<'src>(&self, src: &'src str) -> &'src str {
        let source = self.source(src);
        match self.kind {
            TokenKind::IVar | TokenKind::GVar | TokenKind::Symbol => &source[1..],
            TokenKind::Label => &source[..source.len() - 1],
            _ => source,
        }
    }

    /// [`TokenKind::describe`] of this token's source text.
    pub fn describe(&self, src: &str) -> String {
        self.kind.describe(self.source(src))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_roundtrip() {
        for kw in [Kw::Def, Kw::End, Kw::If, Kw::Return, Kw::SelfValue, Kw::Yield] {
            assert_eq!(Kw::from_source(kw.as_str()), Some(kw));
        }
        assert_eq!(Kw::from_source("frobnicate"), None);
    }

    #[test]
    fn describe_is_informative() {
        assert!(TokenKind::Ident.describe("foo").contains("foo"));
        assert_eq!(TokenKind::Symbol.describe(":emails"), "symbol `:emails`");
        assert_eq!(TokenKind::IVar.describe("@page"), "instance variable `@page`");
        assert_eq!(TokenKind::Label.describe("name:"), "label `name:`");
        assert_eq!(TokenKind::Str.describe("\"a\\nb\""), "string \"a\\nb\"");
        assert_eq!(TokenKind::Plus.describe(""), "`+`");
    }
}

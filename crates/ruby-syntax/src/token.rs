//! Tokens produced by the [`Lexer`](crate::lexer::Lexer).

use crate::span::Span;
use std::fmt;

/// Reserved words of the Ruby subset.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kw {
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
    SelfKw,
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
            "self" => Kw::SelfKw,
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
            Kw::SelfKw => "self",
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
/// Punctuation variants are named after their symbol and carry no payload.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// A lower-case identifier (method or local variable name), possibly
    /// ending in `?` or `!`.
    Ident(String),
    /// An upper-case constant name.
    Const(String),
    /// An instance variable such as `@page`.
    IVar(String),
    /// A global variable such as `$schema`.
    GVar(String),
    /// A symbol literal such as `:emails`.
    Symbol(String),
    /// A hash label such as `name:` in `{ name: "Alice" }`.
    Label(String),
    /// An integer literal.
    Int(i64),
    /// A floating point literal.
    Float(f64),
    /// A string literal (single or double quoted; no interpolation).
    Str(String),
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
    /// A short human readable description used in parse errors.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::Const(s) => format!("constant `{s}`"),
            TokenKind::IVar(s) => format!("instance variable `@{s}`"),
            TokenKind::GVar(s) => format!("global variable `${s}`"),
            TokenKind::Symbol(s) => format!("symbol `:{s}`"),
            TokenKind::Label(s) => format!("label `{s}:`"),
            TokenKind::Int(i) => format!("integer `{i}`"),
            TokenKind::Float(x) => format!("float `{x}`"),
            TokenKind::Str(s) => format!("string {s:?}"),
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

/// A token together with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_roundtrip() {
        for kw in [Kw::Def, Kw::End, Kw::If, Kw::Return, Kw::SelfKw, Kw::Yield] {
            assert_eq!(Kw::from_source(kw.as_str()), Some(kw));
        }
        assert_eq!(Kw::from_source("frobnicate"), None);
    }

    #[test]
    fn describe_is_informative() {
        assert!(TokenKind::Ident("foo".into()).describe().contains("foo"));
        assert!(TokenKind::Symbol("emails".into()).describe().contains("emails"));
        assert_eq!(TokenKind::Plus.describe(), "`+`");
    }
}

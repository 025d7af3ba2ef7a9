//! # ruby-syntax
//!
//! Lexer, parser and AST for the Ruby subset used throughout
//! the CompRDL-rs reproduction of *"Type-Level Computations for Ruby
//! Libraries"* (PLDI 2019).
//!
//! The subset is deliberately small but covers everything the paper's
//! examples and evaluation exercise: classes, instance and singleton method
//! definitions, literals (including symbols, arrays and hashes), instance /
//! global variables, constants, conditionals (`if` / `unless` / `case`),
//! `while` loops, blocks (`{ |x| ... }` and `do ... end`), boolean operators,
//! assignments (local, instance, global, index and attribute) and `return`.
//!
//! ## Quick start
//!
//! ```
//! use ruby_syntax::{parse_expr, parse_program, ExprKind};
//!
//! let (prog, diags) = parse_program("class User\n  def self.admin?(name)\n    name == \"root\"\n  end\nend\n");
//! assert!(diags.is_empty());
//! assert_eq!(prog.classes()[0].name, "User");
//!
//! let e = parse_expr("User.joins(:emails)").unwrap();
//! let ExprKind::Call { name, args, .. } = e.kind else { panic!("not a call") };
//! assert_eq!(name, "joins");
//! assert!(matches!(&args[0].kind, ExprKind::Sym(s) if s == "emails"));
//! ```
//!
//! ## Error resilience
//!
//! `parse_program` never fails: malformed input produces a best-effort
//! [`Program`] plus a list of [`diagnostics::Diagnostic`]s. A broken
//! statement becomes an [`ExprKind::Error`] placeholder and parsing resumes
//! at the next line; a broken method definition is *poisoned*
//! ([`MethodDef::poisoned`]) and the parser resynchronizes at its matching
//! `end`, so one bad method never hides the rest of the file.
//!
//! ```
//! let (prog, diags) = ruby_syntax::parse_program("def bad()\n  1 +\nend\ndef good()\n  2\nend\n");
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].code, "PARSE0002");
//! assert!(prog.methods()[0].1.poisoned);
//! assert!(!prog.methods()[1].1.poisoned);
//! ```
//!
//! Callers that want the old fail-stop behaviour (tests, signature parsing)
//! use [`parse_program_strict`] / [`lex_strict`], which surface the first
//! diagnostic as a [`ParseError`] / [`LexError`].

#![warn(missing_docs)]

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod semhash;
pub mod span;
pub mod token;

pub use ast::{
    BinOp, Block, ClassDef, CondArm, Expr, ExprKind, Item, LValue, MethodDef, Param, Program,
};
pub use lexer::{lex, lex_in_file, lex_in_file_strict, lex_strict, LexError, Lexer};
pub use parser::{
    parse_expr, parse_program, parse_program_in_file, parse_program_in_file_strict,
    parse_program_strict, ParseError,
};
pub use semhash::{expr_hash, method_hash, method_span_nodes, MethodHash, SemHasher};
pub use span::Span;
pub use token::{Kw, Token, TokenKind};

/// Counts the number of non-blank, non-comment source lines, mirroring how
/// the paper reports `sloccount`-style LoC numbers for subject methods.
///
/// # Examples
///
/// ```
/// let n = ruby_syntax::count_loc("# comment\n\ndef m()\n  1\nend\n");
/// assert_eq!(n, 3);
/// ```
pub fn count_loc(src: &str) -> usize {
    src.lines()
        .filter(|line| {
            let t = line.trim();
            !t.is_empty() && !t.starts_with('#')
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_loc_skips_blank_and_comments() {
        assert_eq!(count_loc(""), 0);
        assert_eq!(count_loc("# a\n# b\n"), 0);
        assert_eq!(count_loc("x = 1\n\ny = 2 # trailing\n"), 2);
    }
}

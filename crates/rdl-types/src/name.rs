//! Shared type names.
//!
//! Every name inside a [`Type`](crate::ty::Type) — a class, a type
//! variable, a symbol, a hash key — is a [`Name`], the shared string that
//! [`ruby_syntax`] parses every source name into: cloning a type copies
//! reference counts, not strings, and a name taken from the program's AST
//! is the same allocation the parser made.

pub use ruby_syntax::Name;

//! # diagnostics
//!
//! The shared error spine of the CompRDL-rs workspace.
//!
//! Every layer of the system — the Ruby lexer/parser (`ruby-syntax`), the
//! RDL signature parser (`rdl-types`), the comp-type evaluator and static
//! checker (`comprdl`), the interpreter (`ruby-interp`) and the SQL checker
//! (`sql-tc`) — defines its own error type, and each of those converts into
//! a single [`Diagnostic`] carrying a severity, a stable code, labelled
//! [`Span`]s and notes. [`SourceMap`] + [`render()`] turn a diagnostic back
//! into a rustc-style annotated source snippet; [`DiagnosticBag`] aggregates
//! diagnostics for corpus-wide reporting.
//!
//! ## Quick start
//!
//! ```
//! use diagnostics::{render, Diagnostic, SourceMap, Span};
//!
//! let sm = SourceMap::new("user.rb", "def admin?(name)\n  name == 0\nend\n");
//! let d = Diagnostic::error("TYP0001", "comparison between String and Integer")
//!     .with_label(Span::new(19, 28, 2), "`name` is a String")
//!     .with_note("declared `(String) -> %bool`");
//! let text = render(&sm, &d);
//! assert!(text.contains("--> user.rb:2:3"));
//! ```

#![warn(missing_docs)]

pub mod bag;
pub mod diagnostic;
pub mod render;
pub mod source;
pub mod span;

pub use bag::DiagnosticBag;
pub use diagnostic::{Diagnostic, Label, Severity, ToDiagnostic};
pub use render::{render, render_in};
pub use source::{SourceMap, SourceSet};
pub use span::Span;

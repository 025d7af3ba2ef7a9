//! The [`Diagnostic`] type: one error, warning or note with labelled spans.

use crate::span::Span;
use std::fmt;

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Purely informational.
    Note,
    /// Suspicious but not necessarily wrong (e.g. an implicit cast).
    Warning,
    /// A genuine error: the program does not type check / parse / run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// A span within the source plus a message describing what it shows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Label {
    /// Where in the source.
    pub span: Span,
    /// What this location contributes (may be empty).
    pub message: String,
    /// Primary labels are underlined with `^`, secondary ones with `-`.
    pub primary: bool,
}

impl Label {
    /// A primary label (the main location of the diagnostic).
    pub fn primary(span: Span, message: impl Into<String>) -> Self {
        Label { span, message: message.into(), primary: true }
    }

    /// A secondary label (supporting context).
    pub fn secondary(span: Span, message: impl Into<String>) -> Self {
        Label { span, message: message.into(), primary: false }
    }
}

/// A single diagnostic: severity, stable machine-readable code, primary
/// message, zero or more labelled spans and free-form notes.
///
/// Every layer of the workspace converts its own error type into this via
/// `From` impls, so the corpus harness, the examples and future tooling can
/// aggregate and render errors from any layer uniformly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error / warning / note.
    pub severity: Severity,
    /// Stable code, namespaced per layer: `LEX...`, `PARSE...`, `SIG...`,
    /// `TLC...`, `TYP...`, `RT...`, `SQL...`.
    pub code: String,
    /// The headline message.
    pub message: String,
    /// Labelled source locations; the first primary label anchors the
    /// rendered snippet.
    pub labels: Vec<Label>,
    /// Additional `= note: ...` lines.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Starts an error diagnostic.
    pub fn error(code: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code: code.into(),
            message: message.into(),
            labels: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Starts a warning diagnostic.
    pub fn warning(code: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic { severity: Severity::Warning, ..Diagnostic::error(code, message) }
    }

    /// Adds a primary label.
    pub fn with_label(mut self, span: Span, message: impl Into<String>) -> Self {
        self.labels.push(Label::primary(span, message));
        self
    }

    /// Adds a secondary label.
    pub fn with_secondary_label(mut self, span: Span, message: impl Into<String>) -> Self {
        self.labels.push(Label::secondary(span, message));
        self
    }

    /// Adds a `= note:` line.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// The span of the first primary label (or the first label at all), used
    /// to anchor the rendered snippet. Dummy if the diagnostic has no
    /// located labels.
    pub fn primary_span(&self) -> Span {
        self.labels
            .iter()
            .find(|l| l.primary)
            .or_else(|| self.labels.first())
            .map(|l| l.span)
            .unwrap_or_else(Span::dummy)
    }

    /// True if the diagnostic is an error.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    /// Single-line rendering (no source snippet): `error[TYP0001]: message`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        let anchor = self.primary_span();
        if !anchor.is_dummy() {
            write!(f, " (line {})", anchor.line)?;
        }
        Ok(())
    }
}

impl std::error::Error for Diagnostic {}

/// Types that can describe themselves as a [`Diagnostic`].
///
/// Prefer implementing `From<MyError> for Diagnostic` in the error's own
/// crate; this trait exists for generic call sites that only have a
/// reference.
pub trait ToDiagnostic {
    /// Builds the diagnostic for this error.
    fn to_diagnostic(&self) -> Diagnostic;
}

impl<T> ToDiagnostic for T
where
    T: Clone,
    Diagnostic: From<T>,
{
    fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic::from(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_labels_and_notes() {
        let d = Diagnostic::error("TYP0001", "mismatch")
            .with_label(Span::new(4, 8, 2), "expected Integer")
            .with_secondary_label(Span::new(0, 3, 1), "declared here")
            .with_note("computed from comp type");
        assert_eq!(d.labels.len(), 2);
        assert!(d.labels[0].primary);
        assert!(!d.labels[1].primary);
        assert_eq!(d.notes.len(), 1);
        assert_eq!(d.primary_span(), Span::new(4, 8, 2));
        assert!(d.is_error());
    }

    #[test]
    fn primary_span_falls_back_to_first_label() {
        let d =
            Diagnostic::warning("TYP0002", "cast").with_secondary_label(Span::new(1, 2, 1), "here");
        assert_eq!(d.primary_span(), Span::new(1, 2, 1));
        assert!(Diagnostic::error("X", "y").primary_span().is_dummy());
    }

    #[test]
    fn display_is_single_line() {
        let d = Diagnostic::error("SQL0001", "unknown column `views`")
            .with_label(Span::new(0, 5, 3), "");
        assert_eq!(d.to_string(), "error[SQL0001]: unknown column `views` (line 3)");
    }

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
    }
}

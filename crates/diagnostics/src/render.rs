//! Rendering diagnostics as rustc-style annotated source snippets.
//!
//! ```text
//! error[TYP0004]: body type does not match declared return type
//!   --> codeorg.rb:3:3
//!    |
//!  3 |   @current_user
//!    |   ^^^^^^^^^^^^^ found `User or nil`, declared `User`
//!    |
//!    = note: documented as never nil, but the reader can return nil
//! ```

use crate::diagnostic::{Diagnostic, Label};
use crate::source::{SourceMap, SourceSet};
use std::fmt::Write as _;

/// Renders one diagnostic against its source as an annotated snippet.
pub fn render(sm: &SourceMap, diag: &Diagnostic) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}[{}]: {}", diag.severity, diag.code, diag.message);

    // Labels with real spans get annotated source lines; located labels are
    // grouped per source line so a line is printed once however many labels
    // point at it.
    let mut located: Vec<&Label> = diag.labels.iter().filter(|l| !l.span.is_dummy()).collect();
    located.sort_by_key(|l| (sm.position(l.span).0, !l.primary, l.span.start));

    if let Some(first) = located.first() {
        let (line, col) = sm.position(first.span);
        let _ = writeln!(out, "  --> {}:{}:{}", sm.name(), line, col);
        let gutter =
            located.iter().map(|l| sm.position(l.span).0).max().unwrap_or(line).to_string().len();
        let _ = writeln!(out, "{:gutter$} |", "");

        let mut prev_line: Option<u32> = None;
        for label in &located {
            let (lline, lcol) = sm.position(label.span);
            if prev_line != Some(lline) {
                if let Some(p) = prev_line {
                    // Visual break between non-adjacent annotated lines.
                    if lline > p + 1 {
                        let _ = writeln!(out, "{:gutter$} |", "");
                    }
                }
                let text = sm.line_text(lline).unwrap_or("");
                let _ = writeln!(out, "{lline:gutter$} | {text}");
                prev_line = Some(lline);
            }
            let line_len = sm.line_text(lline).map(str::len).unwrap_or(0);
            let start = (lcol as usize - 1).min(line_len);
            let width = label.span.len().clamp(1, line_len.saturating_sub(start).max(1));
            let marker = if label.primary { "^" } else { "-" };
            let _ = write!(out, "{:gutter$} | {:start$}{}", "", "", marker.repeat(width));
            if label.message.is_empty() {
                out.push('\n');
            } else {
                let _ = writeln!(out, " {}", label.message);
            }
        }
        let _ = writeln!(out, "{:gutter$} |", "");
        for note in &diag.notes {
            let _ = writeln!(out, "{:gutter$} = note: {note}", "");
        }
    } else {
        for note in &diag.notes {
            let _ = writeln!(out, "  = note: {note}");
        }
    }
    // Labels without a location still carry their message as trailing notes.
    for label in diag.labels.iter().filter(|l| l.span.is_dummy() && !l.message.is_empty()) {
        let _ = writeln!(out, "  = note: {}", label.message);
    }
    out
}

/// Renders one diagnostic of a multi-file program: the snippet is drawn
/// against the file of the primary label's span, and any label that points
/// into a *different* file is appended as a `file:line:col` note (a single
/// snippet cannot annotate two buffers).
///
/// Falls back to headline + notes when the set does not know the primary
/// span's file.
pub fn render_in(set: &SourceSet, diag: &Diagnostic) -> String {
    let anchor = diag.primary_span();
    let Some(sm) = set.map_for(anchor) else {
        let mut out = String::new();
        let _ = writeln!(out, "{}[{}]: {}", diag.severity, diag.code, diag.message);
        for note in &diag.notes {
            let _ = writeln!(out, "  = note: {note}");
        }
        return out;
    };
    // Keep only labels in the anchor's file for the snippet (dummy-span
    // labels stay — `render` prints them as trailing notes); labels in
    // *other* files are reported positionally below, so no location or
    // message is silently dropped.
    let mut local = diag.clone();
    local.labels.retain(|l| l.span.is_dummy() || l.span.file == anchor.file);
    let mut out = render(sm, &local);
    for label in diag.labels.iter().filter(|l| l.span.file != anchor.file && !l.span.is_dummy()) {
        if let Some(other) = set.map_for(label.span) {
            let (line, col) = other.position(label.span);
            let _ = writeln!(out, "  = note: {}:{}:{}: {}", other.name(), line, col, label.message);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::Diagnostic;
    use crate::span::Span;

    fn sm() -> SourceMap {
        SourceMap::new("app.rb", "def m(x)\n  x.foo(1)\nend\n")
    }

    #[test]
    fn renders_primary_label_with_carets() {
        let d = Diagnostic::error("TYP0002", "no method `foo`")
            .with_label(Span::new(11, 16, 2), "receiver has type Integer");
        let r = render(&sm(), &d);
        assert!(r.contains("error[TYP0002]: no method `foo`"), "{r}");
        assert!(r.contains("--> app.rb:2:3"), "{r}");
        assert!(r.contains("2 |   x.foo(1)"), "{r}");
        assert!(r.contains("^^^^^ receiver has type Integer"), "{r}");
    }

    #[test]
    fn renders_multiple_labels_across_lines() {
        let d = Diagnostic::error("TYP0001", "mismatch")
            .with_label(Span::new(11, 12, 2), "used here")
            .with_secondary_label(Span::new(6, 7, 1), "param declared here")
            .with_note("one note");
        let r = render(&sm(), &d);
        let caret_line = r.lines().position(|l| l.contains("^ used here")).unwrap();
        let dash_line = r.lines().position(|l| l.contains("- param declared here")).unwrap();
        // Line 1's label renders before line 2's even though it is secondary.
        assert!(dash_line < caret_line, "{r}");
        assert!(r.contains("= note: one note"), "{r}");
    }

    #[test]
    fn two_labels_on_one_line_print_line_once() {
        let d = Diagnostic::error("TYP0001", "mismatch")
            .with_label(Span::new(11, 12, 2), "first")
            .with_secondary_label(Span::new(17, 18, 2), "second");
        let r = render(&sm(), &d);
        assert_eq!(r.matches("x.foo(1)").count(), 1, "{r}");
        assert!(r.contains("^ first"), "{r}");
        assert!(r.contains("- second"), "{r}");
    }

    #[test]
    fn dummy_span_renders_headline_and_notes_only() {
        let d = Diagnostic::error("TLC0001", "helper failed").with_note("while evaluating");
        let r = render(&sm(), &d);
        assert!(r.starts_with("error[TLC0001]: helper failed"), "{r}");
        assert!(!r.contains("-->"), "{r}");
        assert!(r.contains("= note: while evaluating"), "{r}");
    }

    #[test]
    fn render_in_picks_the_right_file_and_notes_the_other() {
        let mut set = SourceSet::new();
        let app = set.add("app.rb", "def m(x)\n  x.foo(1)\nend\n");
        let tests = set.add("app_test.rb", "m(3)\n");
        let d = Diagnostic::error("TYP0002", "no method `foo`")
            .with_label(Span::in_file(tests, 0, 4, 1), "called from here")
            .with_secondary_label(Span::in_file(app, 11, 16, 2), "declared here")
            .with_secondary_label(Span::dummy(), "while evaluating the comp type");
        let r = render_in(&set, &d);
        assert!(r.contains("--> app_test.rb:1:1"), "{r}");
        assert!(r.contains("^^^^ called from here"), "{r}");
        assert!(r.contains("= note: app.rb:2:3: declared here"), "{r}");
        assert!(!r.contains("x.foo"), "other file's line must not render as a snippet: {r}");
        // A dummy-span label must survive as a plain note even though the
        // anchor sits in a non-zero file.
        assert!(r.contains("= note: while evaluating the comp type"), "{r}");
    }

    #[test]
    fn render_in_unknown_file_falls_back_to_headline() {
        let set = SourceSet::new();
        let d = Diagnostic::error("X0001", "boom")
            .with_label(Span::in_file(4, 0, 1, 1), "here")
            .with_note("context");
        let r = render_in(&set, &d);
        assert!(r.starts_with("error[X0001]: boom"), "{r}");
        assert!(r.contains("= note: context"), "{r}");
    }

    #[test]
    fn clamps_out_of_range_spans() {
        let d = Diagnostic::error("X0001", "weird").with_label(Span::new(500, 600, 9), "here");
        let r = render(&sm(), &d);
        assert!(r.contains("^"), "{r}");
    }
}

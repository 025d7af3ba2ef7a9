//! Corpus-side glue for the [`analysis`] lint suite.
//!
//! The lint pass runs over each app's parsed two-file program (the same
//! parse the type checker sees), produces `LINT01xx` warnings, and joins
//! the Table 2 row as [`crate::Table2Row::lints`].  Two conversions live
//! here because neither neighbouring crate may depend on the other:
//!
//! * [`analysis::LintFinding`] → [`diagnostics::Diagnostic`] (rendering) is
//!   provided by `analysis` itself, and
//! * [`analysis::LintFinding`] ↔ [`comprdl::LintRecord`] (persistence) is
//!   this module — `comprdl::persist` stores lint verdicts as plain
//!   span-carrying records without knowing what a lint is, and `analysis`
//!   stays ignorant of the cache.  Notes are **derived from the code at
//!   render time** ([`analysis::note_for`]), so a replayed record renders
//!   byte-identically to a fresh finding without persisting the note.

use analysis::{LintFinding, MethodLints};
use comprdl::LintRecord;
use diagnostics::{Diagnostic, DiagnosticBag};
use ruby_syntax::{Program, ProgramIndex};

/// Converts one method's findings into persistable [`LintRecord`]s.
pub fn findings_to_records(m: &MethodLints) -> Vec<LintRecord> {
    m.findings
        .iter()
        .map(|f| LintRecord {
            code: f.code.clone(),
            message: f.message.clone(),
            label: f.label.clone(),
            span: f.span,
        })
        .collect()
}

/// Renders a replayed [`LintRecord`] exactly like a fresh finding: a
/// warning with the stored label plus the code-derived note.
pub fn record_to_diagnostic(r: &LintRecord) -> Diagnostic {
    let finding = LintFinding {
        code: r.code.clone(),
        message: r.message.clone(),
        label: r.label.clone(),
        span: r.span,
    };
    Diagnostic::from(&finding)
}

/// Collects every finding of a lint pass into a canonically sorted
/// [`DiagnosticBag`] (the same span-then-code order the error bag uses), so
/// the rendered warnings are byte-identical regardless of which worker
/// linted which method.
pub fn lint_bag(methods: &[MethodLints]) -> DiagnosticBag {
    let mut bag: DiagnosticBag =
        methods.iter().flat_map(|m| m.findings.iter()).map(Diagnostic::from).collect();
    bag.sort_by_span_then_code();
    bag
}

/// Runs the lint suite over every method of a parsed program with
/// `threads` workers (1 = sequential) and returns the per-method results.
/// The parallel splitting is output-invisible: [`analysis::lint_methods`]
/// merges worker results back into method order.  With `summaries`,
/// `LINT0105` follows taint through calls (a caller that concatenates user
/// input and passes it to a callee whose summary says the parameter
/// reaches a SQL sink is flagged at the call site).
pub fn lint_pass_with_summaries(
    program: &Program,
    summaries: Option<&analysis::ProgramSummaries>,
    threads: usize,
) -> Vec<MethodLints> {
    analysis::lint_methods(ProgramIndex::new(program).methods(), summaries, threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trip_renders_byte_identically() {
        let program =
            ruby_syntax::parse_program_strict("def leftover(a)\n  unused = a\n  a\nend\n").unwrap();
        let fresh = lint_pass_with_summaries(&program, None, 1);
        let bag = lint_bag(&fresh);
        assert_eq!(bag.warning_count(), 1, "{bag}");

        // Through the persistence representation and back.
        let records: Vec<LintRecord> = fresh.iter().flat_map(findings_to_records).collect();
        let mut replayed: DiagnosticBag = records.iter().map(record_to_diagnostic).collect();
        replayed.sort_by_span_then_code();
        let render =
            |b: &DiagnosticBag| b.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n");
        assert_eq!(render(&bag), render(&replayed));
    }
}

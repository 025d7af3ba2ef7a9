//! Integration tests for the shared diagnostics spine: every layer's error
//! type converts into `diagnostics::Diagnostic`, spans survive the trip, and
//! the renderer produces annotated snippets for each.

use comprdl::{CheckOptions, CompRdl, TypeChecker};
use diagnostics::{render, Diagnostic, DiagnosticBag, Severity, SourceMap};

#[test]
fn lex_error_converts_with_span() {
    let src = "x = \"unterminated";
    let (_, diags) = ruby_syntax::parse_program_in_file(src, 0);
    let d = diags.into_iter().next().expect("lexing fails");
    assert_eq!(d.code, "LEX0001");
    assert_eq!(d.severity, Severity::Error);
    assert!(!d.primary_span().is_dummy());
    let rendered = render(&SourceMap::new("t.rb", src), &d);
    assert!(rendered.contains("--> t.rb:1:"), "{rendered}");
    assert!(rendered.contains('^'), "{rendered}");
}

#[test]
fn parse_error_converts_with_span() {
    let src = "def m(\n  1\nend\n";
    let err = ruby_syntax::parse_program_strict(src).expect_err("parsing fails");
    let d = Diagnostic::from(err);
    assert_eq!(d.code, "PARSE0001");
    assert!(!d.primary_span().is_dummy());
    let rendered = render(&SourceMap::new("t.rb", src), &d);
    assert!(rendered.contains("error[PARSE0001]"), "{rendered}");
}

#[test]
fn sig_parse_error_converts_with_offset_span() {
    let err = rdl_types::parse_method_sig("(String -> %bool").expect_err("bad annotation");
    let d = Diagnostic::from(err.clone());
    assert_eq!(d.code, "SIG0001");
    assert_eq!(d.primary_span(), err.span());
    assert!(!d.primary_span().is_dummy());
}

#[test]
fn type_error_info_converts_with_method_context() {
    let mut env = CompRdl::new();
    comprdl::stdlib::register_all(&mut env);
    env.type_sig("Object", "answer", "() -> String", Some("app"));
    let src = "def answer()\n  42\nend\n";
    let program = ruby_syntax::parse_program_strict(src).unwrap();
    let result = TypeChecker::new(&env, &program, CheckOptions::default()).check_labeled("app");
    let errors = result.errors();
    assert!(!errors.is_empty());
    let d = Diagnostic::from(errors[0].clone());
    assert_eq!(d.code, errors[0].category.code());
    assert!(d.labels[0].message.contains("Object#answer"), "{:?}", d.labels);
    assert_eq!(errors[0].line(), errors[0].span.line);
    let rendered = render(&SourceMap::new("answer.rb", src), &d);
    assert!(rendered.contains("--> answer.rb:1:1"), "{rendered}");
}

#[test]
fn tlc_error_converts_and_keeps_innermost_span() {
    let err = comprdl::TlcError::new("boom");
    assert_eq!(err.span, None);
    let span = diagnostics::Span::new(3, 7, 1);
    let err = err.or_span(span).or_span(diagnostics::Span::new(0, 20, 1));
    assert_eq!(err.span, Some(span), "first attached span must win");
    let d = Diagnostic::from(err);
    assert_eq!(d.code, "TLC0001");
    assert_eq!(d.primary_span(), span);
}

#[test]
fn tlc_eval_failure_carries_a_real_span() {
    // Evaluating type-level code that references an unbound variable fails,
    // and the error's span points into the type-level source.
    let env = CompRdl::new();
    let expr = ruby_syntax::parse_expr("missing_var.foo(1)").unwrap();
    let classes = rdl_types::ClassTable::with_builtins();
    let mut store = rdl_types::TypeStore::new();
    let mut ctx =
        comprdl::TlcCtx::new(&mut store, &classes, &env.helpers, std::collections::HashMap::new());
    let err = ctx.eval(&expr).expect_err("evaluation fails");
    assert!(err.span.is_some(), "eval should attach the failing expression's span: {err}");
}

#[test]
fn effect_violation_converts_with_span() {
    use rdl_types::{PurityEffect, TermEffect};
    let mut effects = comprdl::EffectEnv::new();
    effects.set("each", TermEffect::Terminates, PurityEffect::Pure);
    let checker = comprdl::TerminationChecker::new(effects);
    let expr = ruby_syntax::parse_expr("while true do x end").unwrap();
    let violations = checker.check_expr(&expr);
    assert!(!violations.is_empty());
    let d = Diagnostic::from(violations[0].clone());
    assert_eq!(d.code, "TERM0001");
    assert!(!d.primary_span().is_dummy());
}

#[test]
fn ruby_error_converts_with_kind_code() {
    let program = ruby_syntax::parse_program_strict("raise('boom')\n").unwrap();
    let interp = ruby_interp::Interpreter::new(program);
    let err = interp.eval_program().expect_err("raises");
    let d = Diagnostic::from(err.clone());
    assert_eq!(d.code, err.kind.code());
    assert!(!d.primary_span().is_dummy());
}

#[test]
fn blame_error_carries_explanatory_note() {
    use ruby_syntax::Span;
    let err = ruby_interp::RubyError::new(
        ruby_interp::ErrorKind::Blame,
        "expected Array, got String",
        Span::new(0, 4, 1),
    );
    let d = Diagnostic::from(err);
    assert_eq!(d.code, "RT0001");
    assert!(d.notes.iter().any(|n| n.contains("dynamic check")), "{:?}", d.notes);
}

#[test]
fn sql_errors_convert_with_spans_into_completed_query() {
    use sql_tc::{check_fragment, SqlSchema, SqlType};
    let mut schema = SqlSchema::new();
    schema.add_table("topics", &[("id", SqlType::Integer), ("title", SqlType::Text)]);
    let errors = check_fragment(&schema, &["topics".into()], "title = ?", &[SqlType::Integer]);
    assert_eq!(errors.len(), 1);
    let d = Diagnostic::from(errors[0].clone());
    assert_eq!(d.code, "SQL0002");
    assert!(!d.primary_span().is_dummy(), "comparison errors carry spans");

    let parse_err = sql_tc::parse_select("SELECT FROM").expect_err("bad sql");
    let d = Diagnostic::from(parse_err);
    assert_eq!(d.code, "SQL0001");
}

#[test]
fn corpus_rows_aggregate_diagnostics() {
    let rows = corpus::table2().expect("corpus evaluates");
    for row in &rows {
        assert_eq!(
            row.diagnostics.error_count(),
            row.errors(),
            "all checker diagnostics are errors for {}",
            row.program
        );
    }
    // The paper's corpus finds real bugs: at least one app has errors, and
    // its diagnostics carry checker codes.
    let buggy: Vec<_> = rows.iter().filter(|r| r.errors() > 0).collect();
    assert!(!buggy.is_empty());
    for row in buggy {
        for d in row.diagnostics.iter() {
            assert!(d.code.starts_with("TYP"), "{}: unexpected code {}", row.program, d.code);
        }
    }
    let per_app = corpus::corpus_diagnostics(&rows);
    let summary = corpus::format_diagnostic_summary(&per_app);
    assert!(summary.contains("Total"), "{summary}");
}

#[test]
fn diagnostic_bag_aggregates_across_layers() {
    let mut bag = DiagnosticBag::new();
    bag.push(Diagnostic::from(ruby_syntax::parse_program_strict("def\n").expect_err("bad")));
    bag.push(Diagnostic::from(comprdl::TlcError::new("tlc")));
    bag.push(Diagnostic::warning("TYP0002", "imprecise"));
    assert_eq!(bag.len(), 3);
    assert_eq!(bag.error_count(), 2);
    assert_eq!(bag.warning_count(), 1);
    let codes = bag.counts_by_code();
    assert_eq!(codes["PARSE0001"], 1);
    assert_eq!(codes["TLC0001"], 1);
}

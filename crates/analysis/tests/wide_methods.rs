//! Methods with more than 64 parameters or locals.  The summaries and the
//! lints keep a method's names in bit sets whose first 64 members sit in
//! one word; no corpus or generated method has that many names, so only
//! these tests reach the words past it.

use analysis::{lint_methods, ProgramSummaries, DEAD_ASSIGNMENT, SQL_TAINT, USE_BEFORE_DEF};
use rdl_types::EffectTable;
use ruby_syntax::parse_program_strict;

#[test]
fn the_seventieth_parameter_flows_into_a_sql_sink_and_the_return_value() {
    let params: Vec<String> = (0..70).map(|i| format!("p{i:02}")).collect();
    let src = format!("def self.search({})\n  where('title = ' + p69)\nend\n", params.join(", "));
    let program = parse_program_strict(&src).expect("parse");
    let sums = ProgramSummaries::infer(&program, &EffectTable::new(), 1);
    let search = sums.get("Object", "search", true).expect("summarized");
    assert!(search.taint.params_to_sink().eq([69]), "{:?}", search.taint);
    assert!(search.taint.params_to_return().eq([69]), "{:?}", search.taint);
    assert!(!search.taint.self_to_sink() && !search.taint.self_to_return());

    for summaries in [None, Some(&sums)] {
        let lints = lint_methods(&program.methods(), summaries, 1);
        let findings = &lints[0].findings;
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].code, SQL_TAINT);
        assert_eq!(&src[findings[0].span.start..findings[0].span.end], "'title = ' + p69");
    }
}

#[test]
fn locals_past_the_sixty_fourth_are_still_tracked() {
    // Slots sort by name: a00..a69 and `c` come first, so `z1` and `z2`
    // sit past the first 64.
    let mut src = String::from("def m(c)\n");
    for i in 0..70 {
        src += &format!("  a{i:02} = {i}\n");
    }
    src += "  if c\n    z1 = 1\n  end\n  z2 = 1\n  z2 = 2\n  ";
    let reads: Vec<String> = (0..70).map(|i| format!("a{i:02}")).collect();
    src += &format!("{} + z1 + z2\nend\n", reads.join(" + "));
    let program = parse_program_strict(&src).expect("parse");
    let lints = lint_methods(&program.methods(), None, 1);
    let found: Vec<(&str, &str)> = lints[0]
        .findings
        .iter()
        .map(|f| (f.code.as_str(), &src[f.span.start..f.span.end]))
        .collect();
    assert_eq!(found, vec![(DEAD_ASSIGNMENT, "z2 = 1"), (USE_BEFORE_DEF, "z1")]);
}

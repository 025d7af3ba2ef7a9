//! End-to-end integration test over the whole corpus: every subject app
//! parses, type checks with exactly the expected (seeded) errors, needs
//! fewer casts with comp types than without, and its test suite runs under
//! the inserted dynamic checks, with runtime blame limited to the Sequel
//! app's deliberate mid-suite migration.

#[test]
fn full_corpus_evaluation_matches_the_paper_shape() {
    let rows = corpus::table2().expect("harness runs");
    // The paper's six apps plus the call-site-dense Redmine analogue and
    // the migrating Sequel subject.
    assert_eq!(rows.len(), 8);

    // Three confirmed errors across the corpus: one in Code.org, two in
    // Journey (paper §5.3).
    let errors: usize = rows.iter().map(|r| r.errors()).sum();
    assert_eq!(errors, 3);

    // Comp types need substantially fewer casts than plain RDL.
    let casts: usize = rows.iter().map(|r| r.casts).sum();
    let casts_rdl: usize = rows.iter().map(|r| r.casts_rdl).sum();
    assert!(casts_rdl > casts);

    // Every app ran its suite with checks enabled; only the migrating
    // Sequel app records runtime blame (as span-carrying diagnostics).
    for row in &rows {
        assert!(row.dynamic_checks_run > 0, "{}", row.program);
        if row.program == "Sequel" {
            assert_eq!(row.runtime_blames.len(), 3, "post-migration consistency blames");
        } else {
            assert!(row.runtime_blames.is_empty(), "{} must not blame", row.program);
        }
    }
}

#[test]
fn table1_totals_are_in_the_papers_ballpark() {
    let (rows, helpers) = corpus::table1();
    let total: usize = rows.iter().map(|r| r.comp_type_definitions).sum();
    // The paper reports 586 comp type definitions and 83 helper methods; we
    // assert the same order of magnitude rather than exact numbers.
    assert!((450..=800).contains(&total), "total annotations {total}");
    assert!((20..=150).contains(&helpers), "helpers {helpers}");
}

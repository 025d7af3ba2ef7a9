//! The definition of a subject program ("app") in the evaluation corpus.

use comprdl::CompRdl;
use db_types::DbRegistry;
use std::sync::Arc;

/// A synthetic subject program, standing in for one of the six apps the
/// paper evaluates (Wikipedia client, Twitter gem, Discourse, Huginn,
/// Code.org, Journey).
pub struct App {
    /// Display name used in Table 2.
    pub name: &'static str,
    /// Which group the app belongs to ("API client libraries" or "Rails
    /// Applications"), mirroring Table 2's grouping.
    pub group: &'static str,
    /// The database schema / associations the app uses (`None` for the API
    /// client libraries), shared by every environment built for the app.
    pub db: Option<Arc<DbRegistry>>,
    /// App-specific annotations: the signatures (with `typecheck: "app"`
    /// labels) of the methods selected for checking, plus the "extra
    /// annotations" for globals, instance variables and helper methods.
    pub annotate: fn(&mut CompRdl),
    /// The app's Ruby-subset source: the classes and methods under check
    /// plus the runtime fixtures they need.
    pub source: &'static str,
    /// A small test suite (top-level expressions using `assert` /
    /// `assert_equal`) exercising the checked methods, used to measure the
    /// overhead of the inserted dynamic checks.
    pub test_suite: &'static str,
    /// Number of "extra annotations" (paper Table 2 column) the app needed.
    pub extra_annotations: usize,
    /// Number of genuine errors seeded in the app (Table 2 "Errs").
    pub expected_errors: usize,
}

impl App {
    /// The full program source: app code followed by the test suite.
    ///
    /// This is the *single-file* view (everything in file `0`); prefer
    /// [`App::parse`], which keeps the app and its test suite as separate
    /// files so their spans stay distinguishable.
    pub fn full_source(&self) -> String {
        format!("{}\n{}\n", self.source, self.test_suite)
    }

    fn slug(&self) -> String {
        self.name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
            .collect()
    }

    /// Display name of the app's source file (e.g. `journey.rb`).
    pub fn source_file_name(&self) -> String {
        format!("{}.rb", self.slug())
    }

    /// Display name of the app's test-suite file (e.g. `journey_test.rb`).
    pub fn test_file_name(&self) -> String {
        format!("{}_test.rb", self.slug())
    }

    /// Parses the app as a **two-file** program — the app source and its
    /// test suite each get their own file id — returning the merged program,
    /// the [`diagnostics::SourceSet`] that maps every span's file id back to
    /// a named buffer, and any parse-recovery diagnostics.  Byte offsets
    /// restart at `0` in each file, so the file id in each span is what keeps
    /// call-site identities (and therefore the inserted dynamic checks) from
    /// colliding across files.
    ///
    /// Parsing never fails: malformed regions degrade to error placeholders
    /// / poisoned methods (see `ruby_syntax::parse_program`) and each is
    /// reported through the returned diagnostics.
    pub fn parse(
        &self,
    ) -> (ruby_syntax::Program, diagnostics::SourceSet, Vec<diagnostics::Diagnostic>) {
        self.parse_with_source(self.source)
    }

    /// Like [`App::parse`], but with the app's source text replaced by
    /// `source` (the test suite is kept as-is).  This is the entry point for
    /// incremental re-checking and fault-injection experiments: the driver
    /// injects an edited (possibly syntactically broken) variant of the app
    /// and compares which methods need re-checking or which diagnostics
    /// appear.
    pub fn parse_with_source(
        &self,
        source: &str,
    ) -> (ruby_syntax::Program, diagnostics::SourceSet, Vec<diagnostics::Diagnostic>) {
        let mut sources = diagnostics::SourceSet::new();
        let app_file = sources.add(self.source_file_name(), source);
        let test_file = sources.add(self.test_file_name(), self.test_suite);
        let (app, mut diags) = ruby_syntax::parse_program_in_file(source, app_file);
        let (tests, mut test_diags) =
            ruby_syntax::parse_program_in_file(self.test_suite, test_file);
        diags.append(&mut test_diags);
        (app.merge(tests), sources, diags)
    }

    /// Builds the CompRDL environment for this app: core library
    /// annotations, DB DSL annotations (when the app uses a database), and
    /// the app's own annotations.
    ///
    /// The core library and the DB DSL annotation sets are parsed once per
    /// process and shared with every other environment (see
    /// [`CompRdl::merge_library`]); the model classes, the DB helpers over
    /// this app's schema and the app's own annotations are built per call,
    /// and the helpers share the app's schema rather than copying it.
    pub fn build_env(&self) -> CompRdl {
        let mut env = CompRdl::new();
        comprdl::stdlib::register_all(&mut env);
        if let Some(db) = &self.db {
            db_types::register_all(&mut env, Arc::clone(db));
        }
        (self.annotate)(&mut env);
        env
    }
}

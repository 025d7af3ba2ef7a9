//! The Journey analogue: an online questionnaire application, including the
//! two confirmed bugs from the paper (§5.3): a reference to an undefined
//! constant (`Field`, renamed to `Question::Field` upstream), and a hash
//! argument whose `:action` value is accidentally a method call returning an
//! array rather than a string or symbol.

use crate::app::App;
use comprdl::CompRdl;
use db_types::{ColumnType, DbRegistry};
use std::sync::Arc;

const SOURCE: &str = r#"
class Question < ActiveRecord::Base
  def self.seed(rows)
    @rows = rows
  end

  def self.rows()
    @rows || []
  end

  def self.where(cond, arg = nil)
    @filtered = rows().select { |r| cond.all? { |k, v| r[k] == v } }
    self
  end

  def self.pluck(col)
    (@filtered || rows()).map { |r| r[col] }
  end

  def self.count(col = nil)
    (@filtered || rows()).length()
  end

  def self.exists?(cond = nil)
    rows().any? { |r| cond.all? { |k, v| r[k] == v } }
  end

  # A list of prompts (used by the buggy redirect builder below).
  def self.prompt()
    ['What is your name?', 'How old are you?']
  end

  def self.redirect_params(params)
    'redirect'
  end

  # --- methods selected for type checking ---------------------------------
  def self.question_titles(questionnaire_id)
    Question.where({ questionnaire_id: questionnaire_id }).pluck(:title)
  end

  def self.answered?(questionnaire_id)
    Question.exists?({ questionnaire_id: questionnaire_id, answered: true })
  end

  # Seeded bug #2: the constant `Field` does not exist (it was moved to
  # `Question::Field` upstream).
  def self.field_class()
    Field
  end

  # Seeded bug #3: `prompt` is a method call returning an Array, but the
  # :action entry must be a String or Symbol.
  def self.build_redirect()
    Question.redirect_params({ :action => prompt(), :id => 1 })
  end

  # Lint bait (LINT0102 + LINT0103): `draft` is written but never read, and
  # the first value of `total` is overwritten before any read.  Unlabeled
  # and never called, so it changes no Table 2 column except the lint count.
  def self.tally_scratch()
    draft = Question.count()
    total = 0
    total = Question.count()
    total
  end
end
"#;

const TEST_SUITE: &str = r#"
Question.seed([
  { id: 1, questionnaire_id: 5, title: 'Name?', answered: true },
  { id: 2, questionnaire_id: 5, title: 'Age?', answered: false },
  { id: 3, questionnaire_id: 6, title: 'Color?', answered: false }
])
assert_equal(['Name?', 'Age?'], Question.question_titles(5))
assert(Question.answered?(5))
assert(!Question.answered?(6))
9.times { |i|
  assert_equal(1, Question.question_titles(6).length())
}
"#;

fn schema() -> DbRegistry {
    let mut db = DbRegistry::new();
    db.add_table(
        "questions",
        &[
            ("id", ColumnType::Integer),
            ("questionnaire_id", ColumnType::Integer),
            ("title", ColumnType::String),
            ("answered", ColumnType::Boolean),
        ],
    );
    db.add_table("questionnaires", &[("id", ColumnType::Integer), ("name", ColumnType::String)]);
    db.add_model("Question", "questions");
    db.add_model("Questionnaire", "questionnaires");
    db
}

fn annotate(env: &mut CompRdl) {
    env.type_sig_singleton("Question", "rows", "() -> Array<Hash<Symbol, Object>>", None);
    env.type_sig_singleton("Question", "prompt", "() -> Array<String>", None);
    env.type_sig_singleton(
        "Question",
        "redirect_params",
        "({ action: String or Symbol, id: Integer }) -> String",
        None,
    );
    env.type_sig_singleton(
        "Question",
        "question_titles",
        "(Integer) -> Array<Object>",
        Some("app"),
    );
    env.type_sig_singleton("Question", "answered?", "(Integer) -> %bool", Some("app"));
    env.type_sig_singleton("Question", "field_class", "() -> Object", Some("app"));
    env.type_sig_singleton("Question", "build_redirect", "() -> String", Some("app"));
}

/// Builds the Journey app.
pub fn app() -> App {
    App {
        name: "Journey",
        group: "Rails Applications",
        db: Some(Arc::new(schema())),
        annotate,
        source: SOURCE,
        test_suite: TEST_SUITE,
        extra_annotations: 3,
        expected_errors: 2,
    }
}

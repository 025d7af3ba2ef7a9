//! The Sequel analogue: a music-catalogue application written against the
//! Sequel dataset DSL, added as the corpus's eighth subject.
//!
//! Two things distinguish it from the other apps:
//!
//! * it exercises the **Sequel annotation set** (paper Table 1's second
//!   ORM) end-to-end — `filter` / `exclude` / `select_map` / `count_rows` /
//!   `sum_column` / `max_column` / `empty_dataset?` / `join_table` all
//!   resolve through the `Sequel::Dataset` comp types, whose `table_of` /
//!   `joins_type` returns are re-evaluated by the runtime consistency
//!   checks at every hit;
//! * its test suite runs a **mid-suite schema migration**: the checked
//!   `run_migration` method calls `Track.migrate!(2)`, whose comp type
//!   flips a named type-level slot in the hook's [`rdl_types::TypeStore`]
//!   at run time (the argument is only an `Integer` statically, but a
//!   singleton `2` dynamically, so the flip happens during the *suite*, not
//!   during type checking).  From then on `amount_of`'s comp type evaluates
//!   to `String` where type checking computed `Integer`, so every later hit
//!   raises consistency blame — the workload that stresses generation/epoch
//!   invalidation in the shared runtime memo and produces real
//!   span-carrying blame diagnostics for the harness to render.

use crate::app::App;
use comprdl::{CompRdl, TlcValue};
use db_types::{ColumnType, DbRegistry};
use rdl_types::{SingVal, Type};
use std::sync::Arc;

const SOURCE: &str = r#"
class Track < Sequel::Model
  # --- runtime fixtures simulating the Sequel dataset -----------------------
  def self.seed(rows)
    @rows = rows
    @filtered = nil
  end

  def self.rows()
    @rows || []
  end

  def self.filter(cond)
    @filtered = rows().select { |r| cond.all? { |k, v| r[k] == v } }
    self
  end

  def self.exclude(cond)
    @filtered = rows().reject { |r| cond.all? { |k, v| r[k] == v } }
    self
  end

  def self.join_table(assoc)
    @filtered = nil
    self
  end

  def self.select_map(col)
    (@filtered || rows()).map { |r| r[col] }
  end

  def self.count_rows()
    (@filtered || rows()).length()
  end

  def self.sum_column(col)
    (@filtered || rows()).map { |r| r[col] }.sum()
  end

  def self.max_column(col)
    (@filtered || rows()).map { |r| r[col] }.max()
  end

  def self.empty_dataset?()
    (@filtered || rows()).length() == 0
  end

  def self.amount_of(ix)
    [199, 250, 301].at(ix)
  end

  def self.migrate!(phase)
    phase
  end

  # --- methods selected for type checking ---------------------------------
  def self.names_on(album_id)
    Track.filter({ album_id: album_id }).select_map(:name)
  end

  def self.track_count(album_id)
    Track.filter({ album_id: album_id }).count_rows()
  end

  def self.longest(album_id)
    Track.filter({ album_id: album_id }).max_column(:seconds)
  end

  def self.total_cents(album_id)
    Track.filter({ album_id: album_id }).sum_column(:cents)
  end

  def self.catalogue_empty?()
    Track.exclude({ long: true }).empty_dataset?()
  end

  def self.with_albums()
    Track.join_table(:albums).count_rows()
  end

  def self.price_of(ix)
    Track.amount_of(ix)
  end

  def self.run_migration(phase)
    Track.migrate!(phase)
  end
end
"#;

const TEST_SUITE: &str = r#"
Track.seed([
  { id: 1, album_id: 1, name: 'Intro', seconds: 180, cents: 199, long: false },
  { id: 2, album_id: 1, name: 'Theme', seconds: 240, cents: 250, long: true },
  { id: 3, album_id: 2, name: 'Coda', seconds: 150, cents: 301, long: false }
])
assert_equal(['Intro', 'Theme'], Track.names_on(1))
assert_equal(2, Track.track_count(1))
assert_equal(240, Track.longest(1))
assert_equal(301, Track.total_cents(2))
assert(!Track.catalogue_empty?())
assert_equal(3, Track.with_albums())
assert_equal(199, Track.price_of(0))
# Phase 1: the call-site-dense loop — the same Sequel comp-typed sites hit
# repeatedly with the same value shapes, the access pattern the shared
# runtime memo serves.
18.times { |i|
  assert_equal(2, Track.track_count(1))
  assert_equal(240, Track.longest(1))
  assert_equal(449, Track.total_cents(1))
  assert(!Track.catalogue_empty?())
  assert_equal(250, Track.price_of(1))
}
# The mid-suite migration: flips the `sequel.amount` type-level slot in the
# hook's store (generation bump -> shared-memo epoch bump), which every
# thread sharing the memo must observe.
assert_equal(2, Track.run_migration(2))
# Phase 2: `amount_of`'s comp type now evaluates to String at run time but
# type checking computed Integer, so each of these three hits records a
# consistency blame (collected, not raised, under the harnesses' config) --
# and a memoized replay must reproduce the identical blame diagnostics in
# the identical order.
3.times { |i|
  assert_equal(199, Track.price_of(0))
  assert_equal(2, Track.track_count(1))
}
"#;

fn schema() -> DbRegistry {
    let mut db = DbRegistry::new();
    db.add_table(
        "tracks",
        &[
            ("id", ColumnType::Integer),
            ("album_id", ColumnType::Integer),
            ("name", ColumnType::String),
            ("seconds", ColumnType::Integer),
            ("cents", ColumnType::Integer),
            ("long", ColumnType::Boolean),
        ],
    );
    db.add_table("albums", &[("id", ColumnType::Integer), ("title", ColumnType::String)]);
    db.add_model("Track", "tracks");
    db.add_model("Album", "albums");
    db.add_association("Track", "albums", "albums");
    db
}

/// The named type-level slot the migration flips (see the module docs).
pub const AMOUNT_SLOT: &str = "sequel.amount";

fn annotate(env: &mut CompRdl) {
    // The migration pair.  `sequel_amount_type` reads the named slot (the
    // pre-migration default is Integer); `sequel_run_migration` flips it —
    // but only when its argument is a *singleton* integer, i.e. only when
    // evaluated at run time against a concrete value.  During type checking
    // the argument is the plain `Integer` of `run_migration`'s parameter,
    // so static evaluation never mutates the store.
    env.register_helper_native("sequel_amount_type", |ctx, _args| {
        let ty = ctx.store.named(AMOUNT_SLOT).cloned().unwrap_or_else(|| Type::nominal("Integer"));
        Ok(TlcValue::Type(ty))
    });
    env.register_helper_native("sequel_run_migration", |ctx, args| {
        if let Some(TlcValue::Type(t)) = args.first() {
            if let Type::Singleton(SingVal::Int(_)) = ctx.store.resolve(t) {
                ctx.store.set_named(AMOUNT_SLOT, Type::nominal("String"));
            }
        }
        Ok(TlcValue::Type(Type::nominal("Integer")))
    });

    // Extra annotations for fixture helpers used by the checked methods.
    env.type_sig_singleton("Track", "rows", "() -> Array<Hash<Symbol, Object>>", None);
    env.type_sig_singleton("Track", "amount_of", "(Integer) -> «sequel_amount_type()»", None);
    env.type_sig_singleton(
        "Track",
        "migrate!",
        "(t <: Integer) -> «sequel_run_migration(t)»",
        None,
    );
    // Checked methods.
    env.type_sig_singleton("Track", "names_on", "(Integer) -> Array<Object>", Some("app"));
    env.type_sig_singleton("Track", "track_count", "(Integer) -> Integer", Some("app"));
    env.type_sig_singleton("Track", "longest", "(Integer) -> Object", Some("app"));
    env.type_sig_singleton("Track", "total_cents", "(Integer) -> Numeric", Some("app"));
    env.type_sig_singleton("Track", "catalogue_empty?", "() -> %bool", Some("app"));
    env.type_sig_singleton("Track", "with_albums", "() -> Integer", Some("app"));
    env.type_sig_singleton("Track", "price_of", "(Integer) -> Integer", Some("app"));
    env.type_sig_singleton("Track", "run_migration", "(Integer) -> Integer", Some("app"));
}

/// Builds the Sequel app.
pub fn app() -> App {
    App {
        name: "Sequel",
        group: "Rails Applications",
        db: Some(Arc::new(schema())),
        annotate,
        source: SOURCE,
        test_suite: TEST_SUITE,
        extra_annotations: 3,
        expected_errors: 0,
    }
}

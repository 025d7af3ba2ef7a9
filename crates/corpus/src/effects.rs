//! Corpus-side glue for interprocedural effect summaries.
//!
//! The summary pass ([`analysis::ProgramSummaries`]) runs over each app's
//! parsed two-file program and infers termination, purity and taint facts
//! for every method bottom-up over the condensed call graph.  It is seeded
//! with the type checker's own explicit effect layer
//! ([`comprdl::explicit_effects`]), so a method the checker already trusts
//! is never "re-discovered" pessimistically.  Both sides speak
//! `rdl_types`' effect vocabulary, so the one conversion left here is
//! between [`analysis::MethodSummary`] and `comprdl`'s two views of it,
//! which are field copies:
//!
//! * [`comprdl::InferredEffect`] — installs the inferred layer *below* the
//!   explicit one in the type checker, and
//! * [`comprdl::EffectRecord`] — the persistence representation.  Records
//!   are keyed on `semdep` Merkle hashes (hash of the method's transitive
//!   dependency closure), which is precisely the soundness condition
//!   [`ProgramSummaries::infer_with_baseline`] requires of fixed
//!   summaries.

use std::collections::BTreeMap;

use analysis::{MethodSummary, ProgramSummaries, TaintSummary};
use comprdl::{CompRdl, EffectRecord, ExplicitEffects, InferredEffect};
use rdl_types::EffectLookup;
use ruby_syntax::{MethodId, Program, ProgramIndex};

/// The trusted seed effects for summary inference: the explicit layer
/// [`comprdl::explicit_effects`] hands the type checker, read by reference.
pub fn seed_map(env: &CompRdl) -> ExplicitEffects {
    comprdl::explicit_effects(env)
}

/// Infers summaries for every method of `program` with `threads` workers
/// (1 = sequential).  The parallel fact extraction is output-invisible:
/// the fixpoint itself is deterministic over the condensed call graph.
pub fn effects_pass<'p>(
    program: &'p Program,
    seed: &dyn EffectLookup,
    threads: usize,
) -> ProgramSummaries<'p> {
    ProgramSummaries::infer(program, seed, threads)
}

/// Converts the inferred summaries into the checker-facing layer:
/// one [`InferredEffect`] per summarized method.  Same-named methods on
/// different owners each contribute an entry;
/// [`comprdl::EffectEnv::install_inferred`] joins duplicates
/// pessimistically, which matches the checker's name-keyed (not
/// owner-keyed) effect lookups.
pub fn summaries_to_inferred(summaries: &ProgramSummaries) -> Vec<InferredEffect> {
    summaries
        .iter()
        .map(|s| InferredEffect {
            name: s.name.clone(),
            term: s.term,
            purity: s.purity,
            term_blame: s.term_blame.clone(),
            purity_blame: s.purity_blame.clone(),
        })
        .collect()
}

/// Converts one summary into its persistence representation, stamped with
/// the method's `semdep` Merkle hash (the replay key).
fn summary_to_record(s: &MethodSummary, merkle: u64) -> EffectRecord {
    EffectRecord {
        owner: s.owner.clone(),
        name: s.name.clone(),
        singleton: s.singleton,
        merkle,
        term: s.term,
        purity: s.purity,
        term_blame: s.term_blame.clone(),
        purity_blame: s.purity_blame.clone(),
        taint_return: s.taint.params_to_return.iter().map(|&i| i as u32).collect(),
        taint_sink: s.taint.params_to_sink.iter().map(|&i| i as u32).collect(),
        self_to_return: s.taint.self_to_return,
        self_to_sink: s.taint.self_to_sink,
    }
}

/// Reconstitutes a replayed record as a baseline summary for
/// [`ProgramSummaries::infer_with_baseline`].  The SCC id is set to zero:
/// baselines never carry SCC ids forward — inference always recomputes
/// them from the current program so warm renders match cold ones.
fn record_to_summary(r: &EffectRecord) -> MethodSummary {
    MethodSummary {
        owner: r.owner.clone(),
        name: r.name.clone(),
        singleton: r.singleton,
        term: r.term,
        purity: r.purity,
        term_blame: r.term_blame.clone(),
        purity_blame: r.purity_blame.clone(),
        taint: TaintSummary {
            params_to_return: r.taint_return.iter().map(|&i| i as usize).collect(),
            params_to_sink: r.taint_sink.iter().map(|&i| i as usize).collect(),
            self_to_return: r.self_to_return,
            self_to_sink: r.self_to_sink,
        },
        scc: 0,
    }
}

/// Converts every summary into a persistable record, Merkle-stamped from
/// `graph`.  A method without a Merkle hash (one the program defines more
/// than once) is skipped: it could never replay.
pub fn summaries_to_records(
    summaries: &ProgramSummaries,
    graph: &comprdl::DepGraph,
) -> Vec<EffectRecord> {
    summaries
        .iter()
        .filter_map(|s| {
            graph.merkle(&s.owner, &s.name, s.singleton).map(|m| summary_to_record(s, m))
        })
        .collect()
}

/// Builds the `fixed` baseline for incremental inference: every cached
/// record whose identity *and* Merkle hash still match the current
/// program replays verbatim; everything else is left for the fixpoint to
/// recompute.  A method the program defines more than once has no Merkle
/// hash, so it never replays.  Returns the baseline keyed the way
/// [`ProgramSummaries::infer_with_baseline`] expects.
pub fn replay_baseline(
    cache: &comprdl::CheckCache,
    app: &str,
    program: &Program,
    graph: &comprdl::DepGraph,
) -> BTreeMap<MethodId, MethodSummary> {
    let mut fixed = BTreeMap::new();
    for &(owner, def) in ProgramIndex::new(program).methods() {
        let Some(merkle) = graph.merkle(owner, &def.name, def.singleton) else { continue };
        if let Some(rec) = cache.replay_effects(app, owner, &def.name, def.singleton, merkle) {
            fixed.insert(
                (owner.to_string(), def.name.clone(), def.singleton),
                record_to_summary(&rec),
            );
        }
    }
    fixed
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdl_types::{EffectTable, PurityEffect, TermEffect};

    fn sample_program() -> Program {
        ruby_syntax::parse_program_strict(
            "def leaf(a)\n  a + 1\nend\n\
             def spin()\n  while true\n    @n = 1\n  end\n  0\nend\n\
             def caller(b)\n  leaf(b) + spin()\nend\n",
        )
        .unwrap()
    }

    #[test]
    fn seed_map_mirrors_the_checker_seeding() {
        use PurityEffect::{Impure, Pure};
        use TermEffect::{BlockDep, MayDiverge, Terminates};

        let mut env = CompRdl::new();
        comprdl::stdlib::register_all(&mut env);
        env.type_sig_with_effects("Object", "fast", "() -> Integer", Terminates, Pure);
        let seed = seed_map(&env);
        // A builtin, an annotation, and the pessimistic default all agree
        // with what `TypeChecker::new` would install explicitly.
        assert_eq!(seed.get("length").map(|s| s.0), Some(Terminates));
        assert_eq!(seed.get("fast"), Some(&(Terminates, Pure)));
        assert!(!seed.contains_key("no_such_method"));

        // Same-named annotations join to a verdict neither one states, in
        // every env: each builds its annotation table with a fresh hasher,
        // so their iteration orders differ.
        for _ in 0..32 {
            let mut env = CompRdl::new();
            env.type_sig_with_effects("A", "m", "() -> Integer", Terminates, Impure);
            env.type_sig_with_effects("B", "m", "() -> Integer", BlockDep, Pure);
            assert_eq!(seed_map(&env).get("m"), Some(&(BlockDep, Impure)));
        }

        // The shipped libraries annotate these names on several classes
        // with different effects.
        let discourse = crate::apps::discourse::app();
        let seed = seed_map(&discourse.build_env());
        for name in ["<<", "delete"] {
            assert_eq!(seed[name].1, Impure, "{name}");
        }
        for name in ["any?", "filter", "find", "partition", "select"] {
            assert_eq!(seed[name].0, BlockDep, "{name}");
        }
        let program =
            ruby_syntax::parse_program_strict("def drop_key(h, k)\n  h.delete(k)\nend\n").unwrap();
        for _ in 0..32 {
            let sums = effects_pass(&program, &seed_map(&discourse.build_env()), 1);
            assert_eq!(sums.get("Object", "drop_key", false).unwrap().purity, Impure);
        }

        // An annotation overrides a builtin; a helper overrides an
        // annotation.
        let mut env = CompRdl::new();
        env.register_helpers_ruby("def my_helper(t)\n  t\nend\n");
        env.type_sig_with_effects("X", "length", "() -> Integer", MayDiverge, Impure);
        env.type_sig_with_effects("X", "my_helper", "() -> Integer", MayDiverge, Impure);
        let seed = seed_map(&env);
        assert_eq!(seed["length"], (MayDiverge, Impure));
        assert_eq!(seed["my_helper"], (Terminates, Pure));
    }

    #[test]
    fn record_round_trip_preserves_everything_but_scc() {
        let program = sample_program();
        let sums = effects_pass(&program, &EffectTable::new(), 1);
        for s in sums.iter() {
            let rec = summary_to_record(s, 42);
            assert_eq!(rec.merkle, 42);
            let back = record_to_summary(&rec);
            assert_eq!(back.term, s.term);
            assert_eq!(back.purity, s.purity);
            assert_eq!(back.term_blame, s.term_blame);
            assert_eq!(back.purity_blame, s.purity_blame);
            assert_eq!(back.taint, s.taint);
        }
    }

    #[test]
    fn inferred_layer_carries_the_blame_chains() {
        let program = sample_program();
        let sums = effects_pass(&program, &EffectTable::new(), 1);
        let inferred = summaries_to_inferred(&sums);
        let spin = inferred.iter().find(|e| e.name == "spin").unwrap();
        assert_eq!(spin.term, TermEffect::MayDiverge);
        assert_eq!(spin.purity, PurityEffect::Impure);
        assert_eq!(spin.term_blame, vec!["spin".to_string(), "while loop".to_string()]);
    }
}

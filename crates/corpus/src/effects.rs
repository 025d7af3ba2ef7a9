//! Corpus-side glue for interprocedural effect summaries.
//!
//! The summary pass ([`analysis::ProgramSummaries`]) runs over each app's
//! parsed two-file program and infers termination, purity and taint facts
//! for every method bottom-up over the condensed call graph.  It is seeded
//! with the type checker's own explicit effect layer
//! ([`comprdl::explicit_effects`]), so a method the checker already trusts
//! is never "re-discovered" pessimistically.
//!
//! A method's inferred effects are one record, [`rdl_types::MethodSummary`],
//! from the inference through the checker to the cache, so nothing here
//! converts:
//!
//! * the checker installs the summaries as its inferred layer, *below* the
//!   explicit one ([`summaries_to_inferred`]), and
//! * the cache stores each summary as a [`comprdl::EffectRecord`], stamped
//!   with its `semdep` Merkle hash (the hash of the method's transitive
//!   dependency closure), which is precisely the soundness condition
//!   [`ProgramSummaries::infer_with_baseline`] requires of fixed summaries
//!   ([`summaries_to_records`], [`replay_baseline`]).

use std::collections::BTreeMap;

use analysis::{MethodSummary, ProgramSummaries};
use comprdl::{CompRdl, EffectRecord, ExplicitEffects};
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

/// The checker-facing layer: one summary per summarized method.
/// Same-named methods on different owners each contribute an entry;
/// [`comprdl::EffectEnv::install_inferred`] joins duplicates
/// pessimistically, which matches the checker's name-keyed (not
/// owner-keyed) effect lookups.
pub fn summaries_to_inferred(summaries: &ProgramSummaries) -> Vec<MethodSummary> {
    summaries.iter().cloned().collect()
}

/// Every summary as a persistable record, Merkle-stamped from `graph`.  A
/// method without a Merkle hash (one the program defines more than once)
/// is skipped: it could never replay.
pub fn summaries_to_records(
    summaries: &ProgramSummaries,
    graph: &comprdl::DepGraph,
) -> Vec<EffectRecord> {
    summaries
        .iter()
        .filter_map(|s| {
            let merkle = graph.merkle(&s.owner, &s.name, s.singleton)?;
            Some(EffectRecord { merkle, summary: s.clone() })
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
            fixed.insert((owner.to_string(), def.name.clone(), def.singleton), rec.summary);
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

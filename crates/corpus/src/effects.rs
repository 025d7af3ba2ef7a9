//! Corpus-side glue for interprocedural effect summaries.
//!
//! The summary pass ([`analysis::ProgramSummaries`]) runs over each app's
//! parsed two-file program and infers termination, purity and taint facts
//! for every method bottom-up over the condensed call graph.  Three
//! conversions live here because neither neighbouring crate may depend on
//! the other:
//!
//! * [`CompRdl`] → [`SeedMap`] — the trusted base effects the inference
//!   starts from, built **exactly** the way `TypeChecker::new` seeds its
//!   own [`comprdl::EffectEnv`] (builtins, then `terminates:`/`pure:`
//!   annotations, then registered helpers), so a method the checker
//!   already trusts is never "re-discovered" pessimistically;
//! * [`analysis::MethodSummary`] → [`comprdl::InferredEffect`] — installs
//!   the inferred layer *below* the explicit one in the type checker, and
//! * [`analysis::MethodSummary`] ↔ [`comprdl::EffectRecord`] — the
//!   persistence representation.  Records are keyed on `semdep` Merkle
//!   hashes (hash of the method's transitive dependency closure), which is
//!   precisely the soundness condition
//!   [`ProgramSummaries::infer_with_baseline`] requires of fixed
//!   summaries.

use std::collections::BTreeMap;

use analysis::{MethodSummary, ProgramSummaries, Purity, SeedEffect, SeedMap, TaintSummary, Term};
use comprdl::{CompRdl, EffectEnv, EffectRecord, InferredEffect};
use rdl_types::{PurityEffect, TermEffect};
use ruby_syntax::Program;

/// `analysis::Term` → the `EffectRecord` wire encoding.
fn term_to_u8(t: Term) -> u8 {
    match t {
        Term::Terminates => 0,
        Term::BlockDep => 1,
        Term::MayDiverge => 2,
    }
}

/// Wire encoding → `analysis::Term`.  Out-of-range values (impossible for
/// records that passed `CheckCache::from_bytes` validation) pessimize.
fn u8_to_term(v: u8) -> Term {
    match v {
        0 => Term::Terminates,
        1 => Term::BlockDep,
        _ => Term::MayDiverge,
    }
}

fn term_to_effect(t: Term) -> TermEffect {
    match t {
        Term::Terminates => TermEffect::Terminates,
        Term::BlockDep => TermEffect::BlockDep,
        Term::MayDiverge => TermEffect::MayDiverge,
    }
}

fn effect_to_term(t: TermEffect) -> Term {
    match t {
        TermEffect::Terminates => Term::Terminates,
        TermEffect::BlockDep => Term::BlockDep,
        TermEffect::MayDiverge => Term::MayDiverge,
    }
}

/// Builds the trusted seed effects for summary inference, mirroring the
/// seeding in `TypeChecker::new`: builtins from
/// [`EffectEnv::with_builtins`], every `terminates:`/`pure:` annotation,
/// and every registered type-level helper (blanket-trusted, as the checker
/// does).  Using the same base environment on both sides means the
/// checker's explicit layer and the inference's seeds can never disagree
/// about a name they both know.
pub fn seed_map(env: &CompRdl) -> SeedMap {
    let mut effects = EffectEnv::with_builtins();
    for ((_, _, name), sig) in env.annotations.iter() {
        effects.set(name, sig.term, sig.purity);
    }
    for name in env.helpers.names() {
        effects.set(&name, TermEffect::Terminates, PurityEffect::Pure);
    }
    effects
        .explicit_effects()
        .map(|(name, term, purity)| {
            (
                name.to_string(),
                SeedEffect { term: effect_to_term(term), pure: purity == PurityEffect::Pure },
            )
        })
        .collect()
}

/// Infers summaries for every method of `program` with `threads` workers
/// (1 = sequential).  The parallel fact extraction is output-invisible:
/// the fixpoint itself is deterministic over the condensed call graph.
pub fn effects_pass(program: &Program, seed: &SeedMap, threads: usize) -> ProgramSummaries {
    if threads > 1 {
        ProgramSummaries::infer_parallel(program, seed, threads)
    } else {
        ProgramSummaries::infer(program, seed)
    }
}

/// Converts the inferred summaries into the checker-facing layer:
/// one [`InferredEffect`] per summarized method.  Same-named methods on
/// different owners each contribute an entry;
/// [`EffectEnv::install_inferred`] joins duplicates pessimistically, which
/// matches the checker's name-keyed (not owner-keyed) effect lookups.
pub fn summaries_to_inferred(summaries: &ProgramSummaries) -> Vec<InferredEffect> {
    summaries
        .iter()
        .map(|s| InferredEffect {
            name: s.name.clone(),
            term: term_to_effect(s.term),
            purity: if s.purity == Purity::Pure {
                PurityEffect::Pure
            } else {
                PurityEffect::Impure
            },
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
        term: term_to_u8(s.term),
        purity: if s.purity == Purity::Pure { 0 } else { 1 },
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
        term: u8_to_term(r.term),
        purity: if r.purity == 0 { Purity::Pure } else { Purity::Impure },
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
/// `graph` (methods the dependency graph does not know are skipped — it is
/// built from the same program, so this does not happen in practice).
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
/// recompute.  Returns the baseline keyed the way
/// [`ProgramSummaries::infer_with_baseline`] expects.
pub fn replay_baseline(
    cache: &comprdl::CheckCache,
    app: &str,
    program: &Program,
    graph: &comprdl::DepGraph,
) -> BTreeMap<(String, String, bool), MethodSummary> {
    let mut fixed = BTreeMap::new();
    for (owner, def) in program.methods() {
        let Some(merkle) = graph.merkle(&owner, &def.name, def.singleton) else { continue };
        if let Some(rec) = cache.replay_effects(app, &owner, &def.name, def.singleton, merkle) {
            fixed.insert((owner.clone(), def.name.clone(), def.singleton), record_to_summary(&rec));
        }
    }
    fixed
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut env = CompRdl::new();
        comprdl::stdlib::register_all(&mut env);
        env.type_sig_with_effects(
            "Object",
            "fast",
            "() -> Integer",
            TermEffect::Terminates,
            PurityEffect::Pure,
        );
        let seed = seed_map(&env);
        // A builtin, an annotation, and the pessimistic default all agree
        // with what `TypeChecker::new` would install explicitly.
        assert_eq!(seed.get("length").map(|s| s.term), Some(Term::Terminates));
        assert_eq!(seed.get("fast"), Some(&SeedEffect { term: Term::Terminates, pure: true }));
        assert!(!seed.contains_key("no_such_method"));
    }

    #[test]
    fn record_round_trip_preserves_everything_but_scc() {
        let program = sample_program();
        let sums = effects_pass(&program, &SeedMap::new(), 1);
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
        let sums = effects_pass(&program, &SeedMap::new(), 1);
        let inferred = summaries_to_inferred(&sums);
        let spin = inferred.iter().find(|e| e.name == "spin").unwrap();
        assert_eq!(spin.term, TermEffect::MayDiverge);
        assert_eq!(spin.purity, PurityEffect::Impure);
        assert_eq!(spin.term_blame, vec!["spin".to_string(), "while loop".to_string()]);
    }
}

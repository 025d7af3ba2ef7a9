//! Corpus-scale gates for the type core: subtyping, fingerprints and
//! renders agree on structurally identical store-backed types, joins
//! behave at their edge cases, and nothing user-facing leaks a raw store
//! id.

use corpus::{apps, corpus_diagnostics, render_runtime_blames, stable_report, table2};
use rdl_types::{ClassTable, HashKey, SingVal, Subtyper, Type, TypeStore};
use test_rng::Rng;

fn leaf(rng: &mut Rng) -> Type {
    match rng.below(12) {
        0 => Type::Top,
        1 => Type::Bot,
        2 => Type::Bool,
        3 => Type::nominal("String"),
        4 => Type::nominal("Integer"),
        5 => Type::nominal("Symbol"),
        6 => Type::nominal("Numeric"),
        7 => Type::sym("emails"),
        8 => Type::int(7),
        9 => Type::nil(),
        10 => Type::Singleton(SingVal::True),
        _ => Type::Var("t".to_string()),
    }
}

/// A random type that, unlike the `rdl-types` proptests, mixes in
/// store-backed tuples, finite hashes and const strings.
fn arb_type(rng: &mut Rng, store: &mut TypeStore, depth: u32) -> Type {
    if depth == 0 || rng.below(3) == 0 {
        return leaf(rng);
    }
    match rng.below(6) {
        0 => Type::array(arb_type(rng, store, depth - 1)),
        1 => Type::hash(arb_type(rng, store, depth - 1), arb_type(rng, store, depth - 1)),
        2 => {
            let n = 1 + rng.below(3) as usize;
            Type::union((0..n).map(|_| arb_type(rng, store, depth - 1)))
        }
        3 => {
            let n = rng.below(3) as usize;
            let elems = (0..n).map(|_| arb_type(rng, store, depth - 1)).collect();
            store.new_tuple(elems)
        }
        4 => {
            let n = rng.below(3) as usize;
            let entries = (0..n)
                .map(|i| (HashKey::Sym(format!("k{i}")), arb_type(rng, store, depth - 1)))
                .collect();
            store.new_finite_hash(entries)
        }
        _ => store.new_const_string(format!("s{}", rng.below(4))),
    }
}

/// A deep copy of a random type — fresh store ids, identical structure,
/// which is what every comp-type cache hit hands out — is a subtype of the
/// original and vice versa, digests identically and renders identically.
/// The comp-type cache keys on exactly that fingerprint equality.
#[test]
fn deep_copies_of_store_backed_types_are_indistinguishable() {
    let classes = ClassTable::with_builtins();
    let sub = Subtyper::new(&classes);
    let mut store = TypeStore::new();
    let mut rng = Rng::new(0x7E57_C0DE);
    for case in 0..600 {
        let a = arb_type(&mut rng, &mut store, 3);
        let copy = store.deep_copy(&a);
        let shown = store.render(&a);
        assert!(sub.is_subtype(&store, &a, &copy), "case {case}: {shown} not <= its copy");
        assert!(sub.is_subtype(&store, &copy, &a), "case {case}: copy not <= {shown}");
        assert_eq!(store.fingerprint(&a), store.fingerprint(&copy), "case {case}: {shown}");
        assert_eq!(shown, store.render(&copy), "case {case}: copy rendered differently");
    }
}

/// Collects every rendered, user-facing artifact a corpus run produces: the
/// stable report, every diagnostic, and every blame rendered as a source
/// snippet.
fn rendered_corpus_output(rows: &[corpus::Table2Row]) -> String {
    let mut out = stable_report(rows);
    for (app, row) in apps::all().iter().zip(rows) {
        out.push_str(&render_runtime_blames(app, row));
    }
    for (_, bag) in corpus_diagnostics(rows) {
        for d in bag.iter() {
            out.push_str(&format!("{d}\n"));
        }
    }
    out
}

/// No user-facing rendering may fall back to the raw store-id notation
/// (`#tuple3`, `#fhash0`, `#cstr1`): those ids are meaningless outside the
/// store that minted them and used to leak through diagnostic paths that
/// formatted a [`Type`] with `Display` instead of [`TypeStore::render`].
#[test]
fn rendered_corpus_output_never_leaks_raw_store_ids() {
    let rows = table2().expect("corpus run");
    let output = rendered_corpus_output(&rows);
    for marker in ["#tuple", "#fhash", "#cstr"] {
        for (pos, _) in output.match_indices(marker) {
            let tail = &output[pos + marker.len()..];
            let next_is_digit = tail.chars().next().is_some_and(|c| c.is_ascii_digit());
            assert!(
                !next_is_digit,
                "raw id leaked into rendered corpus output near: {:?}",
                &output[pos.saturating_sub(60)..(pos + 40).min(output.len())]
            );
        }
    }
}

/// Join edge cases from the issue: empty slices, nested unions, and type
/// variables.
#[test]
fn lub_edge_cases() {
    let classes = ClassTable::with_builtins();
    let store = TypeStore::new();
    let sub = Subtyper::new(&classes);

    // Empty sequence joins to %bot; a singleton sequence joins to itself.
    assert_eq!(sub.lub_all(&store, &[]), Type::Bot);
    assert_eq!(sub.lub_all(&store, &[Type::nominal("String")]), Type::nominal("String"));

    // Nested unions flatten, dedup, and join order-insensitively.
    let nested = Type::union([
        Type::nominal("Integer"),
        Type::union([Type::nominal("String"), Type::nominal("Symbol")]),
    ]);
    let flat =
        Type::union([Type::nominal("Symbol"), Type::nominal("Integer"), Type::nominal("String")]);
    assert_eq!(nested, flat);
    let joined = sub.lub_all(
        &store,
        &[
            Type::nominal("String"),
            Type::union([Type::nominal("Integer"), Type::nominal("String")]),
            Type::nominal("Symbol"),
        ],
    );
    assert!(sub.is_subtype(&store, &Type::nominal("String"), &joined));
    assert!(sub.is_subtype(&store, &Type::nominal("Integer"), &joined));
    assert!(sub.is_subtype(&store, &Type::nominal("Symbol"), &joined));
    assert_eq!(joined, sub.lub(&store, &joined, &joined), "join is idempotent");

    // Type variables: a variable joined with itself stays bound to the same
    // variable; distinct variables join to a union containing both.
    let t = Type::Var("t".to_string());
    let u = Type::Var("u".to_string());
    assert_eq!(sub.lub(&store, &t, &t), t);
    let tu = sub.lub(&store, &t, &u);
    assert!(sub.is_subtype(&store, &t, &tu), "t must flow into lub(t, u) = {tu}");
    assert!(sub.is_subtype(&store, &u, &tu), "u must flow into lub(t, u) = {tu}");
    assert!(!sub.is_subtype(&store, &t, &u), "distinct vars must stay distinct");

    // Bot is the identity of the join; Top absorbs.
    assert_eq!(sub.lub(&store, &Type::Bot, &t), t);
    assert_eq!(sub.lub(&store, &Type::Top, &t), Type::Top);
}

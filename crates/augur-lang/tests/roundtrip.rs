//! Property tests: generated models survive a pretty-print → parse →
//! pretty-print round trip, the type checker is deterministic, and the
//! parser never panics.
//!
//! The model generator has ten outputs, so those properties run on all
//! of them. Parser inputs are drawn from the in-tree splitmix64
//! generator with a fixed seed, so every run checks the same cases.

use augur_dist::Prng;
use augur_lang::{parse, pretty_model, typecheck};

/// A simple scalar-only model: a chain of `n_decls` Normal declarations,
/// each referencing the previous variable; with `with_loops`, every
/// second one is a comprehension.
fn model_source(n_decls: usize, with_loops: bool) -> String {
    let mut src = String::from("(N, h0) => {\n");
    for i in 0..n_decls {
        let prev = if i == 0 { "h0".to_owned() } else { format!("v{}", i - 1) };
        if with_loops && i % 2 == 1 {
            // vector decl; the previous variable is a scalar mean
            src.push_str(&format!(
                "  param v{i}[q{i}] ~ Normal({prev}, 1.0) for q{i} <- 0 until N ;\n"
            ));
        } else {
            // after a vector decl, use a constant mean instead
            let after_vector = i > 0 && with_loops && (i - 1) % 2 == 1;
            let mean = if after_vector { "1.5".to_owned() } else { prev };
            src.push_str(&format!("  param v{i} ~ Normal({mean}, 2.0) ;\n"));
        }
    }
    src.push('}');
    src
}

/// Every source the generator produces.
fn all_sources() -> impl Iterator<Item = String> {
    (1..6).flat_map(|n| [false, true].map(|loops| model_source(n, loops)))
}

#[test]
fn pretty_parse_roundtrip_fixpoint() {
    for src in all_sources() {
        let m1 = parse(&src).expect("generated model must parse");
        let p1 = pretty_model(&m1);
        let m2 = parse(&p1).expect("pretty output must reparse");
        assert_eq!(p1, pretty_model(&m2), "{src}");
    }
}

#[test]
fn typecheck_is_deterministic() {
    for src in all_sources() {
        let m = parse(&src).unwrap();
        let t1 = typecheck(&m).expect("generated model must typecheck");
        let t2 = typecheck(&m).unwrap();
        for (name, ty) in &t1.var_tys {
            assert_eq!(ty, t2.var_tys.get(name).unwrap(), "{src}");
        }
    }
}

#[test]
fn parser_never_panics_on_ascii() {
    // Arbitrary printable ASCII must produce Ok or Err, never a panic.
    let mut rng = Prng::seed_from_u64(1);
    for _ in 0..256 {
        let len = rng.below(81);
        let src: String = (0..len).map(|_| (b' ' + rng.below(95) as u8) as char).collect();
        let _ = parse(&src);
    }
}

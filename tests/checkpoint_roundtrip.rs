//! Property test: checkpoint serialization round-trips every snapshot —
//! arbitrary buffer contents (including NaN/∞ bit patterns), counters,
//! and tuning state — through render/parse and through the filesystem,
//! and parsing never panics on arbitrary or mutated text.
//!
//! Inputs are drawn from the in-tree splitmix64 generator with a fixed
//! seed per property, so every run checks the same cases and a failure
//! message carries the input that reproduces it.

use augur_backend::checkpoint::{Checkpoint, StepTuning};
use augur_backend::KernelStats;
use augur_math::Prng;

const CASES: usize = 256;

/// Runs `CASES` cases of a property, each drawing its inputs from one
/// seeded generator.
fn check(seed: u64, mut case: impl FnMut(&mut Prng)) {
    let mut rng = Prng::seed_from_u64(seed);
    for _ in 0..CASES {
        case(&mut rng);
    }
}

/// Any f64, with the special values drawn often enough to matter.
fn any_f64(rng: &mut Prng) -> f64 {
    const SPECIAL: [f64; 6] =
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, f64::MIN_POSITIVE];
    match rng.below(4) {
        0 => SPECIAL[rng.below(SPECIAL.len())],
        // a NaN with an arbitrary payload and sign
        1 => f64::from_bits(0x7FF0_0000_0000_0001 | (rng.next_u64() & 0x800F_FFFF_FFFF_FFFF)),
        _ => f64::from_bits(rng.next_u64()),
    }
}

/// A string of at most `max_len` characters drawn from `chars`.
fn text(rng: &mut Prng, chars: &[u8], max_len: usize) -> String {
    let len = rng.below(max_len + 1);
    (0..len).map(|_| chars[rng.below(chars.len())] as char).collect()
}

fn printable() -> Vec<u8> {
    (b' '..=b'~').collect()
}

fn arb_stats(rng: &mut Prng) -> KernelStats {
    KernelStats {
        proposals: rng.next_u64(),
        accepts: rng.next_u64(),
        leapfrogs: rng.next_u64(),
        divergences: rng.next_u64(),
        slice_reflections: rng.next_u64(),
        slice_shrinks: rng.next_u64(),
        numerical_events: rng.next_u64(),
        wall_secs: any_f64(rng),
    }
}

fn arb_buffer(rng: &mut Prng) -> (String, Vec<u64>) {
    let letters: Vec<u8> = (b'A'..=b'Z').chain(b'a'..=b'z').collect();
    let tail: Vec<u8> = letters.iter().copied().chain(b'0'..=b'9').chain([b'_']).collect();
    let name = format!("{}{}", letters[rng.below(letters.len())] as char, text(rng, &tail, 12));
    let cells = (0..rng.below(40)).map(|_| any_f64(rng).to_bits()).collect();
    (name, cells)
}

fn arb_checkpoint(rng: &mut Prng) -> Checkpoint {
    Checkpoint {
        schedule: text(rng, &printable(), 60),
        sweep: rng.next_u64(),
        rng_state: rng.next_u64(),
        rng_spare: (rng.below(2) == 1).then(|| rng.next_u64()),
        master_seed: rng.next_u64(),
        launch_counter: rng.next_u64(),
        work: rng.next_u64(),
        stats: (0..rng.below(5)).map(|_| arb_stats(rng)).collect(),
        tuning: (0..rng.below(5))
            .map(|_| StepTuning {
                scale: any_f64(rng),
                consec_div: rng.next_u64(),
                consec_clean: rng.next_u64(),
            })
            .collect(),
        buffers: (0..rng.below(6)).map(|_| arb_buffer(rng)).collect(),
    }
}

/// `Checkpoint: PartialEq` compares f64 fields by value, which NaN
/// breaks; compare the serialized forms instead — the format stores
/// every float as its exact bit pattern.
fn assert_same(a: &Checkpoint, b: &Checkpoint) {
    assert_eq!(a.render(), b.render(), "round trip changed {a:?}");
}

#[test]
fn render_parse_roundtrip() {
    check(0xC4EC_0001, |rng| {
        let ck = arb_checkpoint(rng);
        let back = Checkpoint::parse(&ck.render())
            .unwrap_or_else(|e| panic!("rendered checkpoint did not parse ({e}): {ck:?}"));
        assert_same(&ck, &back);
    });
}

#[test]
fn file_roundtrip() {
    let path = std::env::temp_dir().join(format!(
        "augur_ckpt_prop_{}_{:?}.ckpt",
        std::process::id(),
        std::thread::current().id()
    ));
    check(0xC4EC_0002, |rng| {
        let ck = arb_checkpoint(rng);
        ck.write_atomic(&path).unwrap();
        let back = Checkpoint::read(&path).unwrap();
        assert_same(&ck, &back);
    });
    std::fs::remove_file(&path).ok();
}

#[test]
fn parse_never_panics_on_arbitrary_text() {
    let chars: Vec<u8> = printable().into_iter().chain([b'\n']).collect();
    check(0xC4EC_0003, |rng| {
        let _ = Checkpoint::parse(&text(rng, &chars, 400));
    });
}

/// Rendered checkpoints with a few random edits — truncation, replaced
/// or inserted bytes, dropped lines (the digest line among them, so the
/// body parsers see the damage) — parse to a value or a typed error.
#[test]
fn parse_never_panics_on_mutated_checkpoints() {
    let chars: Vec<u8> = printable().into_iter().chain([b'\n']).collect();
    check(0xC4EC_0004, |rng| {
        let mut bytes = arb_checkpoint(rng).render().into_bytes();
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(bytes.len() + 1);
            match rng.below(4) {
                0 => bytes.truncate(at),
                1 if at < bytes.len() => bytes[at] = chars[rng.below(chars.len())],
                2 => bytes.insert(at, chars[rng.below(chars.len())]),
                _ => {
                    let text = String::from_utf8(bytes).unwrap();
                    let lines: Vec<&str> = text.lines().collect();
                    let drop = rng.below(lines.len().max(1));
                    bytes = lines
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != drop)
                        .flat_map(|(_, l)| l.bytes().chain([b'\n']))
                        .collect();
                }
            }
        }
        let text = String::from_utf8(bytes).unwrap();
        let _ = Checkpoint::parse(&text);
    });
}

//! Versioned, self-describing chain checkpoints (fault tolerance layer).
//!
//! A [`Checkpoint`] captures everything a resumed chain needs to continue
//! *bit-identically* to an uninterrupted run: every state buffer (as raw
//! f64 bit patterns — no decimal round-trip), the RNG's internal words
//! (including the pending polar-normal spare), the kernel-launch counter
//! that keys the per-thread RNG streams, the deterministic work counter,
//! the sweep index, the cumulative per-kernel statistics (so
//! `RunReport::digest()` matches too), and the per-step step-size-backoff
//! tuning state. The schedule string is stored as a compatibility key:
//! resuming into a sampler with a different schedule is a typed error,
//! not silent corruption.
//!
//! The on-disk format is a line-oriented text file with a magic header
//! (`augur-checkpoint v1`) — human-inspectable, versioned, and free of
//! external serialization dependencies. Writes are atomic: the file is
//! written to a `.tmp` sibling and `rename`d into place, so a crash
//! mid-write leaves the previous checkpoint intact (see `DESIGN.md`
//! § Fault tolerance).

use std::fmt;
use std::fs;
use std::path::Path;

use crate::metrics::KernelStats;

/// The format version this build writes and reads.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Per-step step-size-backoff state (HMC/NUTS divergence guardrail).
/// Checkpointed so a resumed chain applies exactly the step sizes the
/// uninterrupted run would have.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepTuning {
    /// Multiplier on the configured step size (halved after sustained
    /// divergences, doubled back toward 1 after sustained clean updates).
    pub scale: f64,
    /// Consecutive updates that reported divergences.
    pub consec_div: u64,
    /// Consecutive clean updates since the last divergence.
    pub consec_clean: u64,
}

impl Default for StepTuning {
    fn default() -> Self {
        StepTuning { scale: 1.0, consec_div: 0, consec_clean: 0 }
    }
}

/// A complete, self-describing snapshot of a sampler mid-run.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The Kernel-IL schedule string — the compatibility key validated on
    /// resume.
    pub schedule: String,
    /// Sweeps completed when the snapshot was taken.
    pub sweep: u64,
    /// The main RNG's splitmix64 state word.
    pub rng_state: u64,
    /// Bit pattern of the RNG's cached polar-normal spare, if pending.
    pub rng_spare: Option<u64>,
    /// Seed from which per-thread streams are derived.
    pub master_seed: u64,
    /// Kernel-launch ordinal (keys the counter-based per-thread streams).
    pub launch_counter: u64,
    /// Deterministic work counter.
    pub work: u64,
    /// Cumulative per-step statistics, in schedule order.
    pub stats: Vec<KernelStats>,
    /// Per-step backoff tuning, in schedule order.
    pub tuning: Vec<StepTuning>,
    /// Every state buffer by name, cells as raw f64 bit patterns.
    pub buffers: Vec<(String, Vec<u64>)>,
}

/// A checkpoint that could not be written, read, or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// An I/O failure on the checkpoint path.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error, rendered.
        detail: String,
    },
    /// The file is not a checkpoint or is from an unsupported version.
    Version {
        /// The offending header line.
        found: String,
    },
    /// A malformed line in an otherwise well-versioned file.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        detail: String,
    },
    /// The checkpoint does not match the sampler it was applied to
    /// (different schedule, or a buffer with a different name or length).
    Mismatch {
        /// What disagreed.
        detail: String,
    },
    /// A file on disk that is not a readable checkpoint — bad header,
    /// malformed body, truncation, or a failed integrity digest. Produced
    /// by [`Checkpoint::read`] so the error names the offending path
    /// (in-memory [`Checkpoint::parse`] keeps the finer-grained
    /// [`Version`](CheckpointError::Version)/
    /// [`Parse`](CheckpointError::Parse) variants).
    Corrupt {
        /// The file that failed to parse or verify.
        path: String,
        /// What was wrong with it.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, detail } => {
                write!(f, "checkpoint I/O on `{path}`: {detail}")
            }
            CheckpointError::Version { found } => {
                write!(f, "not a supported checkpoint (header `{found}`)")
            }
            CheckpointError::Parse { line, detail } => {
                write!(f, "malformed checkpoint at line {line}: {detail}")
            }
            CheckpointError::Mismatch { detail } => {
                write!(f, "checkpoint does not match this sampler: {detail}")
            }
            CheckpointError::Corrupt { path, detail } => {
                write!(f, "corrupt checkpoint `{path}`: {detail}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl Checkpoint {
    /// Renders the checkpoint in the v1 line format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("augur-checkpoint v{CHECKPOINT_VERSION}\n"));
        out.push_str(&format!("schedule {}\n", self.schedule));
        out.push_str(&format!("sweep {}\n", self.sweep));
        match self.rng_spare {
            Some(bits) => out.push_str(&format!("rng {:016x} {bits:016x}\n", self.rng_state)),
            None => out.push_str(&format!("rng {:016x} -\n", self.rng_state)),
        }
        out.push_str(&format!("master_seed {:016x}\n", self.master_seed));
        out.push_str(&format!("launch_counter {}\n", self.launch_counter));
        out.push_str(&format!("work {}\n", self.work));
        for s in &self.stats {
            let [p, a, lf, dv, refl, shr, nev] = s.counters();
            out.push_str(&format!(
                "stats {p} {a} {lf} {dv} {refl} {shr} {nev} {:016x}\n",
                s.wall_secs.to_bits()
            ));
        }
        for t in &self.tuning {
            out.push_str(&format!(
                "tuning {:016x} {} {}\n",
                t.scale.to_bits(),
                t.consec_div,
                t.consec_clean
            ));
        }
        for (name, cells) in &self.buffers {
            out.push_str(&format!("buf {name} {}", cells.len()));
            for c in cells {
                out.push_str(&format!(" {c:016x}"));
            }
            out.push('\n');
        }
        // Integrity digest over everything above (FNV-1a 64): parsers
        // verify it when present, so a bit flip or silent truncation is
        // a typed error instead of a silently-wrong resume. Files
        // without the line (earlier v1 writers) still parse.
        out.push_str(&format!("digest {:016x}\n", fnv1a(out.as_bytes())));
        out.push_str("end\n");
        out
    }

    /// Parses the v1 line format.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Version`] for a bad header,
    /// [`CheckpointError::Parse`] for a malformed body.
    pub fn parse(text: &str) -> Result<Checkpoint, CheckpointError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or(CheckpointError::Version { found: String::new() })?;
        if header != format!("augur-checkpoint v{CHECKPOINT_VERSION}") {
            return Err(CheckpointError::Version { found: header.to_owned() });
        }
        // Running FNV-1a over every line up to (not including) the
        // optional `digest` line, mirroring how `render` computed it.
        let mut running = FNV_OFFSET;
        running = fnv1a_line(running, header);
        let mut ck = Checkpoint {
            schedule: String::new(),
            sweep: 0,
            rng_state: 0,
            rng_spare: None,
            master_seed: 0,
            launch_counter: 0,
            work: 0,
            stats: Vec::new(),
            tuning: Vec::new(),
            buffers: Vec::new(),
        };
        let mut ended = false;
        for (i, line) in lines {
            let lineno = i + 1;
            let perr = |detail: String| CheckpointError::Parse { line: lineno, detail };
            if ended {
                return Err(perr("content after `end`".into()));
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            if key != "digest" {
                running = fnv1a_line(running, line);
            }
            match key {
                "schedule" => ck.schedule = rest.to_owned(),
                "sweep" => ck.sweep = parse_u64(rest).map_err(perr)?,
                "rng" => {
                    let mut it = rest.split_whitespace();
                    ck.rng_state = parse_hex(it.next().unwrap_or("")).map_err(perr)?;
                    ck.rng_spare = match it.next() {
                        Some("-") => None,
                        Some(h) => Some(parse_hex(h).map_err(perr)?),
                        None => return Err(perr("rng line needs two fields".into())),
                    };
                }
                "master_seed" => ck.master_seed = parse_hex(rest).map_err(perr)?,
                "launch_counter" => ck.launch_counter = parse_u64(rest).map_err(perr)?,
                "work" => ck.work = parse_u64(rest).map_err(perr)?,
                "stats" => {
                    let fields: Vec<&str> = rest.split_whitespace().collect();
                    if fields.len() != 8 {
                        return Err(perr(format!("stats needs 8 fields, got {}", fields.len())));
                    }
                    let mut s = KernelStats {
                        proposals: parse_u64(fields[0]).map_err(perr)?,
                        accepts: parse_u64(fields[1]).map_err(perr)?,
                        leapfrogs: parse_u64(fields[2]).map_err(perr)?,
                        divergences: parse_u64(fields[3]).map_err(perr)?,
                        slice_reflections: parse_u64(fields[4]).map_err(perr)?,
                        slice_shrinks: parse_u64(fields[5]).map_err(perr)?,
                        numerical_events: parse_u64(fields[6]).map_err(perr)?,
                        wall_secs: 0.0,
                    };
                    s.wall_secs = f64::from_bits(parse_hex(fields[7]).map_err(perr)?);
                    ck.stats.push(s);
                }
                "tuning" => {
                    let fields: Vec<&str> = rest.split_whitespace().collect();
                    if fields.len() != 3 {
                        return Err(perr(format!("tuning needs 3 fields, got {}", fields.len())));
                    }
                    ck.tuning.push(StepTuning {
                        scale: f64::from_bits(parse_hex(fields[0]).map_err(perr)?),
                        consec_div: parse_u64(fields[1]).map_err(perr)?,
                        consec_clean: parse_u64(fields[2]).map_err(perr)?,
                    });
                }
                "buf" => {
                    let mut it = rest.split_whitespace();
                    let name =
                        it.next().ok_or_else(|| perr("buf line needs a name".into()))?.to_owned();
                    let len: usize = it
                        .next()
                        .ok_or_else(|| perr("buf line needs a length".into()))?
                        .parse()
                        .map_err(|_| perr("bad buffer length".into()))?;
                    let cells: Vec<u64> =
                        it.map(|h| parse_hex(h).map_err(perr)).collect::<Result<_, _>>()?;
                    if cells.len() != len {
                        return Err(perr(format!(
                            "buffer `{name}` declares {len} cells but has {}",
                            cells.len()
                        )));
                    }
                    ck.buffers.push((name, cells));
                }
                "digest" => {
                    let want = parse_hex(rest).map_err(perr)?;
                    if want != running {
                        return Err(perr(format!(
                            "integrity digest mismatch (file says {want:016x}, content hashes to {running:016x})"
                        )));
                    }
                }
                "end" => ended = true,
                other => return Err(perr(format!("unknown key `{other}`"))),
            }
        }
        if !ended {
            return Err(CheckpointError::Parse {
                line: text.lines().count(),
                detail: "truncated checkpoint (missing `end`)".into(),
            });
        }
        Ok(ck)
    }

    /// Writes the checkpoint atomically: the rendering goes to a `.tmp`
    /// sibling which is then `rename`d over `path`, so a crash mid-write
    /// never corrupts an existing checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on write or rename failure.
    pub fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        let io = |e: std::io::Error| CheckpointError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        };
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        fs::write(&tmp, self.render()).map_err(io)?;
        fs::rename(&tmp, path).map_err(io)
    }

    /// Reads and parses a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the file cannot be read;
    /// [`CheckpointError::Corrupt`] — naming the offending path — if its
    /// contents fail the version, parse, or integrity-digest checks. A
    /// bit-flipped or truncated snapshot is always a typed error here,
    /// never a panic mid-resume.
    pub fn read(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let text = fs::read_to_string(path).map_err(|e| CheckpointError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        Checkpoint::parse(&text).map_err(|e| CheckpointError::Corrupt {
            path: path.display().to_string(),
            detail: e.to_string(),
        })
    }
}

/// FNV-1a 64 offset basis (the workspace's canonical dependency-free
/// hash; see `plan.rs`).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Folds one text line (plus its terminating newline) into a running
/// FNV-1a state — the incremental form of [`fnv1a`] over the rendering.
fn fnv1a_line(h: u64, line: &str) -> u64 {
    let h = line.bytes().fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3));
    (h ^ b'\n' as u64).wrapping_mul(0x0000_0100_0000_01b3)
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.trim().parse().map_err(|_| format!("bad integer `{s}`"))
}

fn parse_hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s.trim(), 16).map_err(|_| format!("bad hex word `{s}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            schedule: "Gibbs Single(z) (*) HMC Single(mu)".into(),
            sweep: 42,
            rng_state: 0xDEAD_BEEF_0123_4567,
            rng_spare: Some((-1.25f64).to_bits()),
            master_seed: 77,
            launch_counter: 9000,
            work: 123_456,
            stats: vec![
                KernelStats { proposals: 42, accepts: 42, wall_secs: 0.125, ..Default::default() },
                KernelStats {
                    proposals: 42,
                    accepts: 30,
                    leapfrogs: 500,
                    divergences: 2,
                    numerical_events: 1,
                    ..Default::default()
                },
            ],
            tuning: vec![
                StepTuning::default(),
                StepTuning { scale: 0.25, consec_div: 1, consec_clean: 3 },
            ],
            buffers: vec![
                ("mu".into(), vec![1.5f64.to_bits(), f64::NAN.to_bits(), 0.0f64.to_bits()]),
                ("z".into(), vec![2.0f64.to_bits()]),
            ],
        }
    }

    /// Save → load is bit-exact, including NaN cells, negative spares,
    /// and the wall-clock bits.
    #[test]
    fn roundtrip_is_bit_exact() {
        let ck = sample();
        let back = Checkpoint::parse(&ck.render()).unwrap();
        assert_eq!(ck, back);
    }

    #[test]
    fn roundtrip_without_spare() {
        let mut ck = sample();
        ck.rng_spare = None;
        assert_eq!(ck, Checkpoint::parse(&ck.render()).unwrap());
    }

    #[test]
    fn atomic_write_and_read() {
        let dir = std::env::temp_dir().join("augur-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chain.ckpt");
        let ck = sample();
        ck.write_atomic(&path).unwrap();
        assert_eq!(Checkpoint::read(&path).unwrap(), ck);
        // overwrite is atomic too (tmp sibling cleaned up by rename)
        ck.write_atomic(&path).unwrap();
        assert!(!dir.join("chain.ckpt.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_bad_version_and_truncation() {
        match Checkpoint::parse("augur-checkpoint v999\nend\n") {
            Err(CheckpointError::Version { found }) => {
                assert!(found.contains("v999"));
            }
            other => panic!("expected Version error, got {other:?}"),
        }
        let full = sample().render();
        let truncated = &full[..full.len() - 5]; // cut off "end\n"
        assert!(matches!(Checkpoint::parse(truncated), Err(CheckpointError::Parse { .. })));
    }

    #[test]
    fn rejects_cell_count_mismatch() {
        let text = "augur-checkpoint v1\nbuf mu 3 0000000000000000\nend\n";
        match Checkpoint::parse(text) {
            Err(CheckpointError::Parse { detail, .. }) => {
                assert!(detail.contains("declares 3 cells"));
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn read_missing_file_is_io_error() {
        match Checkpoint::read(Path::new("/nonexistent/augur.ckpt")) {
            Err(CheckpointError::Io { path, .. }) => assert!(path.contains("nonexistent")),
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    /// A flipped bit anywhere in the body fails the integrity digest
    /// with a typed parse error, not a silently-wrong resume.
    #[test]
    fn bit_flip_fails_the_digest() {
        let text = sample().render();
        assert!(text.contains("\ndigest "), "render must carry a digest line");
        // Flip one hex nibble inside a buffer cell (keeps the line
        // well-formed, so only the digest can catch it).
        let pos = text.find("buf mu").unwrap() + 9;
        let mut flipped: Vec<u8> = text.into_bytes();
        flipped[pos] = if flipped[pos] == b'0' { b'1' } else { b'0' };
        let flipped = String::from_utf8(flipped).unwrap();
        match Checkpoint::parse(&flipped) {
            Err(CheckpointError::Parse { detail, .. }) => {
                assert!(detail.contains("digest mismatch"), "detail: {detail}");
            }
            other => panic!("expected digest-mismatch Parse error, got {other:?}"),
        }
    }

    /// A checkpoint written before the digest line existed still parses:
    /// verification only happens when the line is present.
    #[test]
    fn digestless_v1_files_still_parse() {
        let ck = sample();
        let undigested: String = ck
            .render()
            .lines()
            .filter(|l| !l.starts_with("digest "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(Checkpoint::parse(&undigested).unwrap(), ck);
    }

    /// `read` wraps every content failure — bad version, truncation,
    /// bit flips — as `Corrupt` naming the offending path.
    #[test]
    fn read_names_the_corrupt_path() {
        let dir = std::env::temp_dir().join(format!("augur-ckpt-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let full = sample().render();
        let truncated = dir.join("truncated.ckpt");
        std::fs::write(&truncated, &full[..full.len() / 2]).unwrap();
        match Checkpoint::read(&truncated) {
            Err(CheckpointError::Corrupt { path, detail }) => {
                assert!(path.contains("truncated.ckpt"), "path: {path}");
                assert!(!detail.is_empty());
            }
            other => panic!("expected Corrupt error, got {other:?}"),
        }
        let flipped = dir.join("flipped.ckpt");
        let mut bytes = full.clone().into_bytes();
        let pos = full.find("buf mu").unwrap() + 9;
        bytes[pos] = if bytes[pos] == b'0' { b'1' } else { b'0' };
        std::fs::write(&flipped, &bytes).unwrap();
        match Checkpoint::read(&flipped) {
            Err(CheckpointError::Corrupt { path, detail }) => {
                assert!(path.contains("flipped.ckpt"), "path: {path}");
                assert!(detail.contains("digest mismatch"), "detail: {detail}");
            }
            other => panic!("expected Corrupt error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

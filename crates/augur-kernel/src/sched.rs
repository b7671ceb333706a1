//! The user-schedule syntax of Fig. 2: `"ESlice mu (*) Gibbs z"`.
//!
//! ```text
//! schedule := entry ( "(*)" entry )*
//! entry    := KIND var+
//! ```
//!
//! An entry with several variables denotes a `Block` kernel unit.

use std::error::Error;
use std::fmt;

use crate::il::{KernelUnit, UpdateKind};

/// A parsed (but not yet validated) user schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Entries in sweep order.
    pub updates: Vec<ScheduleEntry>,
}

/// One entry of a user schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleEntry {
    /// The base update kind.
    pub kind: UpdateKind,
    /// The kernel unit it applies to.
    pub unit: KernelUnit,
}

/// Errors from schedule parsing and planning.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// An update name that is not in the supported set.
    UnknownUpdate(String),
    /// An entry with no variables.
    EmptyEntry,
    /// Schedule syntax error.
    Malformed(String),
    /// A scheduled variable is not a `param` of the model.
    NoSuchParam(String),
    /// A `param` appears more than once in the schedule.
    DuplicateParam(String),
    /// A `param` is missing from the schedule — every parameter must be
    /// updated for the chain to target the full posterior.
    UncoveredParam(String),
    /// The requested update cannot be generated for the variable; the
    /// compiler "will check that it can indeed generate the desired
    /// schedule and fail otherwise" (§4.2).
    CannotGenerate {
        /// The update kind requested.
        kind: UpdateKind,
        /// The variable(s).
        unit: String,
        /// Why generation is impossible.
        reason: String,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::UnknownUpdate(name) => write!(
                f,
                "unknown MCMC update `{name}` (supported: MH, Gibbs, HMC, NUTS, MALA, Slice, ESlice)"
            ),
            KernelError::EmptyEntry => f.write_str("schedule entry has no variables"),
            KernelError::Malformed(m) => write!(f, "malformed schedule: {m}"),
            KernelError::NoSuchParam(v) => write!(f, "`{v}` is not a model parameter"),
            KernelError::DuplicateParam(v) => write!(f, "parameter `{v}` scheduled twice"),
            KernelError::UncoveredParam(v) => {
                write!(f, "parameter `{v}` is not covered by the schedule")
            }
            KernelError::CannotGenerate { kind, unit, reason } => {
                write!(f, "cannot generate {kind} update for {unit}: {reason}")
            }
        }
    }
}

impl Error for KernelError {}

/// Parses a user schedule string.
///
/// # Errors
///
/// Returns [`KernelError`] on unknown update names or malformed syntax.
///
/// # Example
///
/// ```
/// let s = augur_kernel::parse_schedule("Gibbs pi (*) HMC mu b (*) Gibbs z")?;
/// assert_eq!(s.updates.len(), 3);
/// # Ok::<(), augur_kernel::KernelError>(())
/// ```
pub fn parse_schedule(src: &str) -> Result<Schedule, KernelError> {
    let mut updates = Vec::new();
    for part in src.split("(*)") {
        let tokens: Vec<&str> = part.split_whitespace().collect();
        if tokens.is_empty() {
            return Err(KernelError::Malformed("empty entry between `(*)`".into()));
        }
        let kind = UpdateKind::from_name(tokens[0])
            .ok_or_else(|| KernelError::UnknownUpdate(tokens[0].to_owned()))?;
        let vars: Vec<String> = tokens[1..].iter().map(|s| (*s).to_owned()).collect();
        if vars.is_empty() {
            return Err(KernelError::EmptyEntry);
        }
        let unit = if vars.len() == 1 {
            KernelUnit::Single(vars.into_iter().next().expect("one var"))
        } else {
            KernelUnit::Block(vars)
        };
        updates.push(ScheduleEntry { kind, unit });
    }
    if updates.is_empty() {
        return Err(KernelError::Malformed("empty schedule".into()));
    }
    Ok(Schedule { updates })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fig2_schedule() {
        let s = parse_schedule("ESlice mu (*) Gibbs z").unwrap();
        assert_eq!(s.updates.len(), 2);
        assert_eq!(s.updates[0].kind, UpdateKind::EllipticalSlice);
        assert_eq!(s.updates[0].unit, KernelUnit::Single("mu".into()));
        assert_eq!(s.updates[1].kind, UpdateKind::Gibbs);
    }

    #[test]
    fn multi_var_entry_is_a_block() {
        let s = parse_schedule("HMC sigma2 b theta").unwrap();
        assert_eq!(
            s.updates[0].unit,
            KernelUnit::Block(vec!["sigma2".into(), "b".into(), "theta".into()])
        );
    }

    #[test]
    fn unknown_update_is_reported() {
        match parse_schedule("Rejection z") {
            Err(KernelError::UnknownUpdate(n)) => assert_eq!(n, "Rejection"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_variables_rejected() {
        assert_eq!(parse_schedule("Gibbs"), Err(KernelError::EmptyEntry));
    }

    #[test]
    fn empty_entry_between_operators_rejected() {
        assert!(matches!(parse_schedule("Gibbs z (*) (*) HMC mu"), Err(KernelError::Malformed(_))));
    }

    #[test]
    fn whitespace_is_flexible() {
        let s = parse_schedule("  Gibbs   z(*)HMC mu  ").unwrap();
        assert_eq!(s.updates.len(), 2);
        assert_eq!(s.updates[1].kind, UpdateKind::Hmc);
    }
}

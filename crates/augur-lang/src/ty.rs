//! The simple type system of the modeling language (paper Fig. 4):
//! `σ ::= Int | Real`, `τ ::= σ | Vec τ | Mat σ` — so vectors of vectors
//! are allowed (ragged arrays) but matrices of vectors are rejected.

use std::collections::HashMap;
use std::fmt;

/// Base types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Base {
    /// Integers.
    Int,
    /// Reals.
    Real,
}

/// Types, with inference variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ty {
    /// A base type.
    Base(Base),
    /// A vector of elements of the inner type.
    Vec(Box<Ty>),
    /// A (square, real) matrix. The paper allows `Mat σ`; only `Mat Real`
    /// occurs in practice (covariances), so the base is fixed here.
    Mat,
    /// An unsolved inference variable.
    Var(u32),
}

impl Ty {
    /// Shorthand for `Int`.
    pub const INT: Ty = Ty::Base(Base::Int);
    /// Shorthand for `Real`.
    pub const REAL: Ty = Ty::Base(Base::Real);

    /// Wraps the type in `n` levels of `Vec`.
    pub fn vec_of(self, n: usize) -> Ty {
        (0..n).fold(self, |t, _| Ty::Vec(Box::new(t)))
    }

    /// Strips one level of `Vec`, if present.
    pub fn elem(&self) -> Option<&Ty> {
        match self {
            Ty::Vec(inner) => Some(inner),
            _ => None,
        }
    }

    /// True when the type contains no inference variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Ty::Base(_) | Ty::Mat => true,
            Ty::Vec(inner) => inner.is_ground(),
            Ty::Var(_) => false,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Base(Base::Int) => f.write_str("Int"),
            Ty::Base(Base::Real) => f.write_str("Real"),
            Ty::Vec(inner) => write!(f, "Vec {inner}"),
            Ty::Mat => f.write_str("Mat Real"),
            Ty::Var(v) => write!(f, "?{v}"),
        }
    }
}

/// A unification-based type solver.
///
/// Standard first-order unification with an occurs check; the type checker
/// generates constraints while walking the model and reads back solved
/// types at the end. An `Int → Real` coercion is permitted at the points
/// the checker explicitly asks for it (see [`Unifier::coerce_numeric`]),
/// mirroring how the paper's models freely use integer literals in real
/// positions.
#[derive(Debug, Default)]
pub struct Unifier {
    subst: HashMap<u32, Ty>,
    next_var: u32,
}

impl Unifier {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Unifier::default()
    }

    /// Allocates a fresh inference variable.
    pub fn fresh(&mut self) -> Ty {
        let v = self.next_var;
        self.next_var += 1;
        Ty::Var(v)
    }

    /// Resolves a type to its current representative, substituting solved
    /// variables recursively.
    pub fn resolve(&self, ty: &Ty) -> Ty {
        match ty {
            Ty::Var(v) => match self.subst.get(v) {
                Some(t) => self.resolve(t),
                None => Ty::Var(*v),
            },
            Ty::Vec(inner) => Ty::Vec(Box::new(self.resolve(inner))),
            other => other.clone(),
        }
    }

    fn occurs(&self, v: u32, ty: &Ty) -> bool {
        match self.resolve(ty) {
            Ty::Var(w) => v == w,
            Ty::Vec(inner) => self.occurs(v, &inner),
            _ => false,
        }
    }

    /// Unifies two types.
    ///
    /// # Errors
    ///
    /// Returns a human-readable mismatch description on failure.
    pub fn unify(&mut self, a: &Ty, b: &Ty) -> Result<(), String> {
        let (ra, rb) = (self.resolve(a), self.resolve(b));
        match (&ra, &rb) {
            (Ty::Var(v), t) | (t, Ty::Var(v)) => {
                if let Ty::Var(w) = t {
                    if v == w {
                        return Ok(());
                    }
                }
                if self.occurs(*v, t) {
                    return Err(format!("infinite type: ?{v} occurs in {t}"));
                }
                self.subst.insert(*v, t.clone());
                Ok(())
            }
            (Ty::Base(x), Ty::Base(y)) if x == y => Ok(()),
            (Ty::Mat, Ty::Mat) => Ok(()),
            (Ty::Vec(x), Ty::Vec(y)) => self.unify(x, y),
            _ => Err(format!("cannot unify `{ra}` with `{rb}`")),
        }
    }

    /// Requires `actual` to fit where `expected` is needed, allowing the
    /// `Int → Real` coercion at the scalar leaf.
    ///
    /// # Errors
    ///
    /// Returns a mismatch description on failure.
    pub fn coerce_numeric(&mut self, expected: &Ty, actual: &Ty) -> Result<(), String> {
        let (re, ra) = (self.resolve(expected), self.resolve(actual));
        if re == Ty::REAL && ra == Ty::INT {
            return Ok(());
        }
        self.unify(&re, &ra)
    }

    /// Resolves the type and replaces any remaining inference variables
    /// with `Real` (the numeric default for unconstrained quantities).
    pub fn finalize(&self, ty: &Ty) -> Ty {
        match self.resolve(ty) {
            Ty::Var(_) => Ty::REAL,
            Ty::Vec(inner) => Ty::Vec(Box::new(self.finalize(&inner))),
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unify_var_with_ground() {
        let mut u = Unifier::new();
        let v = u.fresh();
        u.unify(&v, &Ty::INT).unwrap();
        assert_eq!(u.resolve(&v), Ty::INT);
    }

    #[test]
    fn unify_through_vec() {
        let mut u = Unifier::new();
        let v = u.fresh();
        let vec_v = Ty::Vec(Box::new(v.clone()));
        u.unify(&vec_v, &Ty::REAL.vec_of(1)).unwrap();
        assert_eq!(u.resolve(&v), Ty::REAL);
    }

    #[test]
    fn occurs_check_rejects_infinite_type() {
        let mut u = Unifier::new();
        let v = u.fresh();
        let vec_v = Ty::Vec(Box::new(v.clone()));
        assert!(u.unify(&v, &vec_v).is_err());
    }

    #[test]
    fn mismatch_reports_both_types() {
        let mut u = Unifier::new();
        let err = u.unify(&Ty::INT, &Ty::Mat).unwrap_err();
        assert!(err.contains("Int") && err.contains("Mat"));
    }

    #[test]
    fn coercion_int_to_real_only() {
        let mut u = Unifier::new();
        assert!(u.coerce_numeric(&Ty::REAL, &Ty::INT).is_ok());
        assert!(u.coerce_numeric(&Ty::INT, &Ty::REAL).is_err());
        // no coercion under Vec
        assert!(u.coerce_numeric(&Ty::REAL.vec_of(1), &Ty::INT.vec_of(1)).is_err());
    }

    #[test]
    fn finalize_defaults_to_real() {
        let mut u = Unifier::new();
        let v = u.fresh();
        assert_eq!(u.finalize(&v), Ty::REAL);
        let w = u.fresh();
        u.unify(&w, &Ty::INT).unwrap();
        assert_eq!(u.finalize(&w), Ty::INT);
    }

    #[test]
    fn vec_of_wraps() {
        assert_eq!(Ty::INT.vec_of(2), Ty::Vec(Box::new(Ty::Vec(Box::new(Ty::INT)))));
        assert_eq!(format!("{}", Ty::REAL.vec_of(2)), "Vec Vec Real");
    }
}

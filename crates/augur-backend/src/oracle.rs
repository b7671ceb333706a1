//! The runtime [`SizeOracle`]: AugurV2 compiles after the data is bound,
//! "so the symbolic values can be resolved" (§5.4). This oracle resolves
//! Low-- bound expressions against the populated [`State`].

use augur_blk::SizeOracle;
use augur_low::il::Expr;

use crate::state::{Shape, State};

/// Size oracle backed by the bound runtime state.
#[derive(Debug, Clone, Copy)]
pub struct StateOracle<'a> {
    state: &'a State,
}

impl<'a> StateOracle<'a> {
    /// Creates an oracle over a populated state.
    pub fn new(state: &'a State) -> Self {
        StateOracle { state }
    }

    /// Evaluates a constant integer expression, if possible. Loop
    /// variables are unknown at optimization time and yield `None`.
    pub fn const_eval(&self, e: &Expr) -> Option<f64> {
        match e {
            Expr::Int(v) => Some(*v as f64),
            Expr::Real(v) => Some(*v),
            Expr::Var(name) => {
                let id = self.state.id(name)?;
                match self.state.shape(id) {
                    Shape::Num => Some(self.state.flat(id)[0]),
                    _ => None,
                }
            }
            Expr::Index(base, idx) => {
                let i = self.const_eval(idx)? as usize;
                if let Expr::Var(name) = &**base {
                    let id = self.state.id(name)?;
                    match self.state.shape(id) {
                        Shape::Vector(n) if i < *n => Some(self.state.flat(id)[i]),
                        _ => None,
                    }
                } else {
                    None
                }
            }
            Expr::Binop(op, a, b) => {
                let (x, y) = (self.const_eval(a)?, self.const_eval(b)?);
                Some(match op {
                    augur_lang::ast::BinOp::Add => x + y,
                    augur_lang::ast::BinOp::Sub => x - y,
                    augur_lang::ast::BinOp::Mul => x * y,
                    augur_lang::ast::BinOp::Div => x / y,
                })
            }
            Expr::Neg(a) => Some(-self.const_eval(a)?),
            Expr::Len(a) => self.vec_len(a).map(|n| n as f64),
            _ => None,
        }
    }
}

impl SizeOracle for StateOracle<'_> {
    fn extent(&self, lo: &Expr, hi: &Expr) -> Option<i64> {
        Some((self.const_eval(hi)? - self.const_eval(lo)?) as i64)
    }

    fn vec_len(&self, e: &Expr) -> Option<i64> {
        match e {
            Expr::Var(name) => {
                let id = self.state.id(name)?;
                match self.state.shape(id) {
                    Shape::Vector(n) => Some(*n as i64),
                    Shape::Rows { offsets, .. } if offsets.len() > 1 => {
                        // Uniform-row assumption: report row 0's length.
                        Some((offsets[1] - offsets[0]) as i64)
                    }
                    _ => None,
                }
            }
            Expr::Index(base, _) => {
                // One level down: a row of a Rows buffer.
                if let Expr::Var(name) = &**base {
                    let id = self.state.id(name)?;
                    match self.state.shape(id) {
                        Shape::Rows { offsets, .. } if offsets.len() > 1 => {
                            Some((offsets[1] - offsets[0]) as i64)
                        }
                        _ => None,
                    }
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::RowElem;

    #[test]
    fn scalars_and_arithmetic() {
        let mut st = State::new();
        let n = st.insert("N", Shape::Num);
        st.flat_mut(n)[0] = 12.0;
        let o = StateOracle::new(&st);
        assert_eq!(o.extent(&Expr::Int(0), &Expr::var("N")), Some(12));
        let half = Expr::Binop(
            augur_lang::ast::BinOp::Div,
            Box::new(Expr::var("N")),
            Box::new(Expr::Int(2)),
        );
        assert_eq!(o.const_eval(&half), Some(6.0));
    }

    #[test]
    fn loop_vars_are_unknown() {
        let st = State::new();
        let o = StateOracle::new(&st);
        assert_eq!(o.extent(&Expr::Int(0), &Expr::var("d")), None);
    }

    #[test]
    fn vector_lengths() {
        let mut st = State::new();
        st.insert("alpha", Shape::Vector(7));
        st.insert("theta", Shape::Rows { offsets: vec![0, 7, 14], elem: RowElem::Vec });
        let o = StateOracle::new(&st);
        assert_eq!(o.vec_len(&Expr::var("alpha")), Some(7));
        // theta[d] for unknown d: uniform-row assumption
        let idx = Expr::index(Expr::var("theta"), Expr::var("d"));
        assert_eq!(o.vec_len(&idx), Some(7));
        assert_eq!(o.const_eval(&Expr::Len(Box::new(Expr::var("alpha")))), Some(7.0));
    }

    #[test]
    fn indexed_scalar_from_vector() {
        let mut st = State::new();
        let v = st.insert("lens", Shape::Vector(3));
        st.flat_mut(v).copy_from_slice(&[5.0, 6.0, 7.0]);
        let o = StateOracle::new(&st);
        let e = Expr::index(Expr::var("lens"), Expr::Int(1));
        assert_eq!(o.const_eval(&e), Some(6.0));
    }
}

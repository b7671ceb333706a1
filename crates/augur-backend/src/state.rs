//! The runtime state: every model argument, random variable, and planned
//! temporary lives in one flat `f64` buffer (paper §6.2 — flattened
//! vectors with a separate offset index for random access).

use std::collections::HashMap;
use std::sync::Arc;

use augur_math::{FlatRagged, Matrix};

/// Identifies a buffer in the state.
pub type BufId = usize;

/// The shape of a buffer.
///
/// Two-level nesting (`Rows`) covers every AugurV2 type: vectors of
/// vectors (possibly ragged) and vectors of matrices. Deeper nesting is
/// rejected at allocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// A scalar cell.
    Num,
    /// A flat vector.
    Vector(usize),
    /// A square row-major matrix.
    Matrix(usize),
    /// An outer level of rows over flat storage; `offsets` has one more
    /// entry than there are rows (ragged arrays supported).
    Rows {
        /// Row boundaries into the flat data.
        offsets: Vec<usize>,
        /// What one row is.
        elem: RowElem,
    },
}

/// The element kind of a [`Shape::Rows`] buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowElem {
    /// Rows are (possibly ragged) vectors of numbers.
    Vec,
    /// Rows are square matrices of the given dimension.
    Mat(usize),
}

impl Shape {
    /// Total number of scalar cells.
    pub fn num_cells(&self) -> usize {
        match self {
            Shape::Num => 1,
            Shape::Vector(n) => *n,
            Shape::Matrix(d) => d * d,
            Shape::Rows { offsets, .. } => *offsets.last().expect("offsets non-empty"),
        }
    }

    /// Number of rows of a `Rows` shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape has no rows.
    pub fn num_rows(&self) -> usize {
        match self {
            Shape::Rows { offsets, .. } => offsets.len() - 1,
            other => panic!("shape {other:?} has no rows"),
        }
    }
}

/// A host-side value bound to a model argument or data variable.
#[derive(Debug, Clone, PartialEq)]
pub enum HostValue {
    /// An integer (meta-parameters like `K`, `N`).
    Int(i64),
    /// A real scalar.
    Real(f64),
    /// A real vector.
    VecF(Vec<f64>),
    /// An integer vector (stored as exact floats).
    VecI(Vec<i64>),
    /// A square matrix.
    Mat(Matrix),
    /// A ragged (or rectangular) vector of vectors.
    Ragged(FlatRagged),
    /// A vector of integer vectors (e.g. LDA documents).
    RaggedI(Vec<Vec<i64>>),
    /// A vector of square matrices, all the same dimension.
    VecMat(Vec<Matrix>),
}

impl From<i64> for HostValue {
    fn from(v: i64) -> Self {
        HostValue::Int(v)
    }
}
impl From<f64> for HostValue {
    fn from(v: f64) -> Self {
        HostValue::Real(v)
    }
}
impl From<Vec<f64>> for HostValue {
    fn from(v: Vec<f64>) -> Self {
        HostValue::VecF(v)
    }
}
impl From<Matrix> for HostValue {
    fn from(v: Matrix) -> Self {
        HostValue::Mat(v)
    }
}
impl From<FlatRagged> for HostValue {
    fn from(v: FlatRagged) -> Self {
        HostValue::Ragged(v)
    }
}

/// The flat runtime store.
///
/// # Example
///
/// ```
/// use augur_backend::state::{Shape, State};
///
/// let mut st = State::new();
/// let id = st.insert("acc", Shape::Num);
/// st.flat_mut(id)[0] = 2.5;
/// assert_eq!(st.scalar(id), 2.5);
/// ```
/// Buffers are reference-counted so cloning a `State` is cheap: worker
/// threads clone the whole state and only the buffers they actually write
/// are deep-copied (copy-on-write via [`Arc::make_mut`]).
#[derive(Debug, Clone, Default)]
#[allow(clippy::rc_buffer)]
pub struct State {
    names: HashMap<String, BufId>,
    shapes: Vec<Shape>,
    data: Vec<Arc<Vec<f64>>>,
    thread_local: Vec<bool>,
}

impl State {
    /// An empty state.
    pub fn new() -> Self {
        State::default()
    }

    /// Allocates a zeroed buffer.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn insert(&mut self, name: impl Into<String>, shape: Shape) -> BufId {
        let name = name.into();
        assert!(!self.names.contains_key(&name), "buffer `{name}` allocated twice");
        let id = self.shapes.len();
        self.data.push(Arc::new(vec![0.0; shape.num_cells()]));
        self.shapes.push(shape);
        self.thread_local.push(false);
        self.names.insert(name, id);
        id
    }

    /// Allocates a buffer holding a host value.
    pub fn insert_host(&mut self, name: impl Into<String>, value: &HostValue) -> BufId {
        let (shape, data) = host_to_buffer(value);
        let name = name.into();
        assert!(!self.names.contains_key(&name), "buffer `{name}` allocated twice");
        let id = self.shapes.len();
        self.shapes.push(shape);
        self.data.push(Arc::new(data));
        self.thread_local.push(false);
        self.names.insert(name, id);
        id
    }

    /// Looks a buffer up by name.
    pub fn id(&self, name: &str) -> Option<BufId> {
        self.names.get(name).copied()
    }

    /// Like [`State::id`] but panicking with the name on failure.
    ///
    /// # Panics
    ///
    /// Panics if the buffer does not exist.
    pub fn expect_id(&self, name: &str) -> BufId {
        self.id(name).unwrap_or_else(|| panic!("no buffer named `{name}`"))
    }

    /// The shape of a buffer.
    pub fn shape(&self, id: BufId) -> &Shape {
        &self.shapes[id]
    }

    /// The flat cells of a buffer.
    pub fn flat(&self, id: BufId) -> &[f64] {
        &self.data[id]
    }

    /// The flat cells, mutably (copy-on-write: unshares the buffer if a
    /// worker-thread clone still holds a reference to it).
    pub fn flat_mut(&mut self, id: BufId) -> &mut [f64] {
        Arc::make_mut(&mut self.data[id]).as_mut_slice()
    }

    /// Runs `f` on the cells of buffer `dst`, mutably, next to the rest
    /// of the state, in which `dst` reads as empty meanwhile: the tape's
    /// in-place stores read other buffers while they write this one.
    /// Moves no cells and allocates nothing once `dst` is unshared.
    pub(crate) fn with_cells_mut<R>(
        &mut self,
        dst: BufId,
        f: impl FnOnce(&mut [f64], &State) -> R,
    ) -> R {
        let mut cells = std::mem::take(Arc::make_mut(&mut self.data[dst]));
        let out = f(&mut cells, self);
        *Arc::make_mut(&mut self.data[dst]) = cells;
        out
    }

    /// Marks a buffer as thread-local scratch (per-iteration temporaries
    /// of `Par` kernels). Thread-local buffers are excluded from the
    /// parallel write log — see `DESIGN.md` § Deterministic parallelism.
    pub fn mark_thread_local(&mut self, id: BufId) {
        self.thread_local[id] = true;
    }

    /// Whether a buffer is thread-local scratch.
    pub fn is_thread_local(&self, id: BufId) -> bool {
        self.thread_local[id]
    }

    /// Replaces a buffer's storage wholesale with another state's copy
    /// (used to adopt a worker's thread-local scratch after a parallel
    /// launch). Cheap: bumps the refcount, no cells are copied.
    pub(crate) fn adopt_buffer(&mut self, id: BufId, from: &State) {
        self.data[id] = Arc::clone(&from.data[id]);
    }

    /// Reads a scalar buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is not scalar-shaped.
    pub fn scalar(&self, id: BufId) -> f64 {
        assert!(matches!(self.shapes[id], Shape::Num), "buffer is not a scalar");
        self.data[id][0]
    }

    /// Writes a scalar buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is not scalar-shaped.
    pub fn set_scalar(&mut self, id: BufId, v: f64) {
        assert!(matches!(self.shapes[id], Shape::Num), "buffer is not a scalar");
        Arc::make_mut(&mut self.data[id])[0] = v;
    }

    /// The flat range of row `i` of a `Rows` buffer.
    ///
    /// # Panics
    ///
    /// Panics on non-row buffers or out-of-range rows.
    pub fn row_range(&self, id: BufId, i: usize) -> (usize, usize) {
        match &self.shapes[id] {
            Shape::Rows { offsets, .. } => {
                assert!(i + 1 < offsets.len(), "row {i} out of range");
                (offsets[i], offsets[i + 1])
            }
            other => panic!("buffer shape {other:?} has no rows"),
        }
    }

    /// Snapshots a buffer's cells (the proposal-state copy of §5.5).
    pub fn snapshot(&self, id: BufId) -> Vec<f64> {
        self.data[id].to_vec()
    }

    /// Restores a snapshot taken with [`State::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if the lengths disagree.
    pub fn restore(&mut self, id: BufId, snap: &[f64]) {
        assert_eq!(self.data[id].len(), snap.len(), "snapshot length mismatch");
        Arc::make_mut(&mut self.data[id]).copy_from_slice(snap);
    }

    /// All buffer names with their ids (diagnostics).
    pub fn names(&self) -> impl Iterator<Item = (&str, BufId)> {
        self.names.iter().map(|(n, id)| (n.as_str(), *id))
    }

    /// Number of allocated buffers.
    pub fn num_buffers(&self) -> usize {
        self.data.len()
    }

    /// Total memory footprint in cells — what size inference bounds.
    pub fn total_cells(&self) -> usize {
        self.data.iter().map(|b| b.len()).sum()
    }
}

fn host_to_buffer(value: &HostValue) -> (Shape, Vec<f64>) {
    match value {
        HostValue::Int(v) => (Shape::Num, vec![*v as f64]),
        HostValue::Real(v) => (Shape::Num, vec![*v]),
        HostValue::VecF(v) => (Shape::Vector(v.len()), v.clone()),
        HostValue::VecI(v) => (Shape::Vector(v.len()), v.iter().map(|&x| x as f64).collect()),
        HostValue::Mat(m) => {
            assert!(m.is_square(), "matrix arguments must be square");
            (Shape::Matrix(m.rows()), m.as_slice().to_vec())
        }
        HostValue::Ragged(r) => {
            let offsets = (0..=r.num_rows()).map(|i| r.row_offset(i)).collect();
            (Shape::Rows { offsets, elem: RowElem::Vec }, r.flat().to_vec())
        }
        HostValue::RaggedI(rows) => {
            let mut offsets = Vec::with_capacity(rows.len() + 1);
            let mut data = Vec::new();
            offsets.push(0);
            for row in rows {
                data.extend(row.iter().map(|&x| x as f64));
                offsets.push(data.len());
            }
            (Shape::Rows { offsets, elem: RowElem::Vec }, data)
        }
        HostValue::VecMat(ms) => {
            let dim = ms.first().map_or(0, Matrix::rows);
            let mut data = Vec::with_capacity(ms.len() * dim * dim);
            for m in ms {
                assert_eq!(m.rows(), dim, "all matrices must share a dimension");
                data.extend_from_slice(m.as_slice());
            }
            let offsets = (0..=ms.len()).map(|i| i * dim * dim).collect();
            (Shape::Rows { offsets, elem: RowElem::Mat(dim) }, data)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut st = State::new();
        let a = st.insert("a", Shape::Vector(3));
        assert_eq!(st.id("a"), Some(a));
        assert_eq!(st.id("b"), None);
        assert_eq!(st.flat(a), &[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "allocated twice")]
    fn duplicate_name_panics() {
        let mut st = State::new();
        st.insert("a", Shape::Num);
        st.insert("a", Shape::Num);
    }

    #[test]
    fn host_values_roundtrip() {
        let mut st = State::new();
        let k = st.insert_host("K", &HostValue::Int(3));
        assert_eq!(st.scalar(k), 3.0);
        let v = st.insert_host("v", &HostValue::VecF(vec![1.0, 2.0]));
        assert_eq!(st.flat(v), &[1.0, 2.0]);
        let m = st.insert_host(
            "m",
            &HostValue::Mat(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap()),
        );
        assert_eq!(st.shape(m), &Shape::Matrix(2));
    }

    #[test]
    fn ragged_rows_and_ranges() {
        let mut st = State::new();
        let r = st.insert_host("docs", &HostValue::RaggedI(vec![vec![1, 2, 3], vec![], vec![4]]));
        assert_eq!(st.shape(r).num_rows(), 3);
        assert_eq!(st.row_range(r, 0), (0, 3));
        assert_eq!(st.row_range(r, 1), (3, 3));
        assert_eq!(st.row_range(r, 2), (3, 4));
        assert_eq!(st.flat(r), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn vec_mat_rows() {
        let mut st = State::new();
        let id = st.insert_host(
            "sigmas",
            &HostValue::VecMat(vec![Matrix::identity(2), Matrix::identity(2).scale(3.0)]),
        );
        match st.shape(id) {
            Shape::Rows { elem: RowElem::Mat(2), offsets } => assert_eq!(offsets, &[0, 4, 8]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(st.row_range(id, 1), (4, 8));
        assert_eq!(st.flat(id)[4], 3.0);
    }

    #[test]
    fn snapshot_restore() {
        let mut st = State::new();
        let a = st.insert("a", Shape::Vector(2));
        st.flat_mut(a).copy_from_slice(&[1.0, 2.0]);
        let snap = st.snapshot(a);
        st.flat_mut(a)[0] = 9.0;
        st.restore(a, &snap);
        assert_eq!(st.flat(a), &[1.0, 2.0]);
    }

    #[test]
    fn total_cells_counts_everything() {
        let mut st = State::new();
        st.insert("a", Shape::Num);
        st.insert("b", Shape::Matrix(3));
        assert_eq!(st.total_cells(), 10);
    }
}

//! The runtime state: every model argument, random variable, and planned
//! temporary, as flattened vectors with an offset index (paper §6.2 —
//! flattened vectors with a separate offset index for random access).
//!
//! The cells live in two regions:
//!
//! * the **cell arena**, one owned `Vec<f64>` holding every buffer a
//!   program writes: parameters, planned temporaries and thread-local
//!   scratch. Each engine owns its arena alone, so a store is a plain
//!   slice index, and a parallel worker or a new session copies the
//!   arena in one memcpy;
//! * the **data region**, one `Arc<Vec<f64>>` holding the bound model
//!   arguments and observed data. No compiled program writes it, so the
//!   sessions of a plan and the workers of a parallel launch all read one
//!   copy. Writing a data buffer through [`State::flat_mut`] (a caller
//!   editing bound data, or restoring a checkpoint that edits it)
//!   unshares that `State`'s data region once.
//!
//! A buffer is addressed by its region, offset and length. That layout
//! is fixed once the state is built, and is shared the same way.

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

/// Which store holds a buffer's cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    /// The owned cell arena: everything a program writes.
    Cells,
    /// The shared, read-only bound arguments and data.
    Data,
}

/// One buffer's entry in the offset index.
#[derive(Debug, Clone)]
struct Buf {
    name: String,
    shape: Shape,
    region: Region,
    start: usize,
    len: usize,
    thread_local: bool,
}

/// The offset index: every buffer's name, shape and location.
#[derive(Debug, Clone, Default)]
struct Layout {
    ids: HashMap<String, BufId>,
    bufs: Vec<Buf>,
    /// Cells of the arena in use; the arena's cells past it are spare.
    arena_len: usize,
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
///
/// Cloning a `State` copies the cell arena and shares the layout and the
/// data region.
#[derive(Debug, Default)]
pub struct State {
    layout: Arc<Layout>,
    /// The cell arena: `layout.arena_len` cells in use, then spare zeroed
    /// capacity that nothing writes.
    cells: Vec<f64>,
    data: Arc<Vec<f64>>,
}

impl Clone for State {
    fn clone(&self) -> Self {
        State {
            layout: Arc::clone(&self.layout),
            cells: self.cells[..self.layout.arena_len].to_vec(),
            data: Arc::clone(&self.data),
        }
    }
}

/// The rest of a [`State`] while one buffer's cells are borrowed mutably
/// ([`State::split_mut`]): every other buffer, readable.
pub(crate) struct Rest<'a> {
    bufs: &'a [Buf],
    /// The region of the borrowed buffer, split around it.
    region: Region,
    below: &'a [f64],
    above: &'a [f64],
    /// Where `above` starts in `region`.
    gap: usize,
    /// The other region, whole.
    other: &'a [f64],
}

impl<'a> Rest<'a> {
    /// The flat cells of buffer `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is the borrowed buffer (and it is not empty).
    #[inline]
    pub(crate) fn flat(&self, id: BufId) -> &'a [f64] {
        let b = &self.bufs[id];
        if b.region != self.region {
            &self.other[b.start..b.start + b.len]
        } else if b.start >= self.gap {
            &self.above[b.start - self.gap..][..b.len]
        } else {
            &self.below[b.start..b.start + b.len]
        }
    }
}

impl State {
    /// An empty state.
    pub fn new() -> Self {
        State::default()
    }

    /// Allocates a zeroed buffer in the cell arena.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn insert(&mut self, name: impl Into<String>, shape: Shape) -> BufId {
        let start = self.layout.arena_len;
        let end = start + shape.num_cells();
        if end > self.cells.len() {
            // Grow into a fresh zeroed allocation instead of writing zeros
            // cell by cell: the new buffer's cells and the spare capacity
            // stay untouched until written, so they cost neither time nor
            // resident memory (a plan's pristine arena is never written).
            let mut grown = vec![0.0; end.max(2 * self.cells.len())];
            grown[..start].copy_from_slice(&self.cells[..start]);
            self.cells = grown;
        }
        let id = self.push(name.into(), shape, Region::Cells, start);
        Arc::make_mut(&mut self.layout).arena_len = end;
        id
    }

    /// Allocates a data buffer holding a host value.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn insert_host(&mut self, name: impl Into<String>, value: &HostValue) -> BufId {
        let data = Arc::make_mut(&mut self.data);
        let start = data.len();
        let shape = host_to_buffer(value, data);
        self.push(name.into(), shape, Region::Data, start)
    }

    fn push(&mut self, name: String, shape: Shape, region: Region, start: usize) -> BufId {
        let layout = Arc::make_mut(&mut self.layout);
        assert!(!layout.ids.contains_key(&name), "buffer `{name}` allocated twice");
        let id = layout.bufs.len();
        layout.ids.insert(name.clone(), id);
        let len = shape.num_cells();
        layout.bufs.push(Buf { name, shape, region, start, len, thread_local: false });
        id
    }

    /// Looks a buffer up by name.
    pub fn id(&self, name: &str) -> Option<BufId> {
        self.layout.ids.get(name).copied()
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
    #[inline]
    pub fn shape(&self, id: BufId) -> &Shape {
        &self.layout.bufs[id].shape
    }

    /// The flat cells of a buffer.
    #[inline]
    pub fn flat(&self, id: BufId) -> &[f64] {
        let b = &self.layout.bufs[id];
        let cells = match b.region {
            Region::Cells => self.cells.as_slice(),
            Region::Data => self.data.as_slice(),
        };
        &cells[b.start..b.start + b.len]
    }

    /// The flat cells, mutably. A cell buffer is a slice of this state's
    /// own arena; a data buffer unshares the data region first, if
    /// another `State` still reads it.
    #[inline]
    pub fn flat_mut(&mut self, id: BufId) -> &mut [f64] {
        let b = &self.layout.bufs[id];
        let cells = match b.region {
            Region::Cells => self.cells.as_mut_slice(),
            Region::Data => Arc::make_mut(&mut self.data).as_mut_slice(),
        };
        &mut cells[b.start..b.start + b.len]
    }

    /// The cells of buffer `dst`, mutably, next to the rest of the state
    /// (a split borrow of `dst`'s region): the tape's in-place stores read
    /// other buffers while they write this one. A data buffer unshares
    /// the data region first, as [`State::flat_mut`] does.
    #[inline]
    pub(crate) fn split_mut(&mut self, dst: BufId) -> (&mut [f64], Rest<'_>) {
        let b = &self.layout.bufs[dst];
        let (region, other) = match b.region {
            Region::Cells => (self.cells.as_mut_slice(), self.data.as_slice()),
            Region::Data => (Arc::make_mut(&mut self.data).as_mut_slice(), self.cells.as_slice()),
        };
        let (below, rest) = region.split_at_mut(b.start);
        let (cells, above) = rest.split_at_mut(b.len);
        let rest = Rest {
            bufs: &self.layout.bufs,
            region: b.region,
            below,
            above,
            gap: b.start + b.len,
            other,
        };
        (cells, rest)
    }

    /// Marks a buffer as thread-local scratch (per-iteration temporaries
    /// of `Par` kernels). Thread-local buffers are excluded from the
    /// parallel write log — see `DESIGN.md` § Deterministic parallelism.
    pub fn mark_thread_local(&mut self, id: BufId) {
        Arc::make_mut(&mut self.layout).bufs[id].thread_local = true;
    }

    /// Whether a buffer is thread-local scratch.
    #[inline]
    pub fn is_thread_local(&self, id: BufId) -> bool {
        self.layout.bufs[id].thread_local
    }

    /// Whether a buffer lives in the shared data region (a bound
    /// argument or observed data).
    pub(crate) fn is_data(&self, id: BufId) -> bool {
        self.layout.bufs[id].region == Region::Data
    }

    /// Reads a scalar buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is not scalar-shaped.
    pub fn scalar(&self, id: BufId) -> f64 {
        assert!(matches!(self.shape(id), Shape::Num), "buffer is not a scalar");
        self.flat(id)[0]
    }

    /// Writes a scalar buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is not scalar-shaped.
    pub fn set_scalar(&mut self, id: BufId, v: f64) {
        assert!(matches!(self.shape(id), Shape::Num), "buffer is not a scalar");
        self.flat_mut(id)[0] = v;
    }

    /// The flat range of row `i` of a `Rows` buffer.
    ///
    /// # Panics
    ///
    /// Panics on non-row buffers or out-of-range rows.
    #[inline]
    pub fn row_range(&self, id: BufId, i: usize) -> (usize, usize) {
        match self.shape(id) {
            Shape::Rows { offsets, .. } => {
                assert!(i + 1 < offsets.len(), "row {i} out of range");
                (offsets[i], offsets[i + 1])
            }
            other => panic!("buffer shape {other:?} has no rows"),
        }
    }

    /// All buffer names with their ids, in id (allocation) order.
    pub fn names(&self) -> impl Iterator<Item = (&str, BufId)> {
        self.layout.bufs.iter().enumerate().map(|(id, b)| (b.name.as_str(), id))
    }

    /// Number of allocated buffers.
    pub fn num_buffers(&self) -> usize {
        self.layout.bufs.len()
    }

    /// Total memory footprint in cells — what size inference bounds.
    pub fn total_cells(&self) -> usize {
        self.layout.arena_len + self.data.len()
    }

    /// Every buffer's first cell, in id order, for native code: a cell
    /// buffer's points into this state's arena, a data buffer's into the
    /// shared data region, which native code only reads (the native build
    /// checks that no instruction stores to a data buffer).
    pub(crate) fn base_ptrs(&mut self, out: &mut Vec<*mut f64>) {
        let cells = self.cells.as_mut_ptr();
        let data = self.data.as_ptr().cast_mut();
        out.clear();
        out.extend(self.layout.bufs.iter().map(|b| match b.region {
            Region::Cells => cells.wrapping_add(b.start),
            Region::Data => data.wrapping_add(b.start),
        }));
    }
}

/// Appends a host value's cells to `out` and returns its shape.
fn host_to_buffer(value: &HostValue, out: &mut Vec<f64>) -> Shape {
    let start = out.len();
    match value {
        HostValue::Int(v) => {
            out.push(*v as f64);
            Shape::Num
        }
        HostValue::Real(v) => {
            out.push(*v);
            Shape::Num
        }
        HostValue::VecF(v) => {
            out.extend_from_slice(v);
            Shape::Vector(v.len())
        }
        HostValue::VecI(v) => {
            out.extend(v.iter().map(|&x| x as f64));
            Shape::Vector(v.len())
        }
        HostValue::Mat(m) => {
            assert!(m.is_square(), "matrix arguments must be square");
            out.extend_from_slice(m.as_slice());
            Shape::Matrix(m.rows())
        }
        HostValue::Ragged(r) => {
            out.extend_from_slice(r.flat());
            let offsets = (0..=r.num_rows()).map(|i| r.row_offset(i)).collect();
            Shape::Rows { offsets, elem: RowElem::Vec }
        }
        HostValue::RaggedI(rows) => {
            let mut offsets = Vec::with_capacity(rows.len() + 1);
            offsets.push(0);
            for row in rows {
                out.extend(row.iter().map(|&x| x as f64));
                offsets.push(out.len() - start);
            }
            Shape::Rows { offsets, elem: RowElem::Vec }
        }
        HostValue::VecMat(ms) => {
            let dim = ms.first().map_or(0, Matrix::rows);
            for m in ms {
                assert_eq!(m.rows(), dim, "all matrices must share a dimension");
                out.extend_from_slice(m.as_slice());
            }
            let offsets = (0..=ms.len()).map(|i| i * dim * dim).collect();
            Shape::Rows { offsets, elem: RowElem::Mat(dim) }
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
    fn clones_copy_cells_and_share_data() {
        let mut st = State::new();
        let y = st.insert_host("y", &HostValue::VecF(vec![1.0, 2.0]));
        let a = st.insert("a", Shape::Vector(2));
        st.flat_mut(a)[1] = -0.0;
        // growing the arena keeps what was written
        let b = st.insert("b", Shape::Vector(1000));
        assert_eq!(st.flat(a)[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!((st.flat(b).len(), st.total_cells()), (1000, 1004));
        let mut other = st.clone();
        assert_eq!(other.total_cells(), 1004);
        other.flat_mut(a)[0] = 5.0;
        assert_eq!(st.flat(a), &[0.0, 0.0]);
        assert_eq!(st.flat(y).as_ptr(), other.flat(y).as_ptr());
        // writing a data buffer unshares only the writer's data region
        other.flat_mut(y)[1] = 7.0;
        assert_eq!((st.flat(y), other.flat(y)), (&[1.0, 2.0][..], &[1.0, 7.0][..]));
    }

    #[test]
    fn split_mut_reads_every_other_buffer() {
        let mut st = State::new();
        let d = st.insert_host("d", &HostValue::VecF(vec![1.0, 2.0]));
        let lo = st.insert_host("lo", &HostValue::Real(3.0));
        let below = st.insert("below", Shape::Vector(2));
        let dst = st.insert("dst", Shape::Vector(3));
        let empty = st.insert("empty", Shape::Vector(0));
        let above = st.insert("above", Shape::Num);
        st.flat_mut(below).copy_from_slice(&[4.0, 5.0]);
        st.set_scalar(above, 6.0);
        for (dst, src) in [(dst, below), (dst, above), (dst, d), (dst, empty), (d, lo), (d, dst)] {
            let want = st.flat(src).to_vec();
            let (cells, rest) = st.split_mut(dst);
            assert_eq!(cells.len(), if dst == d { 2 } else { 3 });
            assert_eq!(rest.flat(src), &want[..]);
        }
    }

    #[test]
    fn total_cells_counts_everything() {
        let mut st = State::new();
        st.insert("a", Shape::Num);
        st.insert("b", Shape::Matrix(3));
        assert_eq!(st.total_cells(), 10);
    }
}

//! Columnar (SoA) feature storage with batched scoring kernels.
//!
//! The solver stack scores `n` tuples against a weight vector far more
//! often than it touches individual rows, and a score sweep is a linear
//! combination of *columns*: `score = Σ_j w_j · A_j`. Storing the
//! relation column-major keeps every such sweep a sequence of contiguous
//! axpy passes — one streaming read per attribute — instead of `n`
//! strided gathers over row objects. Row access is still available
//! (strided), but the hot paths are the columnar kernels below.

use crate::kernels;
use std::fmt;

/// A dense `n × m` feature matrix stored column-major: column `j`
/// occupies `data[j·n .. (j+1)·n]`, so element `(i, j)` sits at
/// `data[j·n + i]` (the row stride is `n`).
#[derive(Clone, PartialEq)]
pub struct FeatureMatrix {
    n: usize,
    m: usize,
    data: Vec<f64>,
}

impl FeatureMatrix {
    /// All-zeros matrix.
    pub fn zeros(n: usize, m: usize) -> Self {
        FeatureMatrix {
            n,
            m,
            data: vec![0.0; n * m],
        }
    }

    /// Build from row-major nested rows. Panics on ragged input.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n = rows.len();
        let m = rows.first().map_or(0, |r| r.len());
        let mut data = vec![0.0; n * m];
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), m, "ragged feature rows");
            for (j, &v) in row.iter().enumerate() {
                data[j * n + i] = v;
            }
        }
        FeatureMatrix { n, m, data }
    }

    /// Build from `m` columns of equal length. Panics on ragged input.
    pub fn from_columns(columns: Vec<Vec<f64>>) -> Self {
        let m = columns.len();
        let n = columns.first().map_or(0, |c| c.len());
        let mut data = Vec::with_capacity(n * m);
        for col in &columns {
            assert_eq!(col.len(), n, "ragged feature columns");
            data.extend_from_slice(col);
        }
        FeatureMatrix { n, m, data }
    }

    /// Number of tuples (rows) `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of attributes (columns) `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The stride between consecutive elements of one row (equals
    /// [`FeatureMatrix::n`] in this layout).
    pub fn stride(&self) -> usize {
        self.n
    }

    /// Element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.n && j < self.m);
        self.data[j * self.n + i]
    }

    /// Column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.n..(j + 1) * self.n]
    }

    /// Mutable column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.n..(j + 1) * self.n]
    }

    /// Iterate the values of row `i` (strided walk over the columns).
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = f64> + '_ {
        debug_assert!(i < self.n);
        self.data.iter().skip(i).step_by(self.n.max(1)).copied()
    }

    /// Gather row `i` into `out` (length `m`).
    pub fn copy_row_into(&self, i: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.m, "row gather arity");
        for (j, o) in out.iter_mut().enumerate() {
            *o = self.data[j * self.n + i];
        }
    }

    /// Row `i` as an owned vector.
    pub fn row_vec(&self, i: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.m];
        self.copy_row_into(i, &mut out);
        out
    }

    /// Export as row-major nested rows (for interop with row-oriented
    /// code such as least-squares design matrices).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.n).map(|i| self.row_vec(i)).collect()
    }

    /// Dot product of row `i` with `weights` (strided gather — prefer
    /// [`FeatureMatrix::scores_into`] when all rows are needed).
    pub fn dot_row(&self, i: usize, weights: &[f64]) -> f64 {
        assert_eq!(weights.len(), self.m, "weight arity");
        weights
            .iter()
            .enumerate()
            .map(|(j, &w)| w * self.data[j * self.n + i])
            .sum()
    }

    /// Batched score kernel: `out[i] = Σ_j weights[j] · A_j[i]` for every
    /// tuple, as `m` contiguous [`kernels::axpy`] passes. Zero weights
    /// are skipped, so sparse weight vectors cost only their support.
    pub fn scores_into(&self, weights: &[f64], out: &mut [f64]) {
        assert_eq!(weights.len(), self.m, "weight arity");
        assert_eq!(out.len(), self.n, "score buffer length");
        out.fill(0.0);
        for (j, &w) in weights.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            kernels::axpy(out, w, self.col(j));
        }
    }

    /// Batched score kernel returning a fresh vector.
    pub fn scores(&self, weights: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.scores_into(weights, &mut out);
        out
    }

    /// Difference vector of two rows: `out[j] = A_j[s] − A_j[r]` (the
    /// indicator-hyperplane normal of the pair `(s, r)`).
    pub fn row_diff_into(&self, s: usize, r: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.m, "diff arity");
        for (j, o) in out.iter_mut().enumerate() {
            let col = &self.data[j * self.n..];
            *o = col[s] - col[r];
        }
    }

    /// Batched pair-difference kernel: for a block of challenger rows
    /// `block`, write the difference vectors against row `r` into `out`
    /// row-major (`out[b·m + j] = A_j[block[b]] − A_j[r]`). Filled one
    /// column at a time so each source column is read contiguously once.
    pub fn block_diffs_into(&self, block: &[usize], r: usize, out: &mut [f64]) {
        assert!(out.len() >= block.len() * self.m, "diff block size");
        let m = self.m;
        for j in 0..m {
            let col = self.col(j);
            let base = col[r];
            for (b, &s) in block.iter().enumerate() {
                out[b * m + j] = col[s] - base;
            }
        }
    }

    /// Project onto a subset of columns (by index, in the given order).
    pub fn select_columns(&self, cols: &[usize]) -> FeatureMatrix {
        let mut data = Vec::with_capacity(self.n * cols.len());
        for &j in cols {
            data.extend_from_slice(self.col(j));
        }
        FeatureMatrix {
            n: self.n,
            m: cols.len(),
            data,
        }
    }

    /// Keep only the first `n` rows.
    pub fn take_rows(&self, n: usize) -> FeatureMatrix {
        let keep = n.min(self.n);
        let mut data = Vec::with_capacity(keep * self.m);
        for j in 0..self.m {
            data.extend_from_slice(&self.col(j)[..keep]);
        }
        FeatureMatrix {
            n: keep,
            m: self.m,
            data,
        }
    }

    /// Keep the rows at the given indices, in order.
    pub fn select_rows(&self, idx: &[usize]) -> FeatureMatrix {
        let mut data = Vec::with_capacity(idx.len() * self.m);
        for j in 0..self.m {
            let col = self.col(j);
            data.extend(idx.iter().map(|&i| col[i]));
        }
        FeatureMatrix {
            n: idx.len(),
            m: self.m,
            data,
        }
    }

    /// Append a column. Panics on a length mismatch.
    pub fn push_column(&mut self, col: Vec<f64>) {
        if self.m == 0 {
            self.n = col.len();
        }
        assert_eq!(col.len(), self.n, "column length");
        self.data.extend_from_slice(&col);
        self.m += 1;
    }

    /// Per-column `(min, max)` spans written into `out` (cleared and
    /// refilled; the buffer's capacity is reused across calls, so a
    /// caller that sweeps ranges repeatedly pays no per-call
    /// allocation). One contiguous [`kernels::min_max`] pass per
    /// column.
    pub fn column_ranges_into(&self, out: &mut Vec<(f64, f64)>) {
        out.clear();
        out.reserve(self.m);
        for j in 0..self.m {
            out.push(kernels::min_max(self.col(j)));
        }
    }

    /// Per-column `(min, max)` spans as a fresh vector (allocating
    /// convenience wrapper over [`FeatureMatrix::column_ranges_into`]).
    pub fn column_ranges(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        self.column_ranges_into(&mut out);
        out
    }

    /// Min-max normalize every column to `[0, 1]` (constant columns
    /// become all-zero).
    pub fn min_max_normalized(&self) -> FeatureMatrix {
        let mut ranges = Vec::new();
        self.column_ranges_into(&mut ranges);
        let mut out = self.clone();
        for (j, (lo, hi)) in ranges.into_iter().enumerate() {
            let span = hi - lo;
            let col = out.col_mut(j);
            if span > 0.0 {
                for v in col.iter_mut() {
                    *v = (*v - lo) / span;
                }
            } else {
                col.fill(0.0);
            }
        }
        out
    }
}

impl fmt::Debug for FeatureMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FeatureMatrix {}x{} (column-major) [", self.n, self.m)?;
        for i in 0..self.n {
            writeln!(f, "  {:?}", self.row_vec(i))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FeatureMatrix {
        FeatureMatrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
            vec![10.0, 11.0, 12.0],
        ])
    }

    #[test]
    fn layout_is_column_major() {
        let f = sample();
        assert_eq!(f.n(), 4);
        assert_eq!(f.m(), 3);
        assert_eq!(f.stride(), 4);
        assert_eq!(f.col(0), &[1.0, 4.0, 7.0, 10.0]);
        assert_eq!(f.col(2), &[3.0, 6.0, 9.0, 12.0]);
        assert_eq!(f.get(1, 2), 6.0);
    }

    #[test]
    fn row_access_round_trips() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let f = FeatureMatrix::from_rows(&rows);
        assert_eq!(f.to_rows(), rows);
        assert_eq!(f.row_vec(1), vec![3.0, 4.0]);
        assert_eq!(f.row_iter(2).collect::<Vec<_>>(), vec![5.0, 6.0]);
    }

    #[test]
    fn from_columns_matches_from_rows() {
        let by_rows = FeatureMatrix::from_rows(&[vec![1.0, 3.0], vec![2.0, 4.0]]);
        let by_cols = FeatureMatrix::from_columns(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(by_rows, by_cols);
    }

    #[test]
    fn batched_scores_match_rowwise_dots() {
        let f = sample();
        let w = [0.5, -1.0, 0.25];
        let batched = f.scores(&w);
        for i in 0..f.n() {
            let dot = f.dot_row(i, &w);
            assert!((batched[i] - dot).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn zero_weights_are_skipped_but_exact() {
        let f = sample();
        assert_eq!(f.scores(&[0.0, 1.0, 0.0]), f.col(1).to_vec());
    }

    #[test]
    fn row_diff_and_block_diffs_agree() {
        let f = sample();
        let mut single = vec![0.0; 3];
        f.row_diff_into(2, 0, &mut single);
        assert_eq!(single, vec![6.0, 6.0, 6.0]);
        let block = [1usize, 2, 3];
        let mut out = vec![0.0; block.len() * f.m()];
        f.block_diffs_into(&block, 0, &mut out);
        for (b, &s) in block.iter().enumerate() {
            let mut expect = vec![0.0; 3];
            f.row_diff_into(s, 0, &mut expect);
            assert_eq!(&out[b * 3..(b + 1) * 3], &expect[..], "block row {b}");
        }
    }

    #[test]
    fn selection_and_truncation() {
        let f = sample();
        let cols = f.select_columns(&[2, 0]);
        assert_eq!(cols.row_vec(1), vec![6.0, 4.0]);
        let top = f.take_rows(2);
        assert_eq!(top.n(), 2);
        assert_eq!(top.col(1), &[2.0, 5.0]);
        let picked = f.select_rows(&[3, 0]);
        assert_eq!(picked.row_vec(0), vec![10.0, 11.0, 12.0]);
        assert_eq!(picked.row_vec(1), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn push_column_extends_m() {
        let mut f = sample();
        f.push_column(vec![0.1, 0.2, 0.3, 0.4]);
        assert_eq!(f.m(), 4);
        assert_eq!(f.col(3), &[0.1, 0.2, 0.3, 0.4]);
    }

    #[test]
    fn normalization_per_column() {
        let f = FeatureMatrix::from_rows(&[vec![1.0, 7.0], vec![2.0, 7.0], vec![3.0, 7.0]]);
        let n = f.min_max_normalized();
        assert_eq!(n.col(0), &[0.0, 0.5, 1.0]);
        assert_eq!(n.col(1), &[0.0, 0.0, 0.0]); // constant column
    }

    #[test]
    fn column_ranges_into_reuses_the_buffer_and_matches() {
        let f = sample();
        let mut buf = vec![(9.9, 9.9); 16]; // stale content must be cleared
        f.column_ranges_into(&mut buf);
        assert_eq!(buf, f.column_ranges());
        assert_eq!(buf, vec![(1.0, 10.0), (2.0, 11.0), (3.0, 12.0)]);
        // A second call refills in place (same answer, no stale tail).
        f.column_ranges_into(&mut buf);
        assert_eq!(buf.len(), f.m());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        FeatureMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}

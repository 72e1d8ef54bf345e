//! Sparse LU factorization for simplex basis matrices.
//!
//! The revised simplex refactorizes its basis every few dozen pivots;
//! with the dense [`crate::Lu`] kernel that refresh costs `O(m³)` no
//! matter how sparse the basis is — and simplex bases of the
//! occupation-measure LPs carry about 4 nonzeros per column. This
//! left-looking, column-at-a-time factorization with partial pivoting
//! (the classic Gilbert–Peierls shape, minus the symbolic DFS: an
//! `O(n²)` scan with a trivial constant replaces it, which is the right
//! trade below a few thousand rows) costs `O(n² + fill)`. Fill is real:
//! the 98-row basis of the paper's Figure 1 LP at the small sizing
//! configuration has 404 nonzeros and its factors about 1.6k, and one
//! factorization takes 50–65 µs on a 2-vCPU x86 host (the 483-row
//! network-processor basis at state cap 16: 1.9k nonzeros, ~16k in the
//! factors, under a millisecond). That is still the largest fixed cost
//! of a warm re-solve, which is why the simplex keeps a factorization
//! with the basis it exports and skips refactoring an unchanged one.
//!
//! Input is a set of sparse *columns* (exactly how a simplex basis is
//! gathered); `L` and `U` are stored as sparse column lists, and both
//! [`SparseLu::solve`] and [`SparseLu::solve_transpose`] run in
//! `O(n + nnz(L) + nnz(U))`.

use crate::LinalgError;

/// Sparse LU with partial pivoting: `P A = L U`, built from sparse
/// columns.
///
/// # Examples
///
/// ```
/// use socbuf_linalg::SparseLu;
///
/// # fn main() -> Result<(), socbuf_linalg::LinalgError> {
/// // [ 2 1 ]      columns: [(0,2),(1,1)] and [(0,1),(1,3)]
/// // [ 1 3 ]
/// let cols = vec![vec![(0, 2.0), (1, 1.0)], vec![(0, 1.0), (1, 3.0)]];
/// let lu = SparseLu::factor_cols(2, &cols)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// `L` by elimination column: `(original_row, l_value)` entries,
    /// strictly below the diagonal in position space; unit diagonal
    /// implicit.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// `U` by column: `(position, u_value)` entries strictly above the
    /// diagonal.
    u_cols: Vec<Vec<(usize, f64)>>,
    /// Diagonal of `U` per elimination position.
    u_diag: Vec<f64>,
    /// `pivot_row[k]` — original row pivoting elimination position `k`.
    pivot_row: Vec<usize>,
    /// Inverse map: original row → elimination position (or `MAX`).
    position: Vec<usize>,
}

/// Pivots smaller than this (relative to the column's max) are refused;
/// a column with no usable pivot marks the matrix singular.
const PIVOT_TOL: f64 = 1e-12;

impl SparseLu {
    /// Factors the `n × n` matrix whose `j`-th column holds the sparse
    /// entries `cols[j]` as `(row, value)` pairs (any order, no
    /// duplicates).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] if `n == 0`.
    /// * [`LinalgError::DimensionMismatch`] if `cols.len() != n`.
    /// * [`LinalgError::IndexOutOfRange`] if an entry's row is `≥ n`.
    /// * [`LinalgError::Singular`] if a column has no usable pivot.
    pub fn factor_cols(n: usize, cols: &[Vec<(usize, f64)>]) -> Result<Self, LinalgError> {
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if cols.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: (n, n),
                found: (n, cols.len()),
            });
        }
        let mut lu = SparseLu {
            n,
            l_cols: Vec::with_capacity(n),
            u_cols: Vec::with_capacity(n),
            u_diag: Vec::with_capacity(n),
            pivot_row: Vec::with_capacity(n),
            position: vec![usize::MAX; n],
        };
        // Dense accumulator + occupancy list: scatter, eliminate,
        // gather, clear — only touched entries are ever visited.
        let mut work = vec![0.0f64; n];
        let mut touched: Vec<usize> = Vec::with_capacity(64);

        for (j, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                if r >= n {
                    return Err(LinalgError::IndexOutOfRange {
                        row: r,
                        col: j,
                        rows: n,
                        cols: n,
                    });
                }
                work[r] += v;
                touched.push(r);
            }
            // Left-looking elimination: apply every earlier column whose
            // pivot row currently holds a nonzero. Increasing-k order is
            // required (an update from column k can light up the pivot
            // row of a later column k′).
            let mut u_col: Vec<(usize, f64)> = Vec::new();
            for k in 0..j {
                let ukj = work[lu.pivot_row[k]];
                if ukj == 0.0 {
                    continue;
                }
                for &(r, l) in &lu.l_cols[k] {
                    if work[r] == 0.0 {
                        touched.push(r);
                    }
                    work[r] -= l * ukj;
                }
                u_col.push((k, ukj));
            }
            // Partial pivoting among rows not yet assigned a position.
            let mut pivot: Option<(usize, f64)> = None;
            for &r in &touched {
                if lu.position[r] != usize::MAX {
                    continue;
                }
                let mag = work[r].abs();
                if mag > 0.0 && pivot.is_none_or(|(_, best)| mag > best) {
                    pivot = Some((r, mag));
                }
            }
            let Some((prow, pmag)) = pivot else {
                return Err(LinalgError::Singular { pivot: j });
            };
            if pmag < PIVOT_TOL {
                return Err(LinalgError::Singular { pivot: j });
            }
            let pval = work[prow];
            let mut l_col: Vec<(usize, f64)> = Vec::new();
            for &r in &touched {
                let v = work[r];
                work[r] = 0.0; // clear as we gather
                if v == 0.0 || r == prow {
                    continue;
                }
                if lu.position[r] == usize::MAX {
                    l_col.push((r, v / pval));
                }
                // Rows already pivoted were gathered into u_col above.
            }
            touched.clear();
            lu.position[prow] = j;
            lu.pivot_row.push(prow);
            lu.u_diag.push(pval);
            lu.u_cols.push(u_col);
            lu.l_cols.push(l_col);
        }
        Ok(lu)
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored entries in `L` and `U` combined (fill-in diagnostics).
    pub fn nnz(&self) -> usize {
        self.n
            + self.l_cols.iter().map(Vec::len).sum::<usize>()
            + self.u_cols.iter().map(Vec::len).sum::<usize>()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.n;
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: (n, 1),
                found: (b.len(), 1),
            });
        }
        // Forward: L z = P b, in original-row coordinates.
        let mut z = b.to_vec();
        for k in 0..n {
            let zk = z[self.pivot_row[k]];
            if zk == 0.0 {
                continue;
            }
            for &(r, l) in &self.l_cols[k] {
                z[r] -= l * zk;
            }
        }
        // Backward: U x = z, reading z through the pivot order.
        let mut zpos: Vec<f64> = self.pivot_row.iter().map(|&r| z[r]).collect();
        let mut x = vec![0.0; n];
        for j in (0..n).rev() {
            let xj = zpos[j] / self.u_diag[j];
            x[j] = xj;
            if xj == 0.0 {
                continue;
            }
            for &(k, u) in &self.u_cols[j] {
                zpos[k] -= u * xj;
            }
        }
        Ok(x)
    }

    /// Solves `Aᵀ x = b`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve_transpose(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.n;
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: (n, 1),
                found: (b.len(), 1),
            });
        }
        // Aᵀ = Uᵀ Lᵀ P. Forward: Uᵀ w = b (columns of U in order).
        let mut w = vec![0.0; n];
        for j in 0..n {
            let mut acc = b[j];
            for &(k, u) in &self.u_cols[j] {
                acc -= u * w[k];
            }
            w[j] = acc / self.u_diag[j];
        }
        // Backward: Lᵀ v = w in position space (entries of L-col k sit
        // at strictly later positions).
        for k in (0..n).rev() {
            let mut acc = w[k];
            for &(r, l) in &self.l_cols[k] {
                acc -= l * w[self.position[r]];
            }
            w[k] = acc;
        }
        // x = Pᵀ v.
        let mut x = vec![0.0; n];
        for (k, &r) in self.pivot_row.iter().enumerate() {
            x[r] = w[k];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{max_abs_diff, Lu, Matrix};

    fn cols_of(m: &Matrix) -> Vec<Vec<(usize, f64)>> {
        (0..m.cols())
            .map(|j| {
                (0..m.rows())
                    .filter(|&i| m[(i, j)] != 0.0)
                    .map(|i| (i, m[(i, j)]))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn matches_dense_lu_on_small_systems() {
        let cases = [
            Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap(),
            Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap(), // needs pivoting
            Matrix::from_rows(&[&[4.0, -2.0, 1.0], &[-2.0, 4.0, -2.0], &[1.0, -2.0, 4.0]]).unwrap(),
            Matrix::from_rows(&[&[1e-8, 1.0, 0.0], &[1.0, 0.0, 2.0], &[0.0, 3.0, 1.0]]).unwrap(),
        ];
        for a in &cases {
            let b: Vec<f64> = (0..a.rows()).map(|i| 1.0 + i as f64).collect();
            let dense = Lu::factor(a).unwrap();
            let sparse = SparseLu::factor_cols(a.rows(), &cols_of(a)).unwrap();
            assert!(max_abs_diff(&dense.solve(&b).unwrap(), &sparse.solve(&b).unwrap()) < 1e-9);
            assert!(
                max_abs_diff(
                    &dense.solve_transpose(&b).unwrap(),
                    &sparse.solve_transpose(&b).unwrap()
                ) < 1e-9
            );
        }
    }

    #[test]
    fn detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            SparseLu::factor_cols(2, &cols_of(&a)),
            Err(LinalgError::Singular { .. })
        ));
        // Structurally singular: an empty column.
        assert!(matches!(
            SparseLu::factor_cols(2, &[vec![(0, 1.0)], vec![]]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(matches!(
            SparseLu::factor_cols(0, &[]),
            Err(LinalgError::Empty)
        ));
        assert!(matches!(
            SparseLu::factor_cols(2, &[vec![(0, 1.0)]]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            SparseLu::factor_cols(1, &[vec![(3, 1.0)]]),
            Err(LinalgError::IndexOutOfRange { .. })
        ));
        let lu = SparseLu::factor_cols(1, &[vec![(0, 2.0)]]).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
        assert!(lu.solve_transpose(&[]).is_err());
    }

    #[test]
    fn near_triangular_basis_has_no_fill() {
        // A birth–death-style bidiagonal basis: fill-in must be zero
        // (nnz of the factors equals nnz of the matrix).
        let n = 50;
        let cols: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|j| {
                let mut c = vec![(j, 2.0)];
                if j + 1 < n {
                    c.push((j + 1, -1.0));
                }
                c
            })
            .collect();
        let nnz_in: usize = cols.iter().map(Vec::len).sum();
        let lu = SparseLu::factor_cols(n, &cols).unwrap();
        assert_eq!(lu.nnz(), nnz_in);
        let b = vec![1.0; n];
        let x = lu.solve(&b).unwrap();
        // Residual check.
        let mut r = vec![0.0; n];
        for (j, col) in cols.iter().enumerate() {
            for &(i, v) in col {
                r[i] += v * x[j];
            }
        }
        assert!(max_abs_diff(&r, &b) < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::{max_abs_diff, Matrix};
    use proptest::prelude::*;

    /// Random sparse diagonally dominant systems (non-singular) with a
    /// known solution.
    fn dd_sparse_system() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
        (2usize..=12).prop_flat_map(|n| {
            (
                proptest::collection::vec(-1.0f64..1.0, n * n),
                proptest::collection::vec(0.0f64..1.0, n * n),
                proptest::collection::vec(-10.0f64..10.0, n),
            )
                .prop_map(move |(entries, keep, x)| {
                    let mut a = Matrix::zeros(n, n);
                    for i in 0..n {
                        for j in 0..n {
                            // ~40% fill keeps the matrices genuinely sparse.
                            if keep[i * n + j] < 0.4 {
                                a[(i, j)] = entries[i * n + j];
                            }
                        }
                    }
                    for i in 0..n {
                        let off: f64 = (0..n).filter(|&j| j != i).map(|j| a[(i, j)].abs()).sum();
                        a[(i, i)] = off + 1.0;
                    }
                    (a, x)
                })
        })
    }

    fn cols_of(m: &Matrix) -> Vec<Vec<(usize, f64)>> {
        (0..m.cols())
            .map(|j| {
                (0..m.rows())
                    .filter(|&i| m[(i, j)] != 0.0)
                    .map(|i| (i, m[(i, j)]))
                    .collect()
            })
            .collect()
    }

    proptest! {
        #[test]
        fn sparse_lu_recovers_solutions((a, x_true) in dd_sparse_system()) {
            let b = a.matvec(&x_true).unwrap();
            let lu = SparseLu::factor_cols(a.rows(), &cols_of(&a)).unwrap();
            let x = lu.solve(&b).unwrap();
            prop_assert!(max_abs_diff(&x, &x_true) < 1e-6);
        }

        #[test]
        fn sparse_lu_transpose_consistent((a, x_true) in dd_sparse_system()) {
            let bt = a.vecmat(&x_true).unwrap();
            let lu = SparseLu::factor_cols(a.rows(), &cols_of(&a)).unwrap();
            let x = lu.solve_transpose(&bt).unwrap();
            prop_assert!(max_abs_diff(&x, &x_true) < 1e-6);
        }
    }
}

//! Dense dual recovery — the test oracle for the engines' duals.
//!
//! The engines hand their duals over from the sparse factorization of
//! their final basis. This oracle recomputes them the way dual recovery
//! used to run in production: gather the final basis into a dense
//! matrix and solve `Bᵀ w = c_B` with the dense LU kernel. It works in
//! the problem's own units and orientation, from public data only, so
//! it shares no code with the path it checks.
//!
//! The basis comes from the solution's snapshot, whose columns index
//! the standard form: the structural columns first, then one slack
//! column per non-equality row in row order, where the rows are the
//! user rows followed by one `x_j ≤ upper_j` row per upper-bounded
//! variable. In the user's orientation a `≤` row's slack is `+1` and a
//! `≥` row's surplus `−1`, whatever the standard form did to make its
//! right-hand side non-negative; equilibration only rescales. Neither
//! changes the duals in the problem's units. Rows the snapshot marks
//! inactive (redundant) are dropped and get a dual of 0.

use socbuf_linalg::{Lu, Matrix};
use socbuf_lp::{LpProblem, LpSolution, Relation, Sense};

/// Row duals and reduced costs of `sol`'s final basis, recomputed
/// densely, with the sign conventions of [`LpSolution::dual`] and
/// [`LpSolution::reduced_cost`].
pub fn dense_duals(p: &LpProblem, sol: &LpSolution) -> (Vec<f64>, Vec<f64>) {
    let n = p.num_vars();
    let vars: Vec<_> = p.vars().collect();
    // Standard-form rows, in the user's orientation.
    let mut rows: Vec<(Vec<(usize, f64)>, Relation)> = p
        .row_ids()
        .map(|r| {
            let (terms, rel, _) = p.row(r);
            (terms.iter().map(|&(v, c)| (v.index(), c)).collect(), rel)
        })
        .collect();
    for (j, &v) in vars.iter().enumerate() {
        if p.bounds(v).1.is_some() {
            rows.push((vec![(j, 1.0)], Relation::Le));
        }
    }
    // Slack column `n + k` → (its row, its coefficient).
    let slacks: Vec<(usize, f64)> = rows
        .iter()
        .enumerate()
        .filter_map(|(i, (_, rel))| match rel {
            Relation::Le => Some((i, 1.0)),
            Relation::Ge => Some((i, -1.0)),
            Relation::Eq => None,
        })
        .collect();

    let snapshot = sol.basis_snapshot();
    let basis = snapshot.rows();
    assert_eq!(basis.len(), rows.len(), "snapshot row count");
    assert_eq!(
        snapshot.num_cols(),
        n + slacks.len(),
        "snapshot column count"
    );

    let min_sign = match p.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let active: Vec<usize> = (0..rows.len())
        .filter(|&i| basis[i] != usize::MAX)
        .collect();
    let k = active.len();
    let mut w_by_row = vec![0.0; rows.len()];
    if k > 0 {
        // Column → position in the active basis, then one row sweep.
        let mut col_pos = vec![usize::MAX; n + slacks.len()];
        let mut cb = vec![0.0; k];
        for (pos, &i) in active.iter().enumerate() {
            let col = basis[i];
            col_pos[col] = pos;
            if col < n {
                cb[pos] = min_sign * p.objective_coeff(vars[col]);
            }
        }
        let mut bmat = Matrix::zeros(k, k);
        for (pos_row, &i) in active.iter().enumerate() {
            for &(j, c) in &rows[i].0 {
                if col_pos[j] != usize::MAX {
                    bmat[(pos_row, col_pos[j])] += c;
                }
            }
        }
        for (s, &(i, coeff)) in slacks.iter().enumerate() {
            let pos_col = col_pos[n + s];
            if pos_col != usize::MAX {
                if let Ok(pos_row) = active.binary_search(&i) {
                    bmat[(pos_row, pos_col)] = coeff;
                }
            }
        }
        let w = Lu::factor(&bmat)
            .and_then(|lu| lu.solve_transpose(&cb))
            .expect("final basis must be nonsingular");
        for (pos, &i) in active.iter().enumerate() {
            w_by_row[i] = w[pos];
        }
    }

    let duals: Vec<f64> = (0..p.num_rows()).map(|i| min_sign * w_by_row[i]).collect();
    let mut reduced: Vec<f64> = vars
        .iter()
        .map(|&v| min_sign * p.objective_coeff(v))
        .collect();
    for (i, (terms, _)) in rows.iter().enumerate().take(p.num_rows()) {
        for &(j, c) in terms {
            reduced[j] -= w_by_row[i] * c;
        }
    }
    for d in &mut reduced {
        *d *= min_sign;
    }
    (duals, reduced)
}

/// Asserts `sol`'s duals and reduced costs agree with [`dense_duals`] to
/// `rel` relative to the problem's dual scale: the largest dual or
/// reduced-cost magnitude either side reports.
pub fn assert_duals_match_dense(label: &str, p: &LpProblem, sol: &LpSolution, rel: f64) {
    let (duals, reduced) = dense_duals(p, sol);
    let got_reduced: Vec<f64> = p.vars().map(|v| sol.reduced_cost(v)).collect();
    let scale = duals
        .iter()
        .chain(&reduced)
        .chain(sol.duals())
        .chain(&got_reduced)
        .fold(f64::MIN_POSITIVE, |acc, v| acc.max(v.abs()));
    for (i, (&want, &got)) in duals.iter().zip(sol.duals()).enumerate() {
        assert!(
            (want - got).abs() <= rel * scale,
            "{label}: dual of row {i}: dense {want} vs engine {got} (scale {scale})"
        );
    }
    for (j, (&want, &got)) in reduced.iter().zip(&got_reduced).enumerate() {
        assert!(
            (want - got).abs() <= rel * scale,
            "{label}: reduced cost of var {j}: dense {want} vs engine {got} (scale {scale})"
        );
    }
}

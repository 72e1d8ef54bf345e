//! The user-facing optimal solution, extracted from an engine's final
//! basis.
//!
//! Extraction does no linear algebra of its own. Every engine hands over
//! the scaled row duals `ỹ` of its final basis, solved through the
//! sparse LU it holds of that basis (the revised engine's last phase-2
//! BTRAN; the tableau engine factors its final basis once). What is
//! left here is `O(n + nnz)`: unscale the primal values and duals,
//! accumulate the reduced costs against the user rows, flag the basic
//! variables, and normalize the exported [`BasisSnapshot`] — which
//! keeps the engine's factorization so a warm re-solve from the same
//! basis can skip refactoring it.

use crate::problem::{LpProblem, RowId, VarId};
use crate::revised::{BasisSnapshot, LpEngine};
use crate::simplex::BasicSolution;
use crate::standard_form::{ScalingStats, StandardForm};

/// An optimal basic solution of an [`LpProblem`].
///
/// Besides the primal values and objective, the solution carries the dual
/// prices and reduced costs recovered from the final basis — these are
/// the sensitivity quantities the buffer-sizing pipeline reports (e.g.
/// the shadow price of the global buffer-budget constraint), and the
/// basic/nonbasic split that the K-switching structure analysis inspects.
///
/// Sign conventions:
/// * [`LpSolution::dual`] is `∂ objective / ∂ rhs` in the problem's own
///   sense (for a `Maximize` problem a binding `≤` row has a
///   non-negative dual).
/// * [`LpSolution::reduced_cost`] is non-negative at optimum for
///   `Minimize` problems (and non-positive for `Maximize`) for variables
///   sitting at their lower bound, with upper-bound shadow prices folded
///   out (so variables at their *upper* bound show the opposite sign).
#[derive(Debug, Clone)]
pub struct LpSolution {
    values: Vec<f64>,
    objective: f64,
    duals: Vec<f64>,
    reduced: Vec<f64>,
    basic: Vec<bool>,
    iterations: usize,
    engine: LpEngine,
    snapshot: BasisSnapshot,
    scaling: ScalingStats,
}

impl LpSolution {
    pub(crate) fn from_basic(
        p: &LpProblem,
        sf: &StandardForm,
        basic: &BasicSolution,
        engine: LpEngine,
    ) -> LpSolution {
        let n = p.num_vars();
        // Unscaling contract (see `standard_form`'s module docs): the
        // engines solved the equilibrated form, so primal values are
        // `x = C·x̃` (then shifted), duals `y = R·ỹ` and reduced costs
        // `d = d̃ / c_j` — all exact, the factors being powers of two.
        let mut values = vec![0.0; n];
        for j in 0..n {
            values[j] = sf.shift[j] + sf.col_scale(j) * basic.x[j];
        }
        let objective: f64 = p.obj_vec().iter().zip(&values).map(|(c, x)| c * x).sum();

        // The engines hand over the scaled row duals ỹ of their final
        // basis (one BTRAN of the phase-2 basic costs through its sparse
        // LU, exactly 0 on inactive rows).
        let y_by_row = &basic.duals;

        // User-row duals (min-form), then flip for Maximize. `y_by_row`
        // itself stays in scaled units — the reduced-cost accumulation
        // below runs against the scaled matrix and needs the scaled ỹ.
        let obj_sign = if sf.negated_obj { -1.0 } else { 1.0 };
        let mut duals = vec![0.0; p.num_rows()];
        for i in 0..sf.a.rows() {
            if let Some(ri) = sf.row_origin[i] {
                duals[ri] = obj_sign * sf.row_sign[i] * sf.row_scale(i) * y_by_row[i];
            }
        }

        // Reduced costs w.r.t. user rows only (upper-bound shadow prices
        // folded out): d_j = c_j − Σ_{user rows} y_i a_ij, accumulated by
        // scattering each CSR row once — O(nnz).
        let mut reduced: Vec<f64> = sf.c[..n].to_vec();
        for i in 0..sf.a.rows() {
            let y = y_by_row[i];
            if sf.row_origin[i].is_none() || y == 0.0 {
                continue;
            }
            for (j, v) in sf.a.iter_row(i) {
                if j < n {
                    reduced[j] -= y * v;
                }
            }
        }
        for (j, d) in reduced.iter_mut().enumerate() {
            *d *= obj_sign / sf.col_scale(j);
        }

        let mut basic_flags = vec![false; n];
        for (i, &col) in basic.basis.iter().enumerate() {
            if basic.row_active[i] && col < n {
                basic_flags[col] = true;
            }
        }

        // Snapshot normalization: inactive (redundant) rows carry the
        // canonical `usize::MAX` marker whatever the engine left in its
        // raw basis vector, so either engine's snapshot can seed a warm
        // revised solve.
        let snapshot_basis: Vec<usize> = basic
            .basis
            .iter()
            .zip(&basic.row_active)
            .map(|(&col, &active)| {
                if active && col < sf.a.cols() {
                    col
                } else {
                    usize::MAX
                }
            })
            .collect();

        LpSolution {
            values,
            objective,
            duals,
            reduced,
            basic: basic_flags,
            iterations: basic.iterations,
            engine,
            snapshot: BasisSnapshot::with_factor(
                snapshot_basis,
                sf.a.cols(),
                engine,
                basic.factor.clone(),
            ),
            scaling: sf.scaling_stats,
        }
    }

    /// Optimal objective value, in the problem's own sense.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Value of a variable at the optimum.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the solved problem.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.index()]
    }

    /// All variable values, in creation order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Dual price (`∂ objective / ∂ rhs`) of a constraint row.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not belong to the solved problem.
    pub fn dual(&self, r: RowId) -> f64 {
        self.duals[r.index()]
    }

    /// All row duals, in creation order.
    pub fn duals(&self) -> &[f64] {
        &self.duals
    }

    /// Reduced cost of a variable (see the type-level docs for the sign
    /// convention).
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the solved problem.
    pub fn reduced_cost(&self, v: VarId) -> f64 {
        self.reduced[v.index()]
    }

    /// Whether the variable is basic in the final simplex basis.
    ///
    /// Basic solutions are what Feinberg's K-switching theorem speaks
    /// about: at a basic optimum of a constrained-CTMDP LP at most K
    /// states carry more than one action with positive probability.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the solved problem.
    pub fn is_basic(&self, v: VarId) -> bool {
        self.basic[v.index()]
    }

    /// Total simplex pivots used across both phases.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Which engine produced this solution (both satisfy the same
    /// [`crate::verify_optimality`] certificate; the tag matters when
    /// interpreting pivot counts or reproducing a run).
    pub fn engine(&self) -> LpEngine {
        self.engine
    }

    /// What the equilibration pass measured and did for this solve —
    /// the nonzero-magnitude spread of the standard form before and
    /// after scaling, and whether scaling was applied at all (it only
    /// is when the spread exceeds the trigger and
    /// [`crate::SimplexOptions::equilibrate`] is set). The solution
    /// itself is always reported in original units regardless.
    pub fn scaling_stats(&self) -> ScalingStats {
        self.scaling
    }

    /// The optimal basis this solution sits at, exported for
    /// warm-starting a re-solve of a nearby problem through
    /// [`crate::PreparedLp::solve_warm`]. The snapshot is standalone
    /// data (row → basic standard-form column) — it stays valid however
    /// the problem is subsequently mutated, and a solver that finds it
    /// stale simply falls back to a cold solve.
    pub fn basis_snapshot(&self) -> BasisSnapshot {
        self.snapshot.clone()
    }
}

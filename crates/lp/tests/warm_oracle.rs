//! Warm-path oracle: the warm-started revised simplex must be a pure
//! accelerator — same statuses, same objectives (to 1e-9 relative),
//! same certificates as a cold solve — no matter what basis seeds it.
//!
//! This is the warm-start analogue of `engine_oracle.rs`: where that
//! suite pins the two *engines* against each other, this one pins the
//! two *entry paths* of the revised engine against each other across a
//! property-test corpus, plus the two structural guarantees that make
//! warm sweeps worth having:
//!
//! * seeded with the **optimal basis** of the unchanged problem, the
//!   warm solve performs **zero pivots**;
//! * seeded with an arbitrary (feasible-elsewhere, stale, or outright
//!   garbage) basis, it still agrees with the cold solve — the stale
//!   paths fall back to the cold two-phase method by construction.
//!
//! A snapshot exported by a solve carries that solve's factorization,
//! which a warm import reuses when the basis columns are unchanged. The
//! reuse is a memo, so the last tests pin it to be bitwise invisible: a
//! snapshot with its factor, the same snapshot rebuilt from its public
//! parts (what a wire import produces) and a cold solve give identical
//! bits, and an in-place coefficient change is never answered from the
//! stale factor.

use proptest::prelude::*;
use socbuf_lp::{
    verify_optimality, BasisSnapshot, LpEngine, LpError, LpProblem, LpSolution, PreparedLp,
    Relation, Sense, SimplexOptions,
};

#[derive(Debug, Clone, PartialEq)]
enum Status {
    Optimal(f64),
    Infeasible,
    Unbounded,
}

fn status_of(r: Result<socbuf_lp::LpSolution, LpError>) -> Status {
    match r {
        Ok(sol) => Status::Optimal(sol.objective()),
        Err(LpError::Infeasible { .. }) => Status::Infeasible,
        Err(LpError::Unbounded { .. }) => Status::Unbounded,
        Err(e) => panic!("hard solver failure: {e}"),
    }
}

fn assert_status_agree(label: &str, warm: &Status, cold: &Status) {
    match (warm, cold) {
        (Status::Optimal(w), Status::Optimal(c)) => {
            assert!(
                (w - c).abs() <= 1e-9 * (1.0 + c.abs()),
                "{label}: objectives disagree: warm {w} vs cold {c}"
            );
        }
        _ => assert_eq!(warm, cold, "{label}: statuses disagree"),
    }
}

/// Feasible-by-construction template LPs: box-bounded variables, `≤`
/// rows with non-negative rhs (x = 0 feasible, the box bounds the
/// optimum) — the same family `engine_oracle.rs` certifies.
fn feasible_lp() -> impl Strategy<Value = LpProblem> {
    (1usize..=6, 1usize..=7).prop_flat_map(|(n, m)| {
        (
            proptest::collection::vec(-5.0f64..5.0, n),
            proptest::collection::vec(0.5f64..8.0, n),
            proptest::collection::vec(-3.0f64..3.0, n * m),
            proptest::collection::vec(0.0f64..10.0, m),
            proptest::bool::ANY,
        )
            .prop_map(move |(costs, ubs, coeffs, rhs, maximize)| {
                let sense = if maximize {
                    Sense::Maximize
                } else {
                    Sense::Minimize
                };
                let mut p = LpProblem::new(sense);
                let vars: Vec<_> = (0..n)
                    .map(|j| p.add_var_bounded(format!("x{j}"), costs[j], 0.0, Some(ubs[j])))
                    .collect();
                for i in 0..m {
                    let terms: Vec<_> = (0..n).map(|j| (vars[j], coeffs[i * n + j])).collect();
                    p.add_constraint(terms, Relation::Le, rhs[i]).unwrap();
                }
                p
            })
    })
}

/// Mixed-relation LPs where any of the three statuses can come up.
fn mixed_lp() -> impl Strategy<Value = LpProblem> {
    (1usize..=5, 1usize..=6).prop_flat_map(|(n, m)| {
        (
            proptest::collection::vec(-4.0f64..4.0, n),
            proptest::collection::vec(proptest::bool::ANY, n),
            proptest::collection::vec(-3.0f64..3.0, n * m),
            proptest::collection::vec(-6.0f64..6.0, m),
            proptest::collection::vec(0usize..3, m),
        )
            .prop_map(move |(costs, bounded, coeffs, rhs, rels)| {
                let mut p = LpProblem::new(Sense::Minimize);
                let vars: Vec<_> = (0..n)
                    .map(|j| {
                        let ub = if bounded[j] { Some(6.0) } else { None };
                        p.add_var_bounded(format!("x{j}"), costs[j], 0.0, ub)
                    })
                    .collect();
                for i in 0..m {
                    let terms: Vec<_> = (0..n).map(|j| (vars[j], coeffs[i * n + j])).collect();
                    let rel = match rels[i] {
                        0 => Relation::Le,
                        1 => Relation::Ge,
                        _ => Relation::Eq,
                    };
                    p.add_constraint(terms, rel, rhs[i]).unwrap();
                }
                p
            })
    })
}

/// A "random feasible basis" for `p`, manufactured the way warm chains
/// meet them in the wild: the optimal basis of a *neighboring* problem
/// (every rhs scaled by `rhs_scale`). It is a genuine simplex basis,
/// feasible for the scaled problem, and primal-infeasible or merely
/// suboptimal for the original — exactly what the dual repair has to
/// digest. `None` when the neighboring problem has no optimum to
/// export.
fn neighbor_basis(p: &LpProblem, rhs_scale: f64) -> Option<BasisSnapshot> {
    let mut scaled = LpProblem::new(p.sense());
    let vars: Vec<_> = p
        .vars()
        .map(|v| {
            let (lo, up) = p.bounds(v);
            scaled.add_var_bounded(p.var_name(v).to_string(), p.objective_coeff(v), lo, up)
        })
        .collect();
    for r in p.row_ids() {
        let (terms, rel, rhs) = p.row(r);
        let terms: Vec<_> = terms
            .into_iter()
            .map(|(v, c)| (vars[v.index()], c))
            .collect();
        scaled.add_constraint(terms, rel, rhs * rhs_scale).unwrap();
    }
    scaled.solve().ok().map(|sol| sol.basis_snapshot())
}

/// The bits of everything a warm import's factorization feeds: values,
/// duals, reduced costs, and the exported basis.
type Fingerprint = (Vec<u64>, Vec<u64>, Vec<u64>, Vec<usize>);

fn fingerprint(p: &LpProblem, sol: &LpSolution) -> Fingerprint {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let reduced: Vec<f64> = p.vars().map(|v| sol.reduced_cost(v)).collect();
    (
        bits(sol.values()),
        bits(sol.duals()),
        bits(&reduced),
        sol.basis_snapshot().rows().to_vec(),
    )
}

/// The snapshot as a wire import rebuilds it: same rows, no factor.
fn rebuilt(s: &BasisSnapshot) -> BasisSnapshot {
    BasisSnapshot::new(s.rows().to_vec(), s.num_cols(), s.engine())
}

/// Wyndor (max 3x + 5y; x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18) with its third
/// row rewritten in place to 3x + 2.5y ≤ 18: the optimal basis stays
/// the same, but two of its columns change. A warm solve from the old
/// snapshot must refactor — the stale factor would answer x = 2 — and
/// then match a cold solve bit for bit at the new vertex (1, 6).
#[test]
fn coefficient_update_is_never_answered_from_the_stale_factor() {
    let mut p = LpProblem::new(Sense::Maximize);
    let x = p.add_var("x", 3.0);
    let y = p.add_var("y", 5.0);
    p.add_constraint([(x, 1.0)], Relation::Le, 4.0).unwrap();
    p.add_constraint([(y, 2.0)], Relation::Le, 12.0).unwrap();
    let row = p
        .add_constraint([(x, 3.0), (y, 2.0)], Relation::Le, 18.0)
        .unwrap();
    let mut prepared = PreparedLp::new(p).unwrap();
    let opts = SimplexOptions::default();
    let snapshot = prepared.solve_with(&opts).unwrap().basis_snapshot();

    prepared.set_row_coeffs(row, &[(x, 3.0), (y, 2.5)]).unwrap();
    let warm = prepared.solve_warm(&opts, &snapshot).unwrap();
    let cold = prepared.solve_with(&opts).unwrap();
    assert_eq!(warm.iterations(), 0, "the old basis stays optimal");
    assert!((warm.value(x) - 1.0).abs() < 1e-12, "x = {}", warm.value(x));
    assert!((warm.value(y) - 6.0).abs() < 1e-12, "y = {}", warm.value(y));
    assert_eq!(
        fingerprint(prepared.problem(), &warm),
        fingerprint(prepared.problem(), &cold)
    );
    assert_eq!(
        fingerprint(prepared.problem(), &warm),
        fingerprint(
            prepared.problem(),
            &prepared.solve_warm(&opts, &rebuilt(&snapshot)).unwrap()
        )
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Reusing the snapshot's factor is bitwise invisible: seeded by the
    /// snapshot with its factor, by the same snapshot rebuilt from its
    /// parts, or not at all (cold), the re-solve of an unchanged problem
    /// gives identical values, duals, reduced costs and basis. After a
    /// right-hand-side move the two warm solves still agree bit for bit
    /// and match cold's objective.
    #[test]
    fn factor_reuse_is_bitwise_invisible(
        p in feasible_lp(),
        scale_sel in 0usize..3,
    ) {
        let mut prepared = PreparedLp::new(p).unwrap();
        let opts = SimplexOptions::default();
        let seed = prepared.solve_with(&opts).unwrap().basis_snapshot();
        let carried = prepared.solve_warm(&opts, &seed).unwrap();
        let from_parts = prepared.solve_warm(&opts, &rebuilt(&seed)).unwrap();
        let cold = prepared.solve_with(&opts).unwrap();
        let want = fingerprint(prepared.problem(), &carried);
        prop_assert_eq!(&want, &fingerprint(prepared.problem(), &from_parts));
        prop_assert_eq!(&want, &fingerprint(prepared.problem(), &cold));

        let scale = [0.5, 0.9, 1.5][scale_sel];
        let rows: Vec<_> = prepared.problem().row_ids().collect();
        for r in rows {
            let (_, _, rhs) = prepared.problem().row(r);
            prepared.set_rhs(r, rhs * scale).unwrap();
        }
        let carried = prepared.solve_warm(&opts, &seed).unwrap();
        let from_parts = prepared.solve_warm(&opts, &rebuilt(&seed)).unwrap();
        let cold = prepared.solve_with(&opts).unwrap();
        prop_assert_eq!(
            fingerprint(prepared.problem(), &carried),
            fingerprint(prepared.problem(), &from_parts)
        );
        prop_assert!(
            (carried.objective() - cold.objective()).abs()
                <= 1e-9 * (1.0 + cold.objective().abs()),
            "warm {} vs cold {}", carried.objective(), cold.objective()
        );
    }

    /// Re-solving an unchanged feasible LP from its own optimal basis
    /// is free: zero pivots, identical answers, full certificate.
    #[test]
    fn optimal_basis_resolves_in_zero_pivots(p in feasible_lp()) {
        let prepared = PreparedLp::new(p).unwrap();
        let opts = SimplexOptions::default();
        let cold = prepared.solve_with(&opts).unwrap();
        let warm = prepared.solve_warm(&opts, &cold.basis_snapshot()).unwrap();
        prop_assert_eq!(warm.iterations(), 0, "warm re-solve pivoted");
        prop_assert!(
            (warm.objective() - cold.objective()).abs()
                <= 1e-9 * (1.0 + cold.objective().abs())
        );
        let report = verify_optimality(prepared.problem(), &warm, 1e-5);
        prop_assert!(report.is_optimal(), "certificate failed: {report:?}");
    }

    /// Seeded with a feasible-for-a-neighbor basis (the warm-chain
    /// case), the warm solve agrees with cold in status and objective
    /// and its solution passes the full 4-part certificate.
    #[test]
    fn neighbor_basis_agrees_with_cold(
        p in feasible_lp(),
        scale_sel in 0usize..4,
    ) {
        let scale = [0.25, 0.5, 2.0, 4.0][scale_sel];
        let Some(snapshot) = neighbor_basis(&p, scale) else { return };
        let prepared = PreparedLp::new(p).unwrap();
        let opts = SimplexOptions::default();
        let warm = prepared.solve_warm(&opts, &snapshot).unwrap();
        let cold = prepared.solve_with(&opts).unwrap();
        prop_assert!(
            (warm.objective() - cold.objective()).abs()
                <= 1e-9 * (1.0 + cold.objective().abs()),
            "warm {} vs cold {}", warm.objective(), cold.objective()
        );
        let report = verify_optimality(prepared.problem(), &warm, 1e-5);
        prop_assert!(report.is_optimal(), "certificate failed: {report:?}");
    }

    /// Garbage snapshots — wrong shape, shuffled/duplicated columns,
    /// all-redundant markers — must route to the cold fallback and
    /// change nothing about the answer.
    #[test]
    fn garbage_snapshots_fall_back_to_cold(
        p in feasible_lp(),
        kind in 0usize..4,
        offset in 0usize..7,
    ) {
        let prepared = PreparedLp::new(p).unwrap();
        let opts = SimplexOptions::default();
        let cold = prepared.solve_with(&opts).unwrap();
        let good = cold.basis_snapshot();
        let (m, cols) = (good.num_rows(), good.num_cols());
        let snapshot = match kind {
            0 => BasisSnapshot::new(vec![0; m + 1], cols, LpEngine::Revised),
            1 => BasisSnapshot::new(vec![offset % cols.max(1); m], cols, LpEngine::Revised),
            2 => BasisSnapshot::new(
                (0..m).map(|i| (i * 31 + offset) % (cols + m)).collect(),
                cols,
                LpEngine::Revised,
            ),
            _ => BasisSnapshot::new(vec![usize::MAX; m], cols, LpEngine::Revised),
        };
        let warm = prepared.solve_warm(&opts, &snapshot).unwrap();
        prop_assert!(
            (warm.objective() - cold.objective()).abs()
                <= 1e-9 * (1.0 + cold.objective().abs()),
            "warm {} vs cold {}", warm.objective(), cold.objective()
        );
    }

    /// On the anything-goes corpus the warm path must reproduce cold's
    /// *status* exactly — an infeasible or unbounded problem must not
    /// become "optimal" because a stale basis short-circuited a phase.
    #[test]
    fn warm_statuses_agree_on_mixed_lps(
        p in mixed_lp(),
        scale_sel in 0usize..3,
    ) {
        let scale = [0.5, 1.0, 3.0][scale_sel];
        let snapshot = neighbor_basis(&p, scale);
        let prepared = PreparedLp::new(p).unwrap();
        let opts = SimplexOptions::default();
        let cold = status_of(prepared.solve_with(&opts));
        let warm = match &snapshot {
            Some(s) => status_of(prepared.solve_warm(&opts, s)),
            None => return,
        };
        assert_status_agree("mixed corpus", &warm, &cold);
    }
}

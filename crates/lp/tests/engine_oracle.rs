//! Cross-solver oracle: every selectable engine — the sparse revised
//! simplex, the dense tableau engine, and the block-angular decomposed
//! path — must be interchangeable. The suite iterates [`LpEngine::ALL`]
//! so future backends are certified by the same corpus automatically.
//!
//! Both engines receive the identical CSR standard form and (when
//! enabled) the identical deterministic rhs perturbation, so they solve
//! the *same* LP; the optimal objective value of an LP is unique even
//! when the optimal vertex is not, which is what makes a tight (1e-9
//! relative) objective comparison sound. Status must agree exactly:
//! optimal vs infeasible vs unbounded.
//!
//! The corpus: property-test-generated random LPs in three flavours
//! (feasible-by-construction, mixed-relation with all three outcomes
//! possible, and massively degenerate), plus the named pathologies —
//! Beale's cycling LP, the Klee–Minty cube and an unbounded ray.
//!
//! Every optimal solution on the way is also held to the optimality
//! certificate, and its duals and reduced costs to an independent dense
//! recovery from its own final basis (`support/dense_duals.rs`).

#[path = "support/dense_duals.rs"]
mod dense_duals;

use dense_duals::assert_duals_match_dense;
use proptest::prelude::*;
use socbuf_lp::{
    verify_optimality, LpEngine, LpError, LpProblem, LpSolution, Relation, Sense, SimplexOptions,
};

/// Outcome of one engine run, reduced to what the oracle compares.
#[derive(Debug, Clone, PartialEq)]
enum Status {
    Optimal(f64),
    Infeasible,
    Unbounded,
}

fn run(p: &LpProblem, engine: LpEngine) -> Result<Status, LpError> {
    match p.solve_with(&SimplexOptions::default().with_engine(engine)) {
        Ok(sol) => {
            assert_optimal_solution(&engine.to_string(), p, &sol);
            Ok(Status::Optimal(sol.objective()))
        }
        Err(LpError::Infeasible { .. }) => Ok(Status::Infeasible),
        Err(LpError::Unbounded { .. }) => Ok(Status::Unbounded),
        Err(e) => Err(e),
    }
}

/// An optimal solution's duals and reduced costs match the dense
/// recovery from its final basis to 1e-9 relative, and it passes the
/// optimality certificate.
fn assert_optimal_solution(label: &str, p: &LpProblem, sol: &LpSolution) {
    assert_duals_match_dense(label, p, sol, 1e-9);
    let report = verify_optimality(p, sol, 1e-5);
    assert!(
        report.is_optimal(),
        "{label} failed certificate: {report:?}"
    );
}

/// Asserts every selectable engine ([`LpEngine::ALL`]) agrees on
/// status, and on the objective to 1e-9 (relative) when optimal — a new
/// backend added to `ALL` is certified by this whole corpus
/// automatically. Returns the shared status.
fn assert_engines_agree(p: &LpProblem) -> Status {
    let mut engines = LpEngine::ALL.iter();
    let first_engine = *engines.next().expect("at least one engine");
    let reference = run(p, first_engine).expect("reference engine hard failure");
    for &engine in engines {
        let status = run(p, engine).expect("engine hard failure");
        match (&reference, &status) {
            (Status::Optimal(a), Status::Optimal(b)) => {
                assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                    "objectives disagree: {first_engine} {a} vs {engine} {b}"
                );
            }
            _ => assert_eq!(
                reference, status,
                "statuses disagree: {first_engine} vs {engine}"
            ),
        }
    }
    reference
}

// ---------------------------------------------------------------------
// Named pathologies.
// ---------------------------------------------------------------------

#[test]
fn beale_cycling_lp_agrees() {
    // Beale's cycling example: Dantzig pricing cycles without the
    // anti-stall rule; both engines must terminate at −0.05.
    let mut p = LpProblem::new(Sense::Minimize);
    let x1 = p.add_var("x1", -0.75);
    let x2 = p.add_var("x2", 150.0);
    let x3 = p.add_var("x3", -0.02);
    let x4 = p.add_var("x4", 6.0);
    p.add_constraint(
        [(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
        Relation::Le,
        0.0,
    )
    .unwrap();
    p.add_constraint(
        [(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
        Relation::Le,
        0.0,
    )
    .unwrap();
    p.add_constraint([(x3, 1.0)], Relation::Le, 1.0).unwrap();
    match assert_engines_agree(&p) {
        Status::Optimal(obj) => assert!((obj - (-0.05)).abs() < 1e-9, "objective {obj}"),
        other => panic!("expected optimal, got {other:?}"),
    }
}

#[test]
fn unbounded_ray_agrees() {
    // max x with x − y ≤ 5: the ray (t, t) is feasible for all t.
    let mut p = LpProblem::new(Sense::Maximize);
    let x = p.add_var("x", 1.0);
    let y = p.add_var("y", 0.0);
    p.add_constraint([(x, 1.0), (y, -1.0)], Relation::Le, 5.0)
        .unwrap();
    assert_eq!(assert_engines_agree(&p), Status::Unbounded);
}

#[test]
fn infeasible_system_agrees() {
    let mut p = LpProblem::new(Sense::Minimize);
    let x = p.add_var("x", 1.0);
    p.add_constraint([(x, 1.0)], Relation::Le, 1.0).unwrap();
    p.add_constraint([(x, 1.0)], Relation::Ge, 3.0).unwrap();
    assert_eq!(assert_engines_agree(&p), Status::Infeasible);
}

#[test]
fn klee_minty_cube_agrees() {
    // Worst case for Dantzig pricing — 2^n vertices on the path.
    let mut p = LpProblem::new(Sense::Maximize);
    let x1 = p.add_var("x1", 100.0);
    let x2 = p.add_var("x2", 10.0);
    let x3 = p.add_var("x3", 1.0);
    p.add_constraint([(x1, 1.0)], Relation::Le, 1.0).unwrap();
    p.add_constraint([(x1, 20.0), (x2, 1.0)], Relation::Le, 100.0)
        .unwrap();
    p.add_constraint([(x1, 200.0), (x2, 20.0), (x3, 1.0)], Relation::Le, 10_000.0)
        .unwrap();
    match assert_engines_agree(&p) {
        Status::Optimal(obj) => assert!((obj - 10_000.0).abs() < 1e-4),
        other => panic!("expected optimal, got {other:?}"),
    }
}

#[test]
fn perturbed_runs_still_agree() {
    // With perturbation on, both engines perturb the rhs with the SAME
    // deterministic formula — still the same LP, still one objective.
    let mut p = LpProblem::new(Sense::Minimize);
    let x = p.add_var("x", 1.0);
    let y = p.add_var("y", 2.0);
    let z = p.add_var("z", 0.5);
    p.add_constraint([(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Eq, 1.0)
        .unwrap();
    p.add_constraint([(x, 1.0), (y, -1.0)], Relation::Eq, 0.0)
        .unwrap();
    let opts = SimplexOptions {
        perturbation: 1e-6,
        ..SimplexOptions::default()
    };
    let a = p.solve_with(&opts).unwrap();
    for engine in LpEngine::ALL {
        let b = p.solve_with(&opts.with_engine(engine)).unwrap();
        assert_optimal_solution(&format!("perturbed {engine}"), &p, &b);
        assert!(
            (a.objective() - b.objective()).abs() <= 1e-9 * (1.0 + a.objective().abs()),
            "revised {} vs {engine} {}",
            a.objective(),
            b.objective()
        );
    }
}

#[test]
fn redundant_row_gets_an_exact_zero_dual() {
    // A duplicated equality leaves one copy inactive: the engines report
    // its dual as exactly 0 and put the whole multiplier (1, the cost
    // of the basic `u`) on the other copy, and the dense recovery (which
    // drops the inactive copy) agrees with the rest.
    let mut p = LpProblem::new(Sense::Minimize);
    let u = p.add_var("u", 1.0);
    let v = p.add_var_bounded("v", 3.0, 0.0, Some(5.0));
    let copies: Vec<_> = (0..2)
        .map(|_| {
            p.add_constraint([(u, 1.0), (v, 1.0)], Relation::Eq, 2.0)
                .unwrap()
        })
        .collect();
    p.add_constraint([(v, 1.0)], Relation::Ge, 0.5).unwrap();
    assert_eq!(assert_engines_agree(&p), Status::Optimal(3.0));
    for engine in LpEngine::ALL {
        let sol = p
            .solve_with(&SimplexOptions::default().with_engine(engine))
            .unwrap();
        let inactive: Vec<_> = copies
            .iter()
            .filter(|r| sol.basis_snapshot().rows()[r.index()] == usize::MAX)
            .collect();
        assert_eq!(inactive.len(), 1, "{engine}: one copy must be inactive");
        let active = copies.iter().find(|r| !inactive.contains(r)).unwrap();
        assert_eq!(
            sol.dual(*inactive[0]),
            0.0,
            "{engine}: the inactive copy must carry a dual of exactly 0: {:?}",
            sol.duals()
        );
        assert!((sol.dual(*active) - 1.0).abs() < 1e-12, "{:?}", sol.duals());
    }
}

// ---------------------------------------------------------------------
// Property-test corpus.
// ---------------------------------------------------------------------

/// Feasible by construction: box-bounded variables, `≤` rows with
/// non-negative rhs (x = 0 always feasible, box keeps it bounded).
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

/// Anything goes: mixed relations, no upper bounds on some variables —
/// any of the three statuses can (and does) come up.
fn mixed_lp() -> impl Strategy<Value = LpProblem> {
    (1usize..=5, 1usize..=6).prop_flat_map(|(n, m)| {
        (
            proptest::collection::vec(-4.0f64..4.0, n),
            proptest::collection::vec(proptest::bool::ANY, n), // bounded?
            proptest::collection::vec(-3.0f64..3.0, n * m),
            proptest::collection::vec(-6.0f64..6.0, m),
            proptest::collection::vec(0usize..3, m), // relation selector
            proptest::bool::ANY,
        )
            .prop_map(move |(costs, bounded, coeffs, rhs, rels, maximize)| {
                let sense = if maximize {
                    Sense::Maximize
                } else {
                    Sense::Minimize
                };
                let mut p = LpProblem::new(sense);
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

/// Massively degenerate: occupation-measure-shaped equality systems
/// with zero right-hand sides, duplicated rows and a normalization —
/// the shape that historically made the solvers stall or cycle.
fn degenerate_lp() -> impl Strategy<Value = LpProblem> {
    (2usize..=5, 1usize..=3).prop_flat_map(|(n, dup)| {
        (
            proptest::collection::vec(0.0f64..3.0, n),
            proptest::collection::vec(0.1f64..4.0, n),
        )
            .prop_map(move |(costs, rates)| {
                let mut p = LpProblem::new(Sense::Minimize);
                let vars: Vec<_> = (0..n)
                    .map(|j| p.add_var(format!("x{j}"), costs[j]))
                    .collect();
                // Zero-rhs "balance" rows between consecutive variables,
                // each stated `dup` times (duplicates = redundant rows).
                for _ in 0..dup {
                    for j in 0..n - 1 {
                        p.add_constraint(
                            [(vars[j], rates[j]), (vars[j + 1], -rates[j + 1])],
                            Relation::Eq,
                            0.0,
                        )
                        .unwrap();
                    }
                }
                // Normalization keeps it bounded and feasible.
                let all: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
                p.add_constraint(all, Relation::Eq, 1.0).unwrap();
                p
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engines_agree_on_feasible_lps(p in feasible_lp()) {
        // x = 0 is feasible and the box bounds the optimum: both
        // engines must return Optimal and match to 1e-9.
        match assert_engines_agree(&p) {
            Status::Optimal(_) => {}
            other => prop_assert!(false, "expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn engines_agree_on_mixed_lps(p in mixed_lp()) {
        assert_engines_agree(&p);
    }

    #[test]
    fn engines_agree_on_degenerate_lps(p in degenerate_lp()) {
        let status = assert_engines_agree(&p);
        match status {
            Status::Optimal(_) => {}
            other => prop_assert!(false, "degenerate corpus is feasible, got {other:?}"),
        }
    }

    #[test]
    fn optimal_solutions_carry_full_certificates(p in feasible_lp()) {
        // Beyond agreeing with each other, each engine's solution must
        // pass the independent KKT + duality-gap certificate.
        for engine in LpEngine::ALL {
            let sol = p.solve_with(&SimplexOptions::default().with_engine(engine)).unwrap();
            let report = verify_optimality(&p, &sol, 1e-5);
            prop_assert!(report.is_optimal(), "{engine} failed certificate: {report:?}");
        }
    }
}

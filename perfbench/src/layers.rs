//! Replays of one sized point through the LP-side layers, used by
//! every workload's traced run: the point decomposed into build →
//! prepare → cold solve → warm floor → translate, and a warm chain of
//! points through `SolveContext`.

use socbuf::lp::{LpError, PreparedLp, SimplexOptions};
use socbuf::sizing::translate::translate;
use socbuf::sizing::{SizingConfig, SizingLp, SolveContext};
use socbuf::soc::Architecture;

use crate::trace::{Span, Trace, Tracer};
use crate::util::median;
use crate::{Outcome, Reading};

/// The options of the first rung of the pipeline's solve ladder — the
/// rung every solve of the measured workloads succeeds on.
fn first_rung(config: &SizingConfig) -> SimplexOptions {
    SimplexOptions {
        perturbation: 1e-6,
        max_iterations: 30_000,
        engine: config.engine,
        equilibrate: config.equilibrate,
        executor: config.executor.clone(),
        ..SimplexOptions::default()
    }
}

/// Pivot counts of one decomposed point.
pub struct Decomposed {
    pub cold_pivots: usize,
}

/// Sizes one point call by call, a span around each call. `None` when
/// the budget row makes the LP infeasible: the pipeline then relaxes the
/// row and solves a different problem, which is not decomposed here.
pub fn decompose(
    tr: &mut Tracer,
    id: u64,
    arch: &Architecture,
    budget: usize,
    config: &SizingConfig,
) -> Result<Option<Decomposed>, String> {
    let opts = first_rung(config);
    // Probe feasibility untraced, so every recorded decomposition is a
    // complete one.
    let lp = SizingLp::build(arch, budget, config).map_err(|e| e.to_string())?;
    match lp.problem().solve_with(&opts) {
        Err(LpError::Infeasible { .. }) => return Ok(None),
        Err(e) => return Err(e.to_string()),
        Ok(_) => {}
    }
    let lp = tr
        .span("core.formulation.build", id, || {
            SizingLp::build(arch, budget, config)
        })
        .map_err(|e| e.to_string())?;
    let problem = lp.problem().clone();
    let prepared = tr
        .span("lp.prepare", id, || {
            PreparedLp::new_with_scaling(problem, config.equilibrate)
        })
        .map_err(|e| e.to_string())?;
    let cold = tr
        .span("lp.cold_solve", id, || prepared.solve_with(&opts))
        .map_err(|e| e.to_string())?;
    let snapshot = cold.basis_snapshot();
    // The warm floor: a re-solve from the solve's own optimal basis
    // pivots 0 times, so it costs refactorisation, pricing and dual
    // recovery only.
    tr.span("lp.warm_floor", id, || {
        prepared.solve_warm(&opts, &snapshot)
    })
    .map_err(|e| e.to_string())?;
    // The translation input, solved outside any span.
    let solution = lp.solve_with_options(&opts).map_err(|e| e.to_string())?;
    tr.span("core.translate", id, || {
        translate(arch, &solution, budget, config)
    })
    .map_err(|e| e.to_string())?;
    Ok(Some(Decomposed {
        cold_pivots: cold.iterations(),
    }))
}

/// Sizes `budgets` along one warm chain; returns the pivots of each
/// point (the first is the chain's cold opening).
pub fn chain(
    tr: &mut Tracer,
    id: u64,
    arch: &Architecture,
    config: &SizingConfig,
    budgets: &[usize],
) -> Result<Vec<usize>, String> {
    let mut ctx = SolveContext::new(arch, config);
    let mut pivots = Vec::with_capacity(budgets.len());
    for (i, &budget) in budgets.iter().enumerate() {
        let name = if i == 0 {
            "core.pipeline.chain_open"
        } else {
            "core.pipeline.warm_point"
        };
        let out = tr
            .span(name, id, || ctx.size_buffers(budget))
            .map_err(|e| e.to_string())?;
        pivots.push(out.lp_iterations);
    }
    Ok(pivots)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Fills the LP-side per-layer metrics from a replay's spans.
/// `warm_pivots` holds the pivots of each warm (non-opening) point.
pub fn fill(out: &mut Outcome, trace: &Trace, cold_pivots: &[f64], warm_pivots: &[f64]) {
    let med = |name: &str| median(&trace.durations_us(name));
    out.set(
        "core.formulation.build_us",
        Reading::one(med("core.formulation.build")),
    );
    out.set("lp.prepare_us", Reading::one(med("lp.prepare")));
    out.set("lp.cold_solve_us", Reading::one(med("lp.cold_solve")));
    out.set("lp.warm_floor_us", Reading::one(med("lp.warm_floor")));
    out.set(
        "core.translate.translate_us",
        Reading::one(med("core.translate")),
    );
    out.set(
        "core.pipeline.warm_point_us",
        Reading::one(med("core.pipeline.warm_point")),
    );
    let cold = mean(cold_pivots);
    let warm = mean(warm_pivots);
    out.set("lp.cold_pivots", Reading::one(cold));
    out.set("core.pipeline.warm_pivots_per_point", Reading::one(warm));
    out.set(
        "lp.warm_pivot_ratio",
        Reading::one(if cold > 0.0 { warm / cold } else { 0.0 }),
    );
}

/// Render and accounting metrics of a traced batch of campaigns, each
/// given as (points, spans): a campaign root span whose children are
/// the renderer's per-point spans and its closing `finish`.
pub fn fill_render(out: &mut Outcome, campaigns: Vec<(usize, Vec<Span>)>, wall: f64) {
    let mut trace = Trace::default();
    let mut points = 0;
    for (n, spans) in campaigns {
        points += n;
        trace.absorb(0, spans);
    }
    let sum = |name: &str| trace.durations_us(name).iter().sum::<f64>();
    let render = sum("sweep.stream.render") + sum("sweep.stream.finish");
    out.set(
        "sweep.stream.render_us_per_point",
        Reading::one(render / points.max(1) as f64),
    );
    let accounted: f64 = trace.self_us().iter().sum();
    out.set(
        "trace.accounted_share",
        Reading::one(accounted / (wall * 1e6)),
    );
    out.spans.append(trace);
}

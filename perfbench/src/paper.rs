//! `paper_eval`: the paper's evaluation loop as a simulating
//! `BudgetSweep::run_sink` on a `WorkPool(2)` — 10 replications,
//! horizon 1000, three policies per point.
//!
//! A campaign sweeps the network processor at Table-1-scale budgets
//! (a seeded ±40 walk in 160..=640) and one extended-semantics
//! architecture (priority and locked buses, a burst source, bridge
//! latency), on which `SimEngine::Auto` runs the actor engine. The
//! client submits campaigns back to back; a campaign is the "request"
//! whose latency `rtt_*` reports.

use std::io;
use std::time::Instant;

use socbuf::sim::{
    replication_config, simulate_actors_with, simulate_with, Arbiter, SimConfig, SimReport,
};
use socbuf::sizing::{
    evaluate_policies_sized, PipelineConfig, SerialPool, SizingConfig, SolveContext,
};
use socbuf::soc::templates;
use socbuf::soc::{Architecture, ArchitectureBuilder, BusArbitration, FlowTarget, TrafficShape};
use socbuf::sweep::WARM_CHUNK;
use socbuf::sweep::{BudgetSweep, PointSink, ReportStream, SweepKind, SweepPoint, WorkPool};

use crate::layers;
use crate::trace::{Timed, Trace, Tracer};
use crate::util::{median, peak_rss_mb, secs, Rng};
use crate::{batch_rate, Opts, Outcome, Reading};

const WORKERS: usize = 2;
/// Budgets per sweep: two warm chains, one per worker.
const POINTS: usize = 2 * WARM_CHUNK;
const SETUPS: usize = 3;
/// Campaigns with one point recomputed serially for the check.
const CHECK_CAMPAIGNS: usize = 2;

/// Two buses with extended arbitration, a bursty and an on/off source
/// and a bridge with forwarding latency: only the actor engine can
/// simulate it.
fn extended_arch() -> Result<Architecture, String> {
    let e = |e: socbuf::soc::SocError| e.to_string();
    let mut b = ArchitectureBuilder::new();
    let x = b
        .add_bus_with_arbitration("x", 4.0, BusArbitration::Priority)
        .map_err(e)?;
    let y = b
        .add_bus_with_arbitration("y", 4.0, BusArbitration::Locked { max_batch: 4 })
        .map_err(e)?;
    let p = b.add_processor("p", &[x], 1.0).map_err(e)?;
    let q = b.add_processor("q", &[x], 1.0).map_err(e)?;
    let r = b.add_processor("r", &[y], 1.0).map_err(e)?;
    b.add_bridge_with_latency("g", x, y, 0.25).map_err(e)?;
    b.add_flow_shaped(
        p,
        FlowTarget::Processor(r),
        0.8,
        TrafficShape::Burst { batch: 4 },
    )
    .map_err(e)?;
    b.add_flow(q, FlowTarget::Bus(x), 0.7).map_err(e)?;
    b.add_flow_shaped(
        r,
        FlowTarget::Bus(y),
        0.5,
        TrafficShape::OnOff {
            mean_on: 2.0,
            mean_off: 6.0,
        },
    )
    .map_err(e)?;
    b.build().map_err(e)
}

struct Sweep {
    arch: Architecture,
    lo: usize,
    hi: usize,
    step: usize,
}

impl Sweep {
    /// A seeded reflecting walk of [`POINTS`] budgets.
    fn budgets(&self, rng: &mut Rng, points: usize) -> Vec<usize> {
        let span = (self.hi - self.lo) / self.step;
        let mut b = self.lo + self.step * rng.below(span + 1);
        (0..points)
            .map(|_| {
                let here = b;
                b = if b + self.step > self.hi {
                    b - self.step
                } else if b < self.lo + self.step || rng.below(2) == 0 {
                    b + self.step
                } else {
                    b - self.step
                };
                here
            })
            .collect()
    }
}

/// Keeps what the checks need from the points streaming past.
struct Keep<S> {
    inner: S,
    /// (budget, allocation total) of every point.
    totals: Vec<(usize, usize)>,
    /// The point to recompute serially, once it has passed.
    want: Option<usize>,
    kept: Option<SweepPoint>,
}

impl<S: PointSink> PointSink for Keep<S> {
    fn accept(&mut self, point: SweepPoint) -> io::Result<()> {
        self.totals
            .push((point.budget, point.allocation.iter().sum()));
        if self.want == Some(point.index) {
            self.kept = Some(point.clone());
        }
        self.inner.accept(point)
    }
}

struct Campaign {
    wall: f64,
    points: usize,
    totals: Vec<(usize, usize)>,
    /// (sweep, budgets, kept point) per sweep with a sampled point.
    kept: Vec<(usize, Vec<usize>, SweepPoint)>,
    peak_parked: usize,
    peak_frontier: usize,
    spans: Vec<crate::trace::Span>,
}

struct Eval {
    sweeps: Vec<Sweep>,
    pipeline: PipelineConfig,
    pool: WorkPool,
    points: usize,
}

impl Eval {
    fn campaign(
        &self,
        rng: &mut Rng,
        k: usize,
        want: Option<(usize, usize)>,
        tracer: Tracer,
    ) -> Result<Campaign, String> {
        let mut tr = tracer;
        let mut c = Campaign {
            wall: 0.0,
            points: 0,
            totals: Vec::new(),
            kept: Vec::new(),
            peak_parked: 0,
            peak_frontier: 0,
            spans: Vec::new(),
        };
        let budgets: Vec<Vec<usize>> = self
            .sweeps
            .iter()
            .map(|s| s.budgets(rng, self.points))
            .collect();
        tr.begin("core.pipeline.campaign", k as u64);
        let t = Instant::now();
        for (s, (sweep, budgets)) in self.sweeps.iter().zip(&budgets).enumerate() {
            let mut plan = BudgetSweep::new(&sweep.arch, budgets.clone());
            plan.sizing = self.pipeline.sizing.clone();
            plan.simulate = Some(self.pipeline.clone());
            let stream = ReportStream::csv(SweepKind::Budget, io::sink());
            let mut sink = Keep {
                inner: Timed { inner: stream, tr },
                totals: Vec::new(),
                want: want.filter(|w| w.0 == s).map(|w| w.1),
                kept: None,
            };
            let run = plan
                .run_sink(&self.pool, &mut sink)
                .map_err(|e| format!("campaign {k} sweep {s}: {e}"))?;
            let Keep {
                inner: Timed { inner, tr: back },
                totals,
                kept,
                ..
            } = sink;
            tr = back;
            tr.begin("sweep.stream.finish", k as u64);
            let (_, summary) = inner.finish().map_err(|e| format!("render: {e}"))?;
            tr.end();
            c.points += budgets.len();
            c.totals.extend(totals);
            if let Some(p) = kept {
                c.kept.push((s, budgets.clone(), p));
            }
            c.peak_parked = c.peak_parked.max(run.peak_parked_chunks);
            c.peak_frontier = c.peak_frontier.max(summary.peak_frontier_classes);
        }
        c.wall = secs(t);
        tr.end();
        c.spans = tr.into_spans();
        Ok(c)
    }

    /// Campaigns back to back until `seconds` have passed (at least one).
    fn batch(
        &self,
        rng: &mut Rng,
        first: usize,
        seconds: f64,
        wants: &[(usize, usize)],
        trace: bool,
        epoch: Instant,
    ) -> Result<Vec<Campaign>, String> {
        let t = Instant::now();
        let mut out = Vec::new();
        while out.is_empty() || secs(t) < seconds {
            let k = first + out.len();
            let want = wants.get(k).copied();
            out.push(self.campaign(rng, k, want, Tracer::new(epoch, trace))?);
        }
        Ok(out)
    }
}

fn sizes(cs: &[Campaign]) -> Vec<(usize, f64)> {
    cs.iter().map(|c| (c.points, c.wall)).collect()
}

fn pipeline(smoke: bool) -> PipelineConfig {
    if smoke {
        PipelineConfig {
            horizon: 200.0,
            warmup: 20.0,
            replications: 2,
            sizing: SizingConfig::small(),
            ..PipelineConfig::default()
        }
    } else {
        // The paper's configuration: 10 replications, horizon 1000.
        PipelineConfig {
            horizon: 1000.0,
            warmup: 100.0,
            seed: 2005,
            replications: 10,
            ..PipelineConfig::default()
        }
    }
}

/// Set-up: architectures, the pool, and one untimed point sized and
/// simulated, which fills caches and the allocator.
fn set_up(smoke: bool) -> Result<Eval, String> {
    let pipeline = pipeline(smoke);
    let sweeps = vec![
        Sweep {
            arch: templates::network_processor(),
            lo: 160,
            hi: 640,
            step: 40,
        },
        Sweep {
            arch: extended_arch()?,
            lo: 8,
            hi: 32,
            step: 4,
        },
    ];
    let mut ctx = SolveContext::new(&sweeps[0].arch, &pipeline.sizing);
    let outcome = ctx.size_buffers(320).map_err(|e| e.to_string())?;
    evaluate_policies_sized(&sweeps[0].arch, 320, &pipeline, outcome, &SerialPool)
        .map_err(|e| e.to_string())?;
    Ok(Eval {
        sweeps,
        pipeline,
        pool: WorkPool::new(WORKERS),
        points: if smoke { WARM_CHUNK } else { POINTS },
    })
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let root = Rng::new(opts.seed);
    let epoch = Instant::now();
    let setups = if opts.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut eval = None;
    for _ in 0..setups {
        let t = Instant::now();
        eval = Some(set_up(opts.smoke)?);
        setup_s.push(secs(t));
    }
    let eval = eval.expect("at least one set-up");

    let mut pick = root.fork(2);
    let wants: Vec<(usize, usize)> = (0..CHECK_CAMPAIGNS)
        .map(|k| (k % eval.sweeps.len(), pick.below(eval.points)))
        .collect();
    let mut rng = root.fork(1);
    let mut out = Outcome::default();
    let campaigns = if opts.trace {
        let half = opts.seconds / 2.0;
        let plain = eval.batch(&mut rng, 0, half, &wants, false, epoch)?;
        let t = Instant::now();
        let traced = eval.batch(&mut rng, plain.len(), half, &wants, true, epoch)?;
        let wall = secs(t);
        out.set(
            "trace.overhead_share",
            Reading::one(batch_rate(&sizes(&plain)) / batch_rate(&sizes(&traced)) - 1.0),
        );
        campaign_metrics(&mut out, &traced, wall);
        let sampled: Vec<_> = plain.iter().flat_map(|c| c.kept.iter().cloned()).collect();
        replay(&mut out, &eval, &sampled, epoch)?;
        let mut all = plain;
        all.extend(traced);
        all
    } else {
        let cs = eval.batch(&mut rng, 0, opts.seconds, &wants, false, epoch)?;
        out.set("peak_rss_mb", Reading::one(peak_rss_mb()));
        out.set_campaigns(&sizes(&cs));
        out.set("setup_s", Reading::median_of(setup_s));
        cs
    };
    check(&mut out, &eval, &campaigns)?;
    Ok(out)
}

/// Offered = delivered + lost + in flight, to rounding.
fn conserves(r: &SimReport) -> bool {
    let residual = r.total_offered - r.total_delivered - r.total_lost - r.in_flight;
    residual.abs() <= 1e-9 * r.total_offered.max(1.0) && r.in_flight >= 0.0
}

/// Output checks, outside the timed section: every allocation totals
/// its budget, and sampled points recomputed serially are
/// bit-identical, with every `SimReport` conserving requests.
fn check(out: &mut Outcome, eval: &Eval, campaigns: &[Campaign]) -> Result<(), String> {
    let mut attempted = 0;
    let mut wrong_totals = 0;
    for c in campaigns {
        attempted += c.points;
        wrong_totals += c.totals.iter().filter(|(b, t)| b != t).count();
        wrong_totals += c.points - c.totals.len();
    }
    out.check(
        "allocations_total_their_budget",
        wrong_totals == 0,
        format!("{wrong_totals} of {attempted} points miss their budget"),
    );
    let mut differ = 0;
    let mut broken = 0;
    let mut recomputed = 0;
    for c in campaigns {
        for (s, budgets, point) in &c.kept {
            recomputed += 1;
            let (again, reports) = recompute(eval, *s, budgets, point.index)?;
            let same = again.allocation == point.allocation
                && again.predicted_loss.to_bits() == point.predicted_loss.to_bits()
                && again.shadow_price.to_bits() == point.shadow_price.to_bits()
                && again.sim.as_ref().map(|s| {
                    [
                        s.pre_loss,
                        s.post_loss,
                        s.timeout_loss,
                        s.improvement_vs_pre,
                    ]
                    .map(f64::to_bits)
                }) == point.sim.as_ref().map(|s| {
                    [
                        s.pre_loss,
                        s.post_loss,
                        s.timeout_loss,
                        s.improvement_vs_pre,
                    ]
                    .map(f64::to_bits)
                });
            if !same {
                differ += 1;
            }
            broken += reports.iter().filter(|r| !conserves(r)).count();
        }
    }
    out.check(
        "sampled_points_recompute_bit_identical",
        differ == 0 && recomputed > 0,
        format!("{differ} of {recomputed} recomputed points differ"),
    );
    out.check(
        "sim_reports_conserve_requests",
        broken == 0,
        format!("{broken} reports break offered = delivered + lost + in_flight"),
    );
    out.attempted = attempted as u64;
    out.failed = (wrong_totals + differ + broken) as u64;
    Ok(())
}

/// Recomputes point `index` of a sweep serially: its warm chain from the
/// chunk's first point, then the three-policy evaluation.
fn recompute(
    eval: &Eval,
    sweep: usize,
    budgets: &[usize],
    index: usize,
) -> Result<(SweepPoint, Vec<SimReport>), String> {
    let arch = &eval.sweeps[sweep].arch;
    let mut ctx = SolveContext::new(arch, &eval.pipeline.sizing);
    let start = index - index % WARM_CHUNK;
    let mut outcome = None;
    for &b in &budgets[start..=index] {
        outcome = Some(ctx.size_buffers(b).map_err(|e| e.to_string())?);
    }
    let outcome = outcome.expect("the chain reaches the point");
    let budget = budgets[index];
    let cmp = evaluate_policies_sized(arch, budget, &eval.pipeline, outcome, &SerialPool)
        .map_err(|e| e.to_string())?;
    let point = SweepPoint {
        index,
        budget,
        load_factor: 1.0,
        arch_seed: None,
        queues: arch.num_queues(),
        offered_rate: arch.total_offered_rate(),
        predicted_loss: cmp.outcome.predicted_loss_rate,
        shadow_price: cmp.outcome.budget_shadow_price,
        budget_row_relaxed: cmp.outcome.budget_row_relaxed,
        lp_iterations: cmp.outcome.lp_iterations,
        allocation: cmp.outcome.allocation.as_slice().to_vec(),
        sim: Some(socbuf::sweep::SimSummary {
            pre_loss: cmp.pre.total_lost,
            post_loss: cmp.post.total_lost,
            timeout_loss: cmp.timeout.total_lost,
            improvement_vs_pre: cmp.improvement_vs_pre(),
        }),
    };
    Ok((point, vec![cmp.pre, cmp.post, cmp.timeout]))
}

/// Render and ordering layers from the traced campaigns.
fn campaign_metrics(out: &mut Outcome, traced: &[Campaign], wall: f64) {
    let max = |f: &dyn Fn(&Campaign) -> usize| traced.iter().map(f).max().unwrap_or(0) as f64;
    out.set(
        "sweep.stream.peak_frontier_classes",
        Reading::one(max(&|c| c.peak_frontier)),
    );
    out.set(
        "sweep.pool.peak_parked_chunks",
        Reading::one(max(&|c| c.peak_parked)),
    );
    let spans = traced.iter().map(|c| (c.points, c.spans.clone())).collect();
    layers::fill_render(out, spans, wall);
}

/// Pipeline and simulator layers replayed serially on the sampled
/// points (one per sweep): the LP decomposition, the warm chain to
/// the point, the three-policy evaluation, and the post-sizing
/// replications on both simulator engines.
fn replay(
    out: &mut Outcome,
    eval: &Eval,
    sampled: &[(usize, Vec<usize>, SweepPoint)],
    epoch: Instant,
) -> Result<(), String> {
    let mut tr = Tracer::new(epoch, true);
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut chain_points = 0;
    let mut engines_agree = true;
    let mut offered = [0.0f64; 2];
    for (id, (s, budgets, point)) in sampled.iter().enumerate() {
        let id = id as u64;
        let arch = &eval.sweeps[*s].arch;
        let sizing = &eval.pipeline.sizing;
        if let Some(d) = layers::decompose(&mut tr, id, arch, point.budget, sizing)? {
            cold.push(d.cold_pivots as f64);
        }
        let start = point.index - point.index % WARM_CHUNK;
        let chain = &budgets[start..=point.index];
        let pivots = layers::chain(&mut tr, id, arch, sizing, chain)?;
        warm.extend(pivots[1..].iter().map(|&p| p as f64));
        chain_points += chain.len();
        let mut ctx = SolveContext::new(arch, sizing);
        let outcome = ctx.size_buffers(point.budget).map_err(|e| e.to_string())?;
        let efforts = outcome.efforts.clone();
        let alloc = outcome.allocation.clone();
        tr.span("core.pipeline.evaluate", id, || {
            evaluate_policies_sized(arch, point.budget, &eval.pipeline, outcome, &SerialPool)
        })
        .map_err(|e| e.to_string())?;
        if arch.uses_extended_semantics() {
            continue;
        }
        // The post-sizing replications, once per engine.
        let base = SimConfig {
            horizon: eval.pipeline.horizon,
            warmup: eval.pipeline.warmup,
            seed: eval.pipeline.seed,
        };
        for r in 0..eval.pipeline.replications {
            let cfg = replication_config(&base, r);
            let arbiter = Arbiter::WeightedEffort {
                efforts: efforts.clone(),
            };
            let legacy = tr.span("sim.legacy.replication", id, || {
                simulate_with(arch, &alloc, &mut arbiter.clone(), None, &cfg)
            });
            let actors = tr.span("sim.actors.replication", id, || {
                simulate_actors_with(arch, &alloc, &mut arbiter.clone(), None, &cfg)
            });
            engines_agree &= legacy == actors;
            offered[0] += legacy.total_offered;
            offered[1] += actors.total_offered;
        }
    }
    out.check(
        "replayed_replications_agree_across_engines",
        engines_agree,
        "legacy and actor engines report identically on the replayed replications".into(),
    );
    let mut trace = Trace::default();
    trace.absorb(0, tr.into_spans());
    layers::fill(out, &trace, &cold, &warm);
    let sum = |name: &str| trace.durations_us(name).iter().sum::<f64>();
    let evaluate = trace.durations_us("core.pipeline.evaluate");
    out.set(
        "core.pipeline.evaluate_ms",
        Reading::one(median(&evaluate) / 1e3),
    );
    let lp_per_point =
        (sum("core.pipeline.chain_open") + sum("core.pipeline.warm_point")) / chain_points as f64;
    let eval_per_point = sum("core.pipeline.evaluate") / evaluate.len().max(1) as f64;
    out.set(
        "core.pipeline.lp_share",
        Reading::one(lp_per_point / (lp_per_point + eval_per_point)),
    );
    for (i, engine) in ["legacy", "actors"].iter().enumerate() {
        let (span, ms, rps) = match *engine {
            "legacy" => (
                "sim.legacy.replication",
                "sim.legacy.replication_ms",
                "sim.legacy.requests_per_sec",
            ),
            _ => (
                "sim.actors.replication",
                "sim.actors.replication_ms",
                "sim.actors.requests_per_sec",
            ),
        };
        let durations = trace.durations_us(span);
        out.set(ms, Reading::one(median(&durations) / 1e3));
        out.set(
            rps,
            Reading::one(offered[i] / (durations.iter().sum::<f64>() / 1e6).max(1e-12)),
        );
    }
    out.spans.append(trace);
    Ok(())
}

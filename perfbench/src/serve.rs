//! `serve_mixed`: a closed loop of two client connections sending
//! `size` requests to an in-process `Server` with the default
//! configuration (cache capacity 32).
//!
//! The mix is Zipf-like over 48 keys — 4 templates × 3 state caps plus
//! 36 seeded random architectures at `SizingConfig::small()`, more keys
//! than the cache holds, so misses (cold assembly, prepare and
//! phase-one) and evictions sit beside warm hits. Budgets mostly step
//! by ±8 from the key's last budget; one request in twenty jumps far,
//! which keeps the far-warm-retarget cost visible in `rtt_p99_ms`.

use std::net::SocketAddr;
use std::time::Instant;

use socbuf::serve::{Client, Health, Server, ServerConfig};
use socbuf::sizing::wire::sizing_outcome_semantic_json;
use socbuf::sizing::{size_buffers, SizingConfig};
use socbuf::soc::templates::{self, RandomArchParams};
use socbuf::soc::Architecture;

use crate::layers;
use crate::trace::{Trace, Tracer};
use crate::util::{median, peak_rss_mb, quantile, secs, Rng};
use crate::{Opts, Outcome, Reading};

const CONNECTIONS: usize = 2;
const RANDOM_KEYS: usize = 36;
const STEP: usize = 8;
const FAR_JUMP: f64 = 0.05;
/// Untimed warm-up requests per connection.
const WARMUP_REQUESTS: usize = 300;
const SETUPS: usize = 3;
/// Replies kept per connection for the byte-parity check.
const CHECK_SAMPLES: usize = 12;
const SAMPLE_PROB: f64 = 0.01;
/// Throughput is read per window of this many seconds; the reported
/// rate is the median window, which a burst of host noise cannot move.
const WINDOW_S: f64 = 1.0;

struct Key {
    name: String,
    arch: Architecture,
    config: SizingConfig,
    lo: usize,
    hi: usize,
}

impl Key {
    fn new(name: String, arch: Architecture, config: SizingConfig) -> Key {
        let cells = arch.num_queues() * config.state_cap;
        Key {
            lo: (cells / 3).max(arch.num_queues()),
            hi: cells * 6 / 5,
            name,
            arch,
            config,
        }
    }
}

/// The 48 keys in Zipf rank order. The template keys hold the top
/// ranks, cheapest first, so the hot set is the same for every seed;
/// the seed picks the 36 random architectures of the tail, where the
/// cache misses and evicts.
fn keys(rng: &mut Rng) -> Vec<Key> {
    let named = [
        ("figure1", templates::figure1()),
        ("amba", templates::amba()),
        ("coreconnect", templates::coreconnect()),
        ("network_processor", templates::network_processor()),
    ];
    let mut out = Vec::new();
    for cap in [8, 12, 16] {
        for (name, arch) in &named {
            let config = SizingConfig {
                state_cap: cap,
                ..SizingConfig::default()
            };
            out.push(Key::new(format!("{name}/cap{cap}"), arch.clone(), config));
        }
    }
    out.extend((0..RANDOM_KEYS).map(|_| {
        let seed = rng.next_u64();
        let arch = templates::random_architecture(seed, &RandomArchParams::default());
        Key::new(format!("random/{seed}"), arch, SizingConfig::small())
    }));
    out
}

/// One connection's request stream: Zipf key, then a budget near the
/// key's last one.
#[derive(Clone)]
struct Mix {
    rng: Rng,
    cdf: Vec<f64>,
    last: Vec<Option<usize>>,
}

impl Mix {
    fn new(rng: Rng, keys: usize) -> Mix {
        let weights: Vec<f64> = (0..keys).map(|r| 1.0 / (r + 1) as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Mix {
            rng,
            cdf,
            last: vec![None; keys],
        }
    }

    fn next(&mut self, keys: &[Key]) -> (usize, usize) {
        let u = self.rng.unit();
        let k = self
            .cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(keys.len() - 1);
        let key = &keys[k];
        let far = key.lo + self.rng.below(key.hi - key.lo + 1);
        let budget = match self.last[k] {
            Some(b) if self.rng.unit() >= FAR_JUMP => {
                if self.rng.below(2) == 0 {
                    (b + STEP).min(key.hi)
                } else {
                    b.saturating_sub(STEP).max(key.lo)
                }
            }
            _ => far,
        };
        self.last[k] = Some(budget);
        (k, budget)
    }
}

/// What one connection saw.
#[derive(Default)]
struct Lane {
    /// (completion time since phase start in s, round trip in ms).
    rtts: Vec<(f64, f64)>,
    failures: u64,
    /// (key, budget, served bytes) for the parity check.
    samples: Vec<(usize, usize, String)>,
    spans: Vec<crate::trace::Span>,
}

struct Phase {
    until: Option<f64>,
    requests: Option<usize>,
    trace: bool,
    sample: bool,
}

fn drive(
    client: &mut Client,
    keys: &[Key],
    mix: &mut Mix,
    sampler: &mut Rng,
    phase: &Phase,
    epoch: Instant,
) -> Lane {
    let mut lane = Lane::default();
    let mut tr = Tracer::new(epoch, phase.trace);
    let start = Instant::now();
    let mut n = 0u64;
    loop {
        if phase.until.is_some_and(|s| secs(start) >= s)
            || phase.requests.is_some_and(|r| n as usize >= r)
        {
            break;
        }
        let (k, budget) = mix.next(keys);
        let key = &keys[k];
        let begun = tr.now_ns();
        tr.begin("serve.client.size", n);
        let t = Instant::now();
        let reply = client.size(&key.arch, &key.config, budget);
        let rtt = t.elapsed();
        match reply {
            Ok(reply) => {
                let qw = reply.trace.queue_wait_us * 1000;
                tr.record("serve.server.queue_wait", n, begun, qw);
                tr.record(
                    "serve.server.solve",
                    n,
                    begun + qw,
                    reply.trace.solve_us * 1000,
                );
                tr.end();
                lane.rtts.push((secs(start), rtt.as_secs_f64() * 1e3));
                if phase.sample
                    && sampler.unit() < SAMPLE_PROB
                    && lane.samples.len() < CHECK_SAMPLES
                {
                    lane.samples.push((k, budget, reply.result_json));
                }
            }
            Err(e) => {
                tr.end();
                eprintln!("perfbench: size {} @ {budget} failed: {e}", key.name);
                lane.failures += 1;
            }
        }
        n += 1;
    }
    lane.spans = tr.into_spans();
    lane
}

/// Runs one phase on both connections at once.
fn phase_on(
    clients: &mut [Client],
    keys: &[Key],
    mixes: &mut [Mix],
    samplers: &mut [Rng],
    phase: &Phase,
    epoch: Instant,
) -> Vec<Lane> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(mixes.iter_mut())
            .zip(samplers.iter_mut())
            .map(|((client, mix), sampler)| {
                scope.spawn(move || drive(client, keys, mix, sampler, phase, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    })
}

fn connect(addr: SocketAddr) -> Result<Vec<Client>, String> {
    (0..CONNECTIONS)
        .map(|_| Client::connect_tcp(addr).map_err(|e| format!("connect: {e}")))
        .collect()
}

fn health(client: &mut Client) -> Result<Health, String> {
    client.health().map_err(|e| format!("health: {e}"))
}

/// The phase cut into windows of about [`WINDOW_S`]: per window, the
/// completion rate and the round trips that completed in it.
fn windows(lanes: &[Lane], seconds: f64) -> Vec<(f64, Vec<f64>)> {
    let n = ((seconds / WINDOW_S).round() as usize).max(1);
    let width = seconds / n as f64;
    let mut rtts = vec![Vec::new(); n];
    for lane in lanes {
        for &(t, rtt) in &lane.rtts {
            rtts[((t / width) as usize).min(n - 1)].push(rtt);
        }
    }
    rtts.into_iter()
        .map(|w| (w.len() as f64 / width, w))
        .collect()
}

fn completed(lanes: &[Lane]) -> usize {
    lanes.iter().map(|l| l.rtts.len()).sum()
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let root = Rng::new(opts.seed);
    let keys = keys(&mut root.fork(1));
    let warmup = if opts.smoke { 20 } else { WARMUP_REQUESTS };
    let setups = if opts.smoke { 1 } else { SETUPS };
    let epoch = Instant::now();
    let fresh_mixes = || -> Vec<Mix> {
        (0..CONNECTIONS)
            .map(|c| Mix::new(root.fork(10 + c as u64), keys.len()))
            .collect()
    };
    let mut samplers: Vec<Rng> = (0..CONNECTIONS).map(|c| root.fork(20 + c as u64)).collect();

    // Set-up: bind, connect, and the untimed warm-up of the same mix.
    let set_up = |samplers: &mut [Rng]| -> Result<(Server, Vec<Client>, Vec<Mix>, f64), String> {
        let t = Instant::now();
        let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.tcp_addr().ok_or("server has no TCP address")?;
        let mut clients = connect(addr)?;
        let mut mixes = fresh_mixes();
        let warm = Phase {
            until: None,
            requests: Some(warmup),
            trace: false,
            sample: false,
        };
        let lanes = phase_on(&mut clients, &keys, &mut mixes, samplers, &warm, epoch);
        if lanes.iter().any(|l| l.failures > 0) {
            return Err("warm-up requests failed".into());
        }
        Ok((server, clients, mixes, secs(t)))
    };
    let (server, mut clients, mut mixes, first_setup_s) = set_up(&mut samplers)?;
    let mut out = Outcome::default();

    let lanes = if opts.trace {
        // Same server, same continuing mix: an untraced half, then a
        // traced half; their throughput ratio is the tracing overhead.
        let half = opts.seconds / 2.0;
        let plain = Phase {
            until: Some(half),
            requests: None,
            trace: false,
            sample: false,
        };
        let t = Instant::now();
        let untraced = phase_on(
            &mut clients,
            &keys,
            &mut mixes,
            &mut samplers,
            &plain,
            epoch,
        );
        let untraced_rate = completed(&untraced) as f64 / secs(t);
        let before = health(&mut clients[0])?;
        let traced_phase = Phase {
            trace: true,
            sample: true,
            ..plain
        };
        let t = Instant::now();
        let traced = phase_on(
            &mut clients,
            &keys,
            &mut mixes,
            &mut samplers,
            &traced_phase,
            epoch,
        );
        let wall = secs(t);
        let after = health(&mut clients[0])?;
        let traced_rate = completed(&traced) as f64 / wall;
        out.set(
            "trace.overhead_share",
            Reading::one(untraced_rate / traced_rate - 1.0),
        );
        cache_metrics(&mut out, &before, &after);
        let mut trace = Trace::default();
        let mut lanes = traced;
        for (i, lane) in lanes.iter_mut().enumerate() {
            trace.absorb(i, std::mem::take(&mut lane.spans));
        }
        server_metrics(&mut out, &trace, wall);
        out.spans.append(trace);
        replay(&mut out, &keys, &root, opts.smoke, epoch)?;
        lanes
    } else {
        let before = health(&mut clients[0])?;
        let timed = Phase {
            until: Some(opts.seconds),
            requests: None,
            trace: false,
            sample: true,
        };
        let t = Instant::now();
        let lanes = phase_on(
            &mut clients,
            &keys,
            &mut mixes,
            &mut samplers,
            &timed,
            epoch,
        );
        let wall = secs(t);
        out.set("peak_rss_mb", Reading::one(peak_rss_mb()));
        let after = health(&mut clients[0])?;
        let rtts: Vec<f64> = lanes
            .iter()
            .flat_map(|l| l.rtts.iter().map(|r| r.1))
            .collect();
        // Every rate and percentile is read per window and the median
        // window reported, so a few seconds of host noise cannot move
        // it; each window holds well over 1000 round trips, so its p99
        // has more than 10 samples beyond it.
        let windows = windows(&lanes, wall);
        let rates: Vec<f64> = windows.iter().map(|w| w.0).collect();
        out.set("requests_per_sec", Reading::median_of(rates.clone()));
        // Each `size` reply is one sized point.
        out.set("points_per_sec", Reading::median_of(rates));
        for (name, q) in [("rtt_p50_ms", 0.5), ("rtt_p99_ms", 0.99)] {
            let per_window: Vec<f64> = windows.iter().map(|w| quantile(&w.1, q)).collect();
            out.set(
                name,
                Reading {
                    samples: rtts.len(),
                    ..Reading::median_of(per_window)
                },
            );
        }
        out.note(
            "rtt_samples_per_window_min",
            windows.iter().map(|w| w.1.len()).min().unwrap_or(0),
        );
        out.note("rtt_samples", rtts.len());
        out.note("rtt_p99_pooled_ms", quantile(&rtts, 0.99));
        out.note("cache_hits", after.hits - before.hits);
        out.note("cache_misses", after.misses - before.misses);
        out.note("cache_evictions", after.evictions - before.evictions);
        lanes
    };
    drop(clients);
    server.shutdown();
    if !opts.trace {
        // More set-ups on fresh servers for the median, made after the
        // memory reading so their threads cannot raise its high-water
        // mark.
        let mut setup_s = vec![first_setup_s];
        for _ in 1..setups {
            let (server, clients, _, took) = set_up(&mut samplers)?;
            setup_s.push(took);
            drop(clients);
            server.shutdown();
        }
        out.set("setup_s", Reading::median_of(setup_s));
    }

    // Output check, outside the timed section: sampled replies must be
    // byte-equal to the direct pipeline's semantic rendering.
    let failures: u64 = lanes.iter().map(|l| l.failures).sum();
    out.attempted = completed(&lanes) as u64 + failures;
    out.failed = failures;
    let samples: Vec<&(usize, usize, String)> = lanes.iter().flat_map(|l| &l.samples).collect();
    let mut mismatched = 0;
    for (k, budget, served) in &samples {
        let key = &keys[*k];
        let direct = size_buffers(&key.arch, *budget, &key.config)
            .map_err(|e| format!("direct size {} @ {budget}: {e}", key.name))?;
        if sizing_outcome_semantic_json(&direct) != *served {
            eprintln!("perfbench: served bytes differ for {} @ {budget}", key.name);
            mismatched += 1;
        }
    }
    out.failed += mismatched;
    out.check(
        "served_bytes_equal_direct_pipeline",
        mismatched == 0 && !samples.is_empty(),
        format!("{} of {} sampled replies differ", mismatched, samples.len()),
    );
    out.check(
        "no_failed_requests",
        failures == 0,
        format!("{failures} requests failed or were refused"),
    );
    Ok(out)
}

fn cache_metrics(out: &mut Outcome, before: &Health, after: &Health) {
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    let per = |n: u64, d: f64| if d > 0.0 { n as f64 / d } else { 0.0 };
    out.set(
        "serve.cache.hit_ratio",
        Reading::one(per(after.hits - before.hits, hits + misses)),
    );
    out.set(
        "serve.cache.evictions",
        Reading::one((after.evictions - before.evictions) as f64),
    );
    out.set(
        "serve.cache.warm_pivots_per_hit",
        Reading::one(per(after.warm_pivots - before.warm_pivots, hits)),
    );
    out.set(
        "serve.cache.cold_pivots_per_miss",
        Reading::one(per(after.cold_pivots - before.cold_pivots, misses)),
    );
}

/// Server-side layers from each reply's trace: queue wait and solve as
/// child spans of the client's round trip, whose self time is the
/// protocol, wire and socket overhead.
fn server_metrics(out: &mut Outcome, trace: &Trace, wall: f64) {
    let qw = trace.durations_us("serve.server.queue_wait");
    let solve = trace.durations_us("serve.server.solve");
    let rtt = trace.durations_us("serve.client.size");
    out.set(
        "serve.server.queue_wait_us_p50",
        Reading::one(quantile(&qw, 0.5)),
    );
    out.set(
        "serve.server.queue_wait_us_p99",
        Reading::one(quantile(&qw, 0.99)),
    );
    out.set(
        "serve.server.solve_us_p50",
        Reading::one(quantile(&solve, 0.5)),
    );
    out.set(
        "serve.server.solve_us_p99",
        Reading::one(quantile(&solve, 0.99)),
    );
    out.set(
        "serve.server.overhead_us_p50",
        Reading::one(median(&trace.self_times_us("serve.client.size"))),
    );
    let total_rtt: f64 = rtt.iter().sum();
    out.set(
        "core.pipeline.lp_share",
        Reading::one(solve.iter().sum::<f64>() / total_rtt.max(1e-9)),
    );
    let accounted: f64 = trace.self_us().iter().sum();
    out.set(
        "trace.accounted_share",
        Reading::one(accounted / (wall * 1e6 * CONNECTIONS as f64)),
    );
}

/// LP-side layers replayed in-process on a seeded sample of the keys:
/// each decomposed at a mid-range budget, then a ±8 warm chain.
fn replay(
    out: &mut Outcome,
    keys: &[Key],
    root: &Rng,
    smoke: bool,
    epoch: Instant,
) -> Result<(), String> {
    let want = if smoke { 2 } else { 6 };
    let mut candidates: Vec<usize> = (0..keys.len()).collect();
    root.fork(30).shuffle(&mut candidates);
    let mut tr = Tracer::new(epoch, true);
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for (id, &k) in candidates.iter().enumerate() {
        if cold.len() == want {
            break;
        }
        let key = &keys[k];
        let mid = (key.lo + key.hi) / 2;
        // Keys whose budget row is infeasible at mid-range are sized
        // with the row relaxed; they are skipped here.
        let Some(d) = layers::decompose(&mut tr, id as u64, &key.arch, mid, &key.config)? else {
            continue;
        };
        cold.push(d.cold_pivots as f64);
        let budgets: Vec<usize> = (0..9)
            .map(|i| {
                let b = mid + i * STEP;
                b.min(key.hi)
            })
            .collect();
        let pivots = layers::chain(&mut tr, id as u64, &key.arch, &key.config, &budgets)?;
        warm.extend(pivots[1..].iter().map(|&p| p as f64));
    }
    let mut trace = Trace::default();
    trace.absorb(0, tr.into_spans());
    layers::fill(out, &trace, &cold, &warm);
    out.spans.append(trace);
    Ok(())
}

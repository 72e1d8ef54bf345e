//! The repository's benchmark: one sized point (an architecture and a
//! buffer budget in, a certified allocation out) measured end to end
//! and layer by layer on three workloads.
//!
//! ```text
//! perfbench --workload <fleet_budget_chain|serve_mixed|paper_eval>
//!           --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` prints every end-to-end metric, `--trace 1` every
//! per-layer metric. Every run checks the workload's outputs outside
//! the timed section. The last stdout line is the result object; the
//! line before it is the run record (host, seed, repeats, quartiles).
//! See `perfbench/README.md` for the workloads and the metric map.

mod fleet;
mod layers;
mod metrics;
mod paper;
mod serve;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use util::{push_num, push_str, quantile, Host};

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs for the benchmark's own test.
    pub smoke: bool,
}

/// One metric as measured: its value and the per-repeat values its
/// quartiles come from (empty when it is a single reading).
#[derive(Debug, Clone, Default)]
pub struct Reading {
    pub value: f64,
    pub repeats: Vec<f64>,
    /// Samples the value was computed from, when that matters (RTT
    /// percentiles).
    pub samples: usize,
}

impl Reading {
    pub fn one(value: f64) -> Reading {
        Reading {
            value,
            ..Reading::default()
        }
    }

    /// The median of `repeats`, keeping them for the quartiles.
    pub fn median_of(repeats: Vec<f64>) -> Reading {
        Reading {
            value: util::median(&repeats),
            samples: repeats.len(),
            repeats,
        }
    }
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase (points or requests).
    pub attempted: u64,
    /// Operations that failed, were refused or produced wrong output.
    pub failed: u64,
    /// Output checks: name, passed, detail.
    pub checks: Vec<(String, bool, String)>,
    pub metrics: BTreeMap<&'static str, Reading>,
    /// Free-form facts for the record (counts, caveats).
    pub notes: Vec<(String, String)>,
    /// Every span of the traced run, written out when the run ends.
    pub spans: trace::Trace,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, reading: Reading) {
        self.metrics.insert(name, reading);
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.checks.push((name.to_string(), passed, detail));
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// End-to-end metrics of a closed batch of campaigns, each given as
    /// (points, wall seconds): a campaign is the client's request.
    /// Every value is a median over campaigns, or for the tail over
    /// windows of [`CAMPAIGN_WINDOW`] consecutive campaigns, so one
    /// campaign caught in a burst of host noise cannot move it.
    pub fn set_campaigns(&mut self, campaigns: &[(usize, f64)]) {
        let rates: Vec<f64> = campaigns.iter().map(|&(p, w)| p as f64 / w).collect();
        let per_sec: Vec<f64> = campaigns.iter().map(|&(_, w)| 1.0 / w).collect();
        let walls_ms: Vec<f64> = campaigns.iter().map(|&(_, w)| w * 1e3).collect();
        self.set("points_per_sec", Reading::median_of(rates));
        self.set("requests_per_sec", Reading::median_of(per_sec));
        self.set("rtt_p50_ms", Reading::median_of(walls_ms.clone()));
        let windows: Vec<f64> = walls_ms
            .chunks(CAMPAIGN_WINDOW)
            .filter(|w| w.len() == CAMPAIGN_WINDOW || walls_ms.len() < CAMPAIGN_WINDOW)
            .map(|w| quantile(w, 0.99))
            .collect();
        self.set(
            "rtt_p99_ms",
            Reading {
                samples: walls_ms.len(),
                ..Reading::median_of(windows)
            },
        );
        self.note("campaigns", campaigns.len());
        self.note("points_per_campaign", campaigns[0].0);
        self.note("rtt_p99_pooled_ms", quantile(&walls_ms, 0.99));
        self.note(
            "rtt_note",
            "a request is one campaign; a window of 10 campaigns has fewer than 10 samples beyond its p99",
        );
    }
}

/// Consecutive campaigns per window of the campaign workloads' tail
/// latency.
const CAMPAIGN_WINDOW: usize = 10;

/// Points per second over a whole batch of (points, wall seconds).
pub fn batch_rate(campaigns: &[(usize, f64)]) -> f64 {
    let points: usize = campaigns.iter().map(|c| c.0).sum();
    points as f64 / campaigns.iter().map(|c| c.1).sum::<f64>()
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--workload" => workload = Some(value(i)?),
            "--seed" => seed = Some(value(i)?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value(i)?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value(i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--smoke" => {
                smoke = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        smoke,
    })
}

/// The run record: the host, the inputs, and each metric's median and
/// quartiles over the run's repeats.
fn record_line(opts: &Opts, host: &Host, out: &Outcome, wanted: &[(&str, &str)]) -> String {
    let mut s = String::from("{\"record\":{\"host\":{\"nproc\":");
    s.push_str(&host.nproc.to_string());
    s.push_str(",\"cpu_model\":");
    push_str(&mut s, &host.cpu_model);
    s.push_str(",\"rustc\":");
    push_str(&mut s, host.rustc);
    s.push_str(",\"git_revision\":");
    push_str(&mut s, &host.git_revision);
    s.push_str("},\"workload\":");
    push_str(&mut s, &opts.workload);
    let _ = write!(
        s,
        ",\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{}",
        opts.seed, opts.seconds, opts.trace, opts.smoke
    );
    let _ = write!(
        s,
        ",\"attempted\":{},\"failed\":{},\"failed_share\":",
        out.attempted, out.failed
    );
    push_num(&mut s, out.failed as f64 / (out.attempted.max(1)) as f64);
    s.push_str(",\"checks\":[");
    for (i, (name, passed, detail)) in out.checks.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("{\"name\":");
        push_str(&mut s, name);
        let _ = write!(s, ",\"passed\":{passed},\"detail\":");
        push_str(&mut s, detail);
        s.push('}');
    }
    s.push_str("],\"metrics\":{");
    let mut first = true;
    let mut missing = Vec::new();
    for (name, unit) in wanted {
        let Some(r) = out.metrics.get(name) else {
            missing.push(*name);
            continue;
        };
        if !first {
            s.push(',');
        }
        first = false;
        push_str(&mut s, name);
        s.push_str(":{\"unit\":");
        push_str(&mut s, unit);
        s.push_str(",\"value\":");
        push_num(&mut s, r.value);
        let _ = write!(
            s,
            ",\"samples\":{},\"repeats\":{}",
            r.samples,
            r.repeats.len()
        );
        if !r.repeats.is_empty() {
            for (key, q) in [
                ("p10", 0.1),
                ("q1", 0.25),
                ("median", 0.5),
                ("q3", 0.75),
                ("p90", 0.9),
            ] {
                let _ = write!(s, ",\"{key}\":");
                push_num(&mut s, quantile(&r.repeats, q));
            }
        }
        s.push('}');
    }
    s.push_str("},\"not_exercised\":[");
    for (i, name) in missing.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_str(&mut s, name);
    }
    s.push_str("],\"notes\":{");
    for (i, (k, v)) in out.notes.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_str(&mut s, k);
        s.push(':');
        push_str(&mut s, v);
    }
    s.push_str("}}}");
    s
}

fn result_line(out: &Outcome, wanted: &[(&str, &str)]) -> String {
    let correct = out.failed == 0 && out.checks.iter().all(|(_, passed, _)| *passed);
    let mut s = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        out.attempted.max(1),
        out.failed
    );
    for (i, (name, unit)) in wanted.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let value = out.metrics.get(name).map_or(0.0, |r| r.value);
        push_str(&mut s, name);
        s.push_str(":{\"value\":");
        push_num(&mut s, value);
        s.push_str(",\"unit\":");
        push_str(&mut s, unit);
        s.push('}');
    }
    s.push_str("}}");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some(fleet::SHARD_WORKER_ARG) {
        std::process::exit(fleet::shard_worker());
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = Host::probe();
    let result = match opts.workload.as_str() {
        "fleet_budget_chain" => fleet::run(&opts),
        "serve_mixed" => serve::run(&opts),
        "paper_eval" => paper::run(&opts),
        _ => unreachable!("workload validated by parse_args"),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            std::process::exit(1);
        }
    };
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    if !opts.trace {
        out.set("ok_share", Reading::one(1.0 - failed_share));
    }
    if opts.trace {
        let path = format!(
            "perfbench/out/trace-{}-seed{}.jsonl",
            opts.workload, opts.seed
        );
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, out.spans.to_jsonl()));
        match written {
            Ok(()) => out.note("spans_file", &path),
            Err(e) => out.note("spans_file", format!("not written: {e}")),
        }
        out.note("spans", out.spans.spans.len());
    }
    let wanted = if opts.trace { PER_LAYER } else { END_TO_END };
    println!("{}", record_line(&opts, &host, &out, wanted));
    println!("{}", result_line(&out, wanted));
}

//! Developer probe for sharded campaign execution: a coordinator plus
//! two real shard-server processes on loopback sockets, byte-diffed
//! against the serial single-host pipeline.
//!
//! `--worker` turns this same binary into a shard server (ephemeral
//! port announced as `PORT <n>` on stdout, lifetime tied to stdin —
//! see [`socbuf_serve::shard_worker_main`]), so the probe needs no
//! second binary built or found: it spawns itself.
//!
//! `--smoke` runs the CI gate:
//!
//! * **byte-identical merge (always enforced)** — streaming the
//!   manifest's chunks from two shard processes and merging the chunk
//!   frames must reproduce the serial run's CSV and JSONL byte for
//!   byte, for every shard assignment the round-robin produces;
//! * **coverage verification (always enforced)** — the reducer must
//!   reject a dropped chunk and a duplicated chunk with the named
//!   structured errors;
//! * **warm transfer (always enforced)** — a cold shard seeded with a
//!   [`socbuf_core::BasisSnapshot`] exported from a peer must answer
//!   its first `size` at the exporting budget warm, with measurably
//!   fewer simplex pivots than the peer's cold solve, and with the
//!   cold pipeline's bytes;
//! * **fan-out wall time (enforced when the host has ≥ 2 cores)** —
//!   best-of-repeats: two shards must finish the campaign faster than
//!   one shard over the same sockets. Skipped on single-core hosts,
//!   same policy as `serve_probe`.

use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use socbuf_core::wire::{sizing_outcome_semantic_json, CampaignManifest};
use socbuf_core::{size_buffers, SizingConfig};
use socbuf_serve::{Client, RetryPolicy, ShardFleet};
use socbuf_soc::templates;
use socbuf_sweep::{
    merge_chunk_reports, run_manifest, BudgetSweep, MergeError, SweepKind, SweepReport, VecSink,
    WorkPool,
};

/// Heavy enough per point that warm-chain and seeding effects are
/// measurable, light enough for CI (same scale as `serve_probe`).
fn smoke_sizing() -> SizingConfig {
    SizingConfig {
        state_cap: 16,
        effort_levels: 4,
        ..SizingConfig::default()
    }
}

/// Ten budgets → three warm chains of ≤ 4: enough chunks that a
/// two-shard round-robin splits them unevenly ({0,2} vs {1}).
fn smoke_budgets() -> Vec<usize> {
    vec![200, 216, 232, 248, 264, 280, 296, 312, 328, 344]
}

/// The budget the warm-transfer gate exports a basis at and re-sizes.
const TRANSFER_BUDGET: usize = 320;

/// One self-exec'd shard-server process. Dropping it closes the
/// worker's stdin, which is its shutdown signal.
struct ShardProcess {
    child: Child,
    _stdin: ChildStdin,
    addr: SocketAddr,
}

impl ShardProcess {
    fn spawn() -> ShardProcess {
        let exe = std::env::current_exe().expect("own executable path");
        let mut child = Command::new(exe)
            .arg("--worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| {
                eprintln!("cannot spawn shard worker: {e}");
                std::process::exit(2);
            });
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("worker announces its port");
        let port: u16 = line
            .trim()
            .strip_prefix("PORT ")
            .unwrap_or_else(|| {
                eprintln!("worker printed {line:?}, expected \"PORT <n>\"");
                std::process::exit(2);
            })
            .parse()
            .expect("valid port");
        let stdin = child.stdin.take().expect("piped stdin");
        ShardProcess {
            child,
            _stdin: stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
        }
    }

    fn client(&self) -> Client {
        Client::connect_tcp(self.addr).expect("connect to shard")
    }
}

impl Drop for ShardProcess {
    fn drop(&mut self) {
        // The EOF signal (dropping `_stdin`) is the graceful path;
        // kill() on top keeps cleanup robust if the worker ever hangs.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Times one whole-campaign fan-out over `shards` (chunks round-robin,
/// merge included).
fn timed_fanout(manifest: &CampaignManifest, shards: &[&ShardProcess]) -> (SweepReport, Duration) {
    let mut fleet = ShardFleet::new(
        shards.iter().map(|s| s.client()).collect(),
        RetryPolicy::default(),
    );
    let t = Instant::now();
    let (sink, _) = fleet
        .run_manifest_to_sink(manifest, VecSink::new())
        .unwrap_or_else(|e| {
            eprintln!("fan-out failed: {e}");
            std::process::exit(2);
        });
    let merged = SweepReport {
        kind: SweepKind::Budget,
        points: sink.into_points(),
    };
    (merged, t.elapsed())
}

/// CI-sized gate; exits nonzero on regression.
fn smoke() -> i32 {
    let arch = templates::network_processor();
    let config = smoke_sizing();
    let mut sweep = BudgetSweep::new(&arch, smoke_budgets());
    sweep.sizing = config.clone();
    let manifest = sweep.manifest().expect("sizing-only campaign");
    let mut failures = 0;

    // The reference bytes from the serial, in-process pipeline.
    let t = Instant::now();
    let serial = run_manifest(&manifest, &WorkPool::serial()).expect("serial run");
    let serial_time = t.elapsed();

    let shard_a = ShardProcess::spawn();
    let shard_b = ShardProcess::spawn();

    // --- Byte-identical coordinator + 2-shard merge. -------------------
    let (merged, two_shard_time) = timed_fanout(&manifest, &[&shard_a, &shard_b]);
    if merged.to_csv() != serial.to_csv() {
        eprintln!("SMOKE FAIL: 2-shard merged CSV differs from the serial pipeline");
        failures += 1;
    }
    if merged.to_jsonl() != serial.to_jsonl() {
        eprintln!("SMOKE FAIL: 2-shard merged JSONL differs from the serial pipeline");
        failures += 1;
    }
    println!(
        "{} budgets in {} chunks: serial {serial_time:?}, 2-shard fan-out {two_shard_time:?}",
        manifest.items(),
        manifest.chunks.len()
    );

    // --- Coverage verification: dropped and duplicated chunks. ---------
    let mut client_b = shard_b.client();
    let mut reports = Vec::new();
    client_b
        .sweep_stream(&manifest, None, |reply| {
            reports.push(reply.report);
            Ok(())
        })
        .unwrap();
    match merge_chunk_reports(&manifest, &reports[..reports.len() - 1]) {
        Err(MergeError::MissingChunk { .. }) => {}
        other => {
            eprintln!("SMOKE FAIL: dropped chunk not rejected as a coverage gap: {other:?}");
            failures += 1;
        }
    }
    let mut dup = reports.clone();
    dup.push(reports[0].clone());
    match merge_chunk_reports(&manifest, &dup) {
        Err(MergeError::DuplicateChunk { .. }) => {}
        other => {
            eprintln!("SMOKE FAIL: duplicated chunk not rejected as overlap: {other:?}");
            failures += 1;
        }
    }

    // --- Warm transfer: a snapshot-seeded size beats cold on pivots. ---
    // Both shards' caches are still empty (streamed chunks run through
    // the plan, not the cache), so shard A's first size is a clean cold
    // baseline and shard B's first size starts from the import alone.
    let budget = TRANSFER_BUDGET;
    let mut client_a = shard_a.client();
    let cold = client_a.size(&arch, &config, budget).unwrap();
    if cold.trace.warm {
        eprintln!("SMOKE FAIL: empty-cache shard answered its first size warm");
        failures += 1;
    }
    let snapshot = client_a.snapshot_export(&arch, &config).unwrap();
    client_b.snapshot_import(&arch, &config, &snapshot).unwrap();
    let seeded = client_b.size(&arch, &config, budget).unwrap();
    if !seeded.trace.warm {
        eprintln!("SMOKE FAIL: imported snapshot did not seed the first size");
        failures += 1;
    }
    if seeded.trace.pivots >= cold.trace.pivots {
        eprintln!(
            "SMOKE FAIL: seeded size spent {} pivots, cold spent {} — warm transfer \
             must measurably reduce pivots",
            seeded.trace.pivots, cold.trace.pivots
        );
        failures += 1;
    }
    let want = sizing_outcome_semantic_json(&size_buffers(&arch, budget, &config).unwrap());
    if seeded.result_json != want {
        eprintln!("SMOKE FAIL: seeded size bytes differ from the cold pipeline");
        failures += 1;
    }
    println!(
        "size @ {budget} pivots: cold {} -> snapshot-seeded {}",
        cold.trace.pivots, seeded.trace.pivots
    );

    // --- Fan-out wall time: 2 shards beat 1 (multi-core hosts). --------
    const SMOKE_REPEATS: usize = 2;
    let mut best_one = Duration::MAX;
    let mut best_two = two_shard_time;
    for _ in 0..SMOKE_REPEATS {
        let (_, t1) = timed_fanout(&manifest, &[&shard_a]);
        let (_, t2) = timed_fanout(&manifest, &[&shard_a, &shard_b]);
        best_one = best_one.min(t1);
        best_two = best_two.min(t2);
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "best fan-out: 1 shard {best_one:?} vs 2 shards {best_two:?} ({:.2}x)",
        best_one.as_secs_f64() / best_two.as_secs_f64().max(1e-12)
    );
    if cores >= 2 {
        if best_two >= best_one {
            eprintln!(
                "SMOKE FAIL: 2-shard fan-out {best_two:?} not faster than 1 shard \
                 {best_one:?} on a {cores}-core host"
            );
            failures += 1;
        }
    } else {
        println!("wall-time gate SKIPPED: single-core host (byte parity still enforced)");
    }

    if failures == 0 {
        println!("smoke OK");
    }
    failures
}

/// Full table: serial vs 1/2/4-shard fan-out wall time per template.
fn full_probe() {
    let config = smoke_sizing();
    println!(
        "{:<20} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "architecture", "chunks", "serial", "1 shard", "2 shards", "4 shards"
    );
    let shards: Vec<ShardProcess> = (0..4).map(|_| ShardProcess::spawn()).collect();
    for (name, arch) in [
        ("figure1", templates::figure1()),
        ("amba", templates::amba()),
        ("coreconnect", templates::coreconnect()),
    ] {
        let mut sweep = BudgetSweep::new(&arch, smoke_budgets());
        sweep.sizing = config.clone();
        let manifest = sweep.manifest().expect("sizing-only campaign");
        let t = Instant::now();
        let serial = run_manifest(&manifest, &WorkPool::serial()).expect("serial run");
        let serial_time = t.elapsed();
        let mut row = format!("{name:<20} {:>7} {serial_time:>12?}", manifest.chunks.len());
        for n in [1usize, 2, 4] {
            let refs: Vec<&ShardProcess> = shards[..n].iter().collect();
            let (merged, time) = timed_fanout(&manifest, &refs);
            assert_eq!(
                merged.to_jsonl(),
                serial.to_jsonl(),
                "{name}: {n}-shard bytes"
            );
            row.push_str(&format!(" {time:>12?}"));
        }
        println!("{row}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--worker") {
        if let Err(e) = socbuf_serve::shard_worker_main(socbuf_serve::ServerConfig::default()) {
            eprintln!("shard worker failed: {e}");
            std::process::exit(2);
        }
        return;
    }
    if args.iter().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    full_probe();
}

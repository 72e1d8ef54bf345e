//! `fleet_budget_chain`: warm-chained budget campaigns run as closed
//! batches over two self-exec'd shard processes through
//! `ShardFleet::run_manifest_to_sink` into a spooled `ReportStream`.
//!
//! Each campaign is figure1 at `SizingConfig::small()` with a seeded
//! ±1 budget walk in 12..=19, cut into 256-item chunks. The client
//! submits campaigns back to back; a campaign is the "request" whose
//! latency `rtt_*` reports.

use std::fs::File;
use std::io::{self, BufRead, Read, Seek, Write};
use std::net::SocketAddr;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use socbuf::serve::{Client, RetryPolicy, ServerConfig, ShardFleet};
use socbuf::sizing::wire::{CampaignManifest, ChunkReport, ManifestShape};
use socbuf::sizing::SizingConfig;
use socbuf::soc::templates;
use socbuf::sweep::{
    execute_manifest_chunk_traced, plan_manifest, BudgetSweep, PointSink, ReduceStats,
    ReportStream, Spool, StreamSummary, StreamingReducer, SweepKind, SweepPoint, WorkPool,
};

use crate::layers;
use crate::trace::{Timed, Trace, Tracer};
use crate::util::{median, peak_rss_mb, process_cpu_s, secs, Rng};
use crate::{batch_rate, Opts, Outcome, Reading};

/// Argument that turns this binary into a shard server.
pub const SHARD_WORKER_ARG: &str = "--shard-worker";

const SHARDS: usize = 2;
/// Declared chunk length (the `scale_probe` shape).
const CHUNK_ITEMS: usize = 256;
/// Chunks per campaign: eight per shard, enough for the reducer to park
/// out-of-order chunks.
const CHUNKS: usize = 16;
/// Distinct campaign manifests built in set-up and cycled through.
const MANIFESTS: usize = 8;
/// Set-ups per run; a spawn takes milliseconds, so several are cheap
/// and their median is steady.
const SETUPS: usize = 7;
/// Campaigns whose sampled chunk is re-executed for the row check.
const CHECK_CAMPAIGNS: usize = 4;
/// Chunks replayed in-process by the traced run.
const REPLAY_CHUNKS: usize = 3;
/// CSV column of the global frontier flag, which depends on the whole
/// campaign and so cannot be compared against one re-executed chunk.
const FRONTIER_COLUMN: usize = 11;

/// Shard-server mode: port on stdout, serve until stdin closes.
pub fn shard_worker() -> i32 {
    match socbuf::serve::shard_worker_main(ServerConfig::default()) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench shard worker: {e}");
            2
        }
    }
}

struct Shard {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
}

impl Shard {
    fn spawn() -> Result<Shard, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let mut child = Command::new(exe)
            .arg(SHARD_WORKER_ARG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn shard: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("shard stdout not piped")?;
        let mut line = String::new();
        let read = io::BufReader::new(stdout).read_line(&mut line);
        // Owned before the handshake is checked, so a failed handshake
        // still reaps the child.
        let mut shard = Shard {
            child,
            stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        read.map_err(|e| format!("shard handshake: {e}"))?;
        let port: u16 = line
            .trim()
            .strip_prefix("PORT ")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("shard printed {line:?}, expected \"PORT <n>\""))?;
        shard.addr.set_port(port);
        Ok(shard)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Shard {
    /// Closing stdin is the worker's shutdown signal; a worker that has
    /// not exited shortly after is killed. Either way it is reaped.
    fn drop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A spool file inside the checkout, unlinked as soon as it is open so
/// nothing is left behind however the run ends.
struct CheckoutSpool(File);

impl CheckoutSpool {
    fn create(dir: &Path, n: usize) -> io::Result<CheckoutSpool> {
        let path = dir.join(format!("spool-{}-{n}.bin", std::process::id()));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        std::fs::remove_file(&path)?;
        Ok(CheckoutSpool(file))
    }
}

impl Spool for CheckoutSpool {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    fn into_reader(mut self: Box<Self>) -> io::Result<Box<dyn Read + Send>> {
        self.0.seek(io::SeekFrom::Start(0))?;
        Ok(Box::new(self.0))
    }
}

/// The rendered CSV's destination: counts rows and keeps the rows of
/// one item range for the output check.
struct RowTap {
    keep: Range<usize>,
    line: usize,
    current: Vec<u8>,
    kept: Vec<String>,
}

impl RowTap {
    fn new(keep: Range<usize>) -> RowTap {
        RowTap {
            keep,
            line: 0,
            current: Vec::new(),
            kept: Vec::new(),
        }
    }

    /// Data rows seen (the header is line 0).
    fn rows(&self) -> usize {
        self.line.saturating_sub(1)
    }
}

impl Write for RowTap {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            let keeping = self.line >= 1 && self.keep.contains(&(self.line - 1));
            if b == b'\n' {
                if keeping {
                    let row = String::from_utf8_lossy(&self.current).into_owned();
                    self.kept.push(row);
                    self.current.clear();
                }
                self.line += 1;
            } else if keeping {
                self.current.push(b);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

struct Discard;

impl PointSink for Discard {
    fn accept(&mut self, _point: SweepPoint) -> io::Result<()> {
        Ok(())
    }
}

/// One campaign: figure1, small sizing, a seeded ±1 budget walk in
/// 12..=19, `chunks` chunks of [`CHUNK_ITEMS`].
fn manifest(rng: &mut Rng, chunks: usize) -> Result<CampaignManifest, String> {
    let arch = templates::figure1();
    let mut b = 12 + rng.below(8);
    let budgets: Vec<usize> = (0..chunks * CHUNK_ITEMS)
        .map(|_| {
            let here = b;
            // Reflecting walk: the bounds step inward.
            b = match b {
                19 => 18,
                12 => 13,
                _ if rng.below(2) == 0 => b + 1,
                _ => b - 1,
            };
            here
        })
        .collect();
    let mut sweep = BudgetSweep::new(&arch, budgets);
    sweep.sizing = SizingConfig::small();
    let base = sweep.manifest().map_err(|e| e.to_string())?;
    let ranges = (0..chunks)
        .map(|c| c * CHUNK_ITEMS..(c + 1) * CHUNK_ITEMS)
        .collect();
    CampaignManifest::with_chunks(base.shape.clone(), base.config.clone(), ranges)
        .map_err(|e| e.to_string())
}

struct Campaign {
    wall: f64,
    points: usize,
    stats: ReduceStats,
    summary: StreamSummary,
    rows: usize,
    kept: Vec<String>,
    spans: Vec<crate::trace::Span>,
}

struct Fleet {
    shards: Vec<Shard>,
    fleet: ShardFleet,
    manifests: Vec<CampaignManifest>,
    spool_dir: PathBuf,
    spools: usize,
}

impl Fleet {
    /// Set-up: spawn and connect the shards, build the manifests.
    fn set_up(seed: &Rng, chunks: usize, spool_dir: &Path) -> Result<Fleet, String> {
        let shards: Vec<Shard> = (0..SHARDS)
            .map(|_| Shard::spawn())
            .collect::<Result<_, _>>()?;
        let clients = shards
            .iter()
            .map(|s| Client::connect_tcp(s.addr).map_err(|e| format!("connect shard: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let mut rng = seed.fork(1);
        let manifests = (0..MANIFESTS)
            .map(|_| manifest(&mut rng, chunks))
            .collect::<Result<_, _>>()?;
        Ok(Fleet {
            shards,
            fleet: ShardFleet::new(clients, RetryPolicy::default()),
            manifests,
            spool_dir: spool_dir.to_path_buf(),
            spools: 0,
        })
    }

    fn shard_cpu_s(&self) -> f64 {
        self.shards.iter().map(|s| process_cpu_s(s.pid())).sum()
    }

    fn campaign(&mut self, k: usize, keep: Range<usize>, tr: Tracer) -> Result<Campaign, String> {
        let m = &self.manifests[k % self.manifests.len()];
        self.spools += 1;
        let spool = CheckoutSpool::create(&self.spool_dir, self.spools)
            .map_err(|e| format!("spool: {e}"))?;
        let stream =
            ReportStream::csv_spooled(SweepKind::Budget, RowTap::new(keep), Box::new(spool));
        let mut sink = Timed { inner: stream, tr };
        sink.tr.begin("serve.client.fleet.campaign", k as u64);
        let t = Instant::now();
        let (sink, stats) = self
            .fleet
            .run_manifest_to_sink(m, sink)
            .map_err(|e| format!("campaign {k}: {e}"))?;
        let Timed { inner, mut tr } = sink;
        tr.begin("sweep.stream.finish", k as u64);
        let (tap, summary) = inner.finish().map_err(|e| format!("render: {e}"))?;
        tr.end();
        let wall = secs(t);
        tr.end();
        Ok(Campaign {
            wall,
            points: m.items(),
            stats,
            summary,
            rows: tap.rows(),
            kept: tap.kept,
            spans: tr.into_spans(),
        })
    }

    /// Campaigns back to back until `seconds` have passed (at least one).
    fn batch(
        &mut self,
        first: usize,
        seconds: f64,
        keeps: &dyn Fn(usize) -> Range<usize>,
        trace: bool,
        epoch: Instant,
    ) -> Result<Vec<Campaign>, String> {
        let t = Instant::now();
        let mut out = Vec::new();
        while out.is_empty() || secs(t) < seconds {
            let k = first + out.len();
            out.push(self.campaign(k, keeps(k), Tracer::new(epoch, trace))?);
        }
        Ok(out)
    }
}

fn sizes(cs: &[Campaign]) -> Vec<(usize, f64)> {
    cs.iter().map(|c| (c.points, c.wall)).collect()
}

fn stripped(row: &str) -> String {
    row.split(',')
        .enumerate()
        .filter(|(i, _)| *i != FRONTIER_COLUMN)
        .map(|(_, cell)| cell)
        .collect::<Vec<_>>()
        .join(",")
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let root = Rng::new(opts.seed);
    let chunks = if opts.smoke { 2 * SHARDS } else { CHUNKS };
    let setups = if opts.smoke { 1 } else { SETUPS };
    let spool_dir = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&spool_dir).map_err(|e| format!("spool dir: {e}"))?;
    let epoch = Instant::now();

    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..setups {
        drop(kept.take());
        let t = Instant::now();
        let fleet = Fleet::set_up(&root, chunks, &spool_dir)?;
        setup_s.push(secs(t));
        kept = Some(fleet);
    }
    let mut fleet = kept.expect("at least one set-up");

    // The sampled chunk of each checked campaign, by campaign number.
    let mut pick = root.fork(2);
    let check_chunks: Vec<usize> = (0..CHECK_CAMPAIGNS).map(|_| pick.below(chunks)).collect();
    let keeps = |k: usize| match check_chunks.get(k) {
        Some(&c) => c * CHUNK_ITEMS..(c + 1) * CHUNK_ITEMS,
        None => 0..0,
    };

    // One untimed campaign warms the shards' allocators and caches.
    fleet.campaign(usize::MAX / 2, 0..0, Tracer::new(epoch, false))?;

    let mut out = Outcome::default();
    let campaigns = if opts.trace {
        let half = opts.seconds / 2.0;
        let plain = fleet.batch(0, half, &keeps, false, epoch)?;
        let cpu0 = fleet.shard_cpu_s();
        let t = Instant::now();
        let traced = fleet.batch(plain.len(), half, &keeps, true, epoch)?;
        let wall = secs(t);
        let busy = (fleet.shard_cpu_s() - cpu0) / (SHARDS as f64 * wall);
        out.set(
            "trace.overhead_share",
            Reading::one(batch_rate(&sizes(&plain)) / batch_rate(&sizes(&traced)) - 1.0),
        );
        out.set("serve.client.fleet.shard_busy_share", Reading::one(busy));
        coordinator_metrics(&mut out, &traced, wall);
        replay(&mut out, &fleet.manifests[0], &root, opts.smoke, epoch)?;
        let mut all = plain;
        all.extend(traced);
        all
    } else {
        let cpu0 = fleet.shard_cpu_s();
        let t = Instant::now();
        let cs = fleet.batch(0, opts.seconds, &keeps, false, epoch)?;
        let wall = secs(t);
        out.set("peak_rss_mb", Reading::one(peak_rss_mb()));
        let busy = (fleet.shard_cpu_s() - cpu0) / (SHARDS as f64 * wall);
        out.set_campaigns(&sizes(&cs));
        out.set("setup_s", Reading::median_of(setup_s));
        let peaks: Vec<usize> = cs.iter().map(|c| c.stats.peak_resident_points).collect();
        out.note(
            "reduce_peak_resident_points_max",
            peaks.iter().max().copied().unwrap_or(0),
        );
        out.note(
            "reduce_peak_resident_points_median",
            median(&peaks.iter().map(|&p| p as f64).collect::<Vec<_>>()),
        );
        out.note("shard_busy_share", busy);
        cs
    };
    let manifests = std::mem::take(&mut fleet.manifests);
    drop(fleet);

    check(&mut out, &campaigns, &check_chunks, &manifests)?;
    Ok(out)
}

/// Output checks, outside the timed section: every campaign delivers
/// all its points, and a seeded sample of chunks re-executed in-process
/// renders the same rows (frontier flag aside).
fn check(
    out: &mut Outcome,
    campaigns: &[Campaign],
    check_chunks: &[usize],
    manifests: &[CampaignManifest],
) -> Result<(), String> {
    let mut attempted = 0;
    let mut missing = 0;
    for c in campaigns {
        attempted += c.points;
        let delivered = c.stats.points.min(c.summary.points).min(c.rows);
        missing += c.points - delivered;
    }
    out.check(
        "point_count_equals_manifest_items",
        missing == 0,
        format!("{missing} of {attempted} points missing"),
    );

    let pool = WorkPool::serial();
    let mut wrong = 0;
    let mut compared = 0;
    for (k, &chunk) in check_chunks.iter().enumerate().take(campaigns.len()) {
        let m = &manifests[k % manifests.len()];
        let points = plan_manifest(m, &pool)
            .and_then(|plan| plan.execute_chunk(chunk, None))
            .map_err(|e| format!("re-execute chunk {chunk}: {e}"))?;
        let mut stream = ReportStream::csv(SweepKind::Budget, Vec::new());
        for p in &points {
            stream.push(p).map_err(|e| e.to_string())?;
        }
        let (bytes, _) = stream.finish().map_err(|e| e.to_string())?;
        let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
        let want: Vec<String> = text.lines().skip(1).map(stripped).collect();
        let got: Vec<String> = campaigns[k].kept.iter().map(|r| stripped(r)).collect();
        compared += want.len();
        if want.len() != got.len() {
            wrong += want.len();
            continue;
        }
        wrong += want.iter().zip(&got).filter(|(a, b)| a != b).count();
    }
    out.check(
        "sampled_chunks_render_identical_rows",
        wrong == 0 && compared > 0,
        format!("{wrong} of {compared} re-executed rows differ"),
    );
    out.attempted = attempted as u64;
    out.failed = (missing + wrong) as u64;
    Ok(())
}

/// Coordinator-side layers from the traced campaigns.
fn coordinator_metrics(out: &mut Outcome, traced: &[Campaign], wall: f64) {
    let max = |f: &dyn Fn(&Campaign) -> usize| traced.iter().map(f).max().unwrap_or(0) as f64;
    out.set(
        "sweep.stream.peak_frontier_classes",
        Reading::one(max(&|c| c.summary.peak_frontier_classes)),
    );
    out.set(
        "sweep.shard.reduce.peak_resident_points",
        Reading::one(max(&|c| c.stats.peak_resident_points)),
    );
    let spans = traced.iter().map(|c| (c.points, c.spans.clone())).collect();
    layers::fill_render(out, spans, wall);
}

/// Shard-side layers, replayed in-process on a seeded sample of the
/// first manifest's chunks through the same public calls a shard makes.
fn replay(
    out: &mut Outcome,
    m: &CampaignManifest,
    root: &Rng,
    smoke: bool,
    epoch: Instant,
) -> Result<(), String> {
    let ManifestShape::Budget { arch, budgets, .. } = &m.shape else {
        return Err("fleet manifests are budget campaigns".into());
    };
    let pool = WorkPool::serial();
    let picked = root
        .fork(3)
        .sample(m.chunks.len(), if smoke { 1 } else { REPLAY_CHUNKS });
    let mut tr = Tracer::new(epoch, true);
    let mut reducer = StreamingReducer::new(m, Discard);
    let (mut points, mut bytes) = (0usize, 0usize);
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for &c in &picked {
        let id = c as u64;
        let range = m.chunks[c].start..m.chunks[c].end;
        let (report, stats) = tr
            .span("sweep.shard.chunk", id, || {
                execute_manifest_chunk_traced(m, c, &pool, None)
            })
            .map_err(|e| e.to_string())?;
        let text = tr.span("core.wire.encode", id, || report.to_jsonl());
        let decoded = tr
            .span("core.wire.decode", id, || ChunkReport::from_jsonl(&text))
            .map_err(|e| e.to_string())?;
        tr.span("sweep.shard.reduce.ingest", id, || reducer.ingest(&decoded))
            .map_err(|e| e.to_string())?;
        points += stats.points;
        bytes += text.len();
        let chain = layers::chain(&mut tr, id, arch, &m.config, &budgets[range.clone()])?;
        // Warm pivots per point from the chunk's own counter, less the
        // chain's cold opening.
        warm.push((stats.pivots - chain[0]) as f64 / (stats.points - 1).max(1) as f64);
        if let Some(d) = layers::decompose(&mut tr, id, arch, budgets[range.start], &m.config)? {
            cold.push(d.cold_pivots as f64);
        }
    }
    let mut trace = Trace::default();
    trace.absorb(0, tr.into_spans());
    layers::fill(out, &trace, &cold, &warm);
    let sum = |name: &str| trace.durations_us(name).iter().sum::<f64>();
    out.set(
        "sweep.shard.chunk_ms",
        Reading::one(median(&trace.durations_us("sweep.shard.chunk")) / 1e3),
    );
    out.set(
        "core.wire.encode_us_per_point",
        Reading::one(sum("core.wire.encode") / points as f64),
    );
    out.set(
        "core.wire.decode_us_per_point",
        Reading::one(sum("core.wire.decode") / points as f64),
    );
    out.set(
        "core.wire.bytes_per_point",
        Reading::one(bytes as f64 / points as f64),
    );
    out.set(
        "sweep.shard.reduce.ingest_us_per_chunk",
        Reading::one(median(&trace.durations_us("sweep.shard.reduce.ingest"))),
    );
    let shard_side = sum("sweep.shard.chunk")
        + sum("core.wire.encode")
        + sum("core.wire.decode")
        + sum("sweep.shard.reduce.ingest");
    let sizing = sum("core.pipeline.chain_open") + sum("core.pipeline.warm_point");
    out.set("core.pipeline.lp_share", Reading::one(sizing / shard_side));
    out.spans.append(trace);
    Ok(())
}

//! The benchmark's workloads and metric names, shared by the binary
//! and its smoke test.

/// Every end-to-end metric, with its unit. Each workload reports all
/// of them; `perfbench/README.md` says what each means on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("points_per_sec", "points/s"),
    ("requests_per_sec", "req/s"),
    ("rtt_p50_ms", "ms"),
    ("rtt_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
];

/// Every per-layer metric, with its unit. A layer a workload does not
/// exercise reports 0 and is listed under `not_exercised` in the record.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.formulation.build_us", "us"),
    ("lp.prepare_us", "us"),
    ("lp.cold_solve_us", "us"),
    ("lp.cold_pivots", "count"),
    ("lp.warm_floor_us", "us"),
    ("lp.warm_pivot_ratio", "ratio"),
    ("core.pipeline.warm_point_us", "us"),
    ("core.pipeline.warm_pivots_per_point", "count"),
    ("core.pipeline.evaluate_ms", "ms"),
    ("core.pipeline.lp_share", "ratio"),
    ("core.translate.translate_us", "us"),
    ("core.wire.encode_us_per_point", "us"),
    ("core.wire.decode_us_per_point", "us"),
    ("core.wire.bytes_per_point", "B"),
    ("sweep.shard.chunk_ms", "ms"),
    ("sweep.shard.reduce.ingest_us_per_chunk", "us"),
    ("sweep.shard.reduce.peak_resident_points", "count"),
    ("sweep.stream.render_us_per_point", "us"),
    ("sweep.stream.peak_frontier_classes", "count"),
    ("sweep.pool.peak_parked_chunks", "count"),
    ("serve.client.fleet.shard_busy_share", "ratio"),
    ("serve.server.queue_wait_us_p50", "us"),
    ("serve.server.queue_wait_us_p99", "us"),
    ("serve.server.solve_us_p50", "us"),
    ("serve.server.solve_us_p99", "us"),
    ("serve.server.overhead_us_p50", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.warm_pivots_per_hit", "count"),
    ("serve.cache.cold_pivots_per_miss", "count"),
    ("sim.legacy.replication_ms", "ms"),
    ("sim.actors.replication_ms", "ms"),
    ("sim.legacy.requests_per_sec", "req/s"),
    ("sim.actors.requests_per_sec", "req/s"),
    ("trace.overhead_share", "ratio"),
    ("trace.accounted_share", "ratio"),
];

pub const WORKLOADS: &[&str] = &["fleet_budget_chain", "serve_mixed", "paper_eval"];

//! Every metric the benchmark reports: name, unit, direction and layer.
//! `BENCHMARK.json` must list exactly these (the smoke test checks it).

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// The crate (layer) it measures, or `e2e`.
    pub layer: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer,
    }
}

/// Reported by untraced runs (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("verdict_p50_ms", "ms", "lower", "e2e"),
    m("peak_rows_per_s", "rows/s", "higher", "e2e"),
    m("setup_s", "s", "lower", "e2e"),
    m("fit_s", "s", "lower", "e2e"),
    m("train_samples_per_s", "samples/s", "higher", "e2e"),
    m("validate_rows_per_s", "rows/s", "higher", "e2e"),
    m("detect_accuracy", "share", "higher", "e2e"),
    m("detect_recall", "share", "higher", "e2e"),
    m("repair_clean_share", "share", "higher", "e2e"),
    m("peak_rss_mib", "MiB", "lower", "e2e"),
];

/// Reported by traced runs (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    m(
        "sources.decode_us_per_row_csv",
        "us/row",
        "lower",
        "sources",
    ),
    m(
        "sources.decode_us_per_row_ndjson",
        "us/row",
        "lower",
        "sources",
    ),
    m("sources.ack_p50_ms", "ms", "lower", "sources"),
    m("sources.ack_p90_ms", "ms", "lower", "sources"),
    m("sources.refused", "count", "lower", "sources"),
    m("sources.bytes_in", "bytes", "lower", "sources"),
    m("tabular.csv_parse_us_per_row", "us/row", "lower", "tabular"),
    m("tabular.encode_us_per_row", "us/row", "lower", "tabular"),
    m("tabular.encoder_fit_ms", "ms", "lower", "tabular"),
    m("graph.build_ms", "ms", "lower", "graph"),
    m("gnn.session_open_us", "us", "lower", "gnn"),
    m("gnn.checksum_us", "us", "lower", "gnn"),
    m("gnn.forward_us_per_row", "us/row", "lower", "gnn"),
    m("gnn.forward_passes_per_frame", "count", "lower", "gnn"),
    m("gnn.repair_us_per_row", "us/row", "lower", "gnn"),
    m("gnn.train_step_ms", "ms", "lower", "gnn"),
    m("tensor.matmul_gflops", "GFLOP/s", "higher", "tensor"),
    m("core.validate_us_per_row", "us/row", "lower", "core"),
    m("core.verdict_self_us_per_row", "us/row", "lower", "core"),
    m("core.fit_other_s", "s", "lower", "core"),
    m("validate.busy_p50_ms", "ms", "lower", "validate"),
    m("validate.busy_p99_ms", "ms", "lower", "validate"),
    m("validate.busy_share", "share", "higher", "validate"),
    m("validate.dirty_share", "share", "lower", "validate"),
    m("validate.serve_vs_replay", "ratio", "lower", "validate"),
    m("stream.wait_p50_ms", "ms", "lower", "stream"),
    m("stream.wait_p99_ms", "ms", "lower", "stream"),
    m("stream.emit_lag_p50_ms", "ms", "lower", "stream"),
    m("stream.emit_lag_p99_ms", "ms", "lower", "stream"),
    m("stream.queue_depth_max", "count", "lower", "stream"),
    m("stream.dropped", "count", "lower", "stream"),
    m("stream.block_timeouts", "count", "lower", "stream"),
    m("stream.failed", "count", "lower", "stream"),
    m("stream.deadline_exceeded", "count", "lower", "stream"),
    m("stream.failed_share", "share", "lower", "stream"),
    m("persist.save_ms", "ms", "lower", "persist"),
    m("persist.load_ms", "ms", "lower", "persist"),
    m("loadgen.lag_p99_ms", "ms", "lower", "loadgen"),
    m("loadgen.frames_sent", "count", "higher", "loadgen"),
    m("trace.segment_loadgen_lag_ms", "ms", "lower", "trace"),
    m("trace.segment_edge_wait_ms", "ms", "lower", "trace"),
    m("trace.segment_validate_ms", "ms", "lower", "trace"),
    m("trace.segment_emit_lag_ms", "ms", "lower", "trace"),
    m("trace.verdict_p50_ms", "ms", "lower", "trace"),
    m("trace.verdict_p90_ms", "ms", "lower", "trace"),
    m("trace.verdict_p99_ms", "ms", "lower", "trace"),
    m("trace.ack_p99_ms", "ms", "lower", "trace"),
    m("trace.attributed_share", "share", "higher", "trace"),
    m("trace.overhead_share", "share", "lower", "trace"),
];

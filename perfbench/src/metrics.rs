//! Metric names, units and the result line.
//!
//! The two declared lists below mirror `BENCHMARK.json`; the self-tests
//! check that they agree, and [`Metrics::finish`] refuses a run that
//! emits a metric outside its list or misses one.

use std::fmt::Write as _;

/// End-to-end metrics (untraced run), `(name, unit)`. Every workload
/// reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (traced run), `(name, unit)`. A layer a workload
/// bypasses reports zero work.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sched.tasks", "count"),
    ("sched.task_p50_s", "s"),
    ("sched.task_max_s", "s"),
    ("sched.busy_share", "ratio"),
    ("traffic.generate_s", "s"),
    ("traffic.arrivals", "count"),
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.peak_queue_depth", "count"),
    ("sim.partitions", "count"),
    ("sim.vol_ctx_switches_per_kevent", "count"),
    ("sim.sys_share", "ratio"),
    ("sim.probe_impair_drops", "count"),
    ("sim.probe_overflow_drops", "count"),
    ("analysis.loss_s", "s"),
    ("analysis.phase_s", "s"),
    ("analysis.bottleneck_s", "s"),
    ("analysis.records_per_s", "1/s"),
    ("stream.records", "count"),
    ("stream.dropped", "count"),
    ("stream.push_s", "s"),
    ("stream.join_s", "s"),
    ("stream.records_per_s", "1/s"),
    ("stream.interim_snapshots", "count"),
    ("wire.frames", "count"),
    ("wire.frame_bytes", "B"),
    ("wire.encode_s", "s"),
    ("wire.encode_mb_per_s", "MB/s"),
    ("merged.ingest_s", "s"),
    ("merged.ingest_mb_per_s", "MB/s"),
    ("merged.fold_s", "s"),
    ("merged.peak_buffer_bytes", "B"),
    ("live.probes_sent", "count"),
    ("live.replies_received", "count"),
    ("live.echo_received", "count"),
    ("live.outbound_lost", "count"),
    ("live.return_lost", "count"),
    ("live.unsent", "count"),
    ("live.datagrams_per_send_call", "count"),
    ("live.datagrams_per_recv_call", "count"),
    ("live.fallback_datagrams", "count"),
    ("live.backpressure_deferrals", "count"),
    ("live.send_errors", "count"),
    ("live.stray_datagrams", "count"),
    ("live.duplicates", "count"),
    ("live.decode_errors", "count"),
    ("live.lateness_p50_us", "us"),
    ("live.lateness_p99_us", "us"),
    ("live.reactor_vol_ctx_switches", "count"),
    ("live.reactor_invol_ctx_switches", "count"),
    ("live.rtt_samples", "count"),
    ("live.rtt_p50_us", "us"),
    ("live.rtt_p99_us", "us"),
    ("live.echo_delay_p50_us", "us"),
    ("live.echo_delay_p99_us", "us"),
    ("live.cpu_us_per_probe", "us"),
    ("os.user_s", "s"),
    ("os.sys_s", "s"),
    ("os.vol_ctx_switches", "count"),
    ("os.invol_ctx_switches", "count"),
    ("os.udp_rcvbuf_errors", "count"),
    ("failed_share", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.main_span_share", "ratio"),
    ("trace.spans", "count"),
];

/// Metric values of one run, checked against a declared list.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// No metrics yet.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Record `name = value`. A later value for the same name replaces
    /// the earlier one.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Order the values as `declared` lists them, with their units.
    /// Errors name a declared metric that is missing or non-finite, or an
    /// emitted one that is not declared.
    pub fn finish(
        &self,
        declared: &[(&'static str, &'static str)],
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        if let Some((extra, _)) = self
            .values
            .iter()
            .find(|(n, _)| !declared.iter().any(|(d, _)| d == n))
        {
            return Err(format!("metric `{extra}` is emitted but not declared"));
        }
        declared
            .iter()
            .map(|&(name, unit)| match self.get(name) {
                Some(v) if v.is_finite() => Ok((name, v, unit)),
                Some(v) => Err(format!("metric `{name}` is not finite ({v})")),
                None => Err(format!("declared metric `{name}` was not emitted")),
            })
            .collect()
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`, each value with all its digits.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

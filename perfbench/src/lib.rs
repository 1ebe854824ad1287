//! End-to-end and per-layer benchmark of the SkinnerDB reproduction.
//!
//! One command runs one workload from a seed, checks every result, and
//! prints one JSON line of metrics: the end-to-end metrics of
//! [`END_TO_END`] from an untraced run, or the per-layer metrics of
//! [`layers::PER_LAYER`] from a traced run. See `perfbench/README.md`
//! for what each metric means on each workload.

pub mod check;
pub mod closed;
pub mod layers;
pub mod report;
pub mod serve;
pub mod stats;

use report::{Metrics, Object};

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &["job", "tpch", "serve"];

/// Every end-to-end metric an untraced run prints, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_qps", "1/s"),
];

/// The end-to-end values of one untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Median set-up time over the run's set-ups.
    pub setup_s: f64,
    /// `VmHWM` of the process.
    pub peak_rss_mb: f64,
    /// Median closed-loop pass over the query set.
    pub pass_s: f64,
    /// Median per-query latency.
    pub p50_ms: f64,
    /// p95 latency (for `serve`, the median over rounds of each round's).
    pub tail_ms: f64,
    /// Closed-loop queries completed per second.
    pub throughput_qps: f64,
}

impl EndToEnd {
    /// The metrics, in [`END_TO_END`] order.
    pub fn metrics(&self) -> Metrics {
        let values = [
            self.setup_s,
            self.peak_rss_mb,
            self.pass_s,
            self.p50_ms,
            self.tail_ms,
            self.throughput_qps,
        ];
        let mut m = Metrics::default();
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            m.push(name, v, unit);
        }
        m
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Results checked.
    pub attempted: u64,
    /// Results that failed, were refused, timed out or were wrong.
    pub failed: u64,
    /// End-to-end or per-layer metrics.
    pub metrics: Metrics,
    /// Workload-specific figures for the provenance line.
    pub details: Object,
    /// Exact work counters of the first traced pass (zero untraced).
    pub counters: Vec<(&'static str, u64)>,
}

/// Run `workload` (one of [`WORKLOADS`]).
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    Some(match workload {
        "job" => closed::run(closed::Closed::Job, seed, seconds, trace),
        "tpch" => closed::run(closed::Closed::Tpch, seed, seconds, trace),
        "serve" => serve::run(seed, seconds, trace),
        _ => return None,
    })
}

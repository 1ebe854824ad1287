//! Per-layer accounting for traced runs.
//!
//! The benchmark times its own calls into each crate from outside and
//! splits a call that covers several layers with the durations and
//! counts the program already returns (`RunStats`, `ExecMetrics`,
//! `BatchSummary`). Nothing inside the crates is instrumented.

use crate::report::Metrics;
use crate::stats;
use skinner_core::RunStats;
use std::time::Duration;

/// Every per-layer metric a traced run prints, with its unit, in
/// `BENCHMARK.json` order. Counts marked "per pass" sum one pass over
/// the workload's query set; times are means per query unless named
/// otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("query.parse_us", "us"),
    ("engine.preprocess_ms", "ms"),
    ("engine.preprocess_share", "ratio"),
    ("engine.filtered_rows", "count"),
    ("engine.base_rows", "count"),
    ("engine.index_bytes", "bytes"),
    ("engine.join_ms", "ms"),
    ("engine.steps", "count"),
    ("engine.steps_per_us", "1/us"),
    ("engine.slices", "count"),
    ("engine.result_attempts", "count"),
    ("engine.result_tuples", "count"),
    ("engine.dedup_useful_ratio", "ratio"),
    ("engine.trie_nodes", "count"),
    ("engine.trie_bytes", "bytes"),
    ("engine.result_bytes", "bytes"),
    ("codegen.slice_share", "ratio"),
    ("uct.nodes", "count"),
    ("uct.bytes", "bytes"),
    ("uct.top1_share", "ratio"),
    ("pool.chunks_per_slice", "ratio"),
    ("pool.thread_spawns", "count"),
    ("core.postprocess_ms", "ms"),
    ("core.postprocess_share", "ratio"),
    ("core.tuples_per_output_row", "ratio"),
    ("service.overhead_us", "us"),
    ("service.engine_ms", "ms"),
    ("service.warm_share", "ratio"),
    ("service.slices_per_query", "count"),
    ("service.cache_bytes", "bytes"),
    ("net.wire_us", "us"),
    ("net.rows_per_query", "count"),
    ("net.busy", "count"),
    ("load.late_p99_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
];

/// Sums over the `RunStats` of a set of executions.
#[derive(Debug, Default, Clone)]
pub struct EngineAcc {
    queries: u64,
    total: Duration,
    join_phase: Duration,
    postprocess: Duration,
    preprocess: Duration,
    join: Duration,
    overhead: Duration,
    steps: u64,
    slices: u64,
    join_chunks: u64,
    thread_spawns: u64,
    result_attempts: u64,
    result_tuples: u64,
    result_count: u64,
    output_rows: u64,
    trie_nodes: u64,
    uct_nodes: u64,
    filtered_rows: u64,
    base_rows: u64,
    codegen_slices: u64,
    warm: u64,
    top1_share_sum: f64,
    index_bytes_max: usize,
    trie_bytes_max: usize,
    result_bytes_max: usize,
    uct_bytes_max: usize,
}

impl EngineAcc {
    /// Account one execution that produced `output_rows` rows.
    pub fn observe(&mut self, s: &RunStats, output_rows: usize) {
        self.queries += 1;
        self.total += s.total;
        self.join_phase += s.join_phase;
        self.postprocess += s.postprocess;
        self.overhead += s.total.saturating_sub(s.join_phase + s.postprocess);
        self.result_count += s.result_count;
        self.output_rows += output_rows as u64;
        self.warm += u64::from(s.warm_start);
        let Some(m) = &s.metrics else { return };
        self.preprocess += m.preprocess_time;
        self.join += m.join_time;
        self.steps += m.steps;
        self.slices += m.slices;
        self.join_chunks += m.join_chunks;
        self.thread_spawns += m.thread_spawns;
        self.result_attempts += m.result_attempts;
        self.result_tuples += m.result_tuples as u64;
        self.trie_nodes += m.tracker_nodes as u64;
        self.uct_nodes += m.uct_nodes as u64;
        self.codegen_slices += m.codegen_slices;
        for &(filtered, base) in &m.table_cards {
            self.filtered_rows += filtered;
            self.base_rows += base;
        }
        self.top1_share_sum += m.top_k_share(1);
        self.index_bytes_max = self.index_bytes_max.max(m.index_bytes);
        self.trie_bytes_max = self.trie_bytes_max.max(m.tracker_bytes);
        self.result_bytes_max = self.result_bytes_max.max(m.result_bytes);
        self.uct_bytes_max = self.uct_bytes_max.max(m.uct_bytes);
    }

    /// Executions accounted.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Add `other`'s sums into `self`.
    pub fn merge(&mut self, other: &EngineAcc) {
        self.queries += other.queries;
        self.total += other.total;
        self.join_phase += other.join_phase;
        self.postprocess += other.postprocess;
        self.preprocess += other.preprocess;
        self.join += other.join;
        self.overhead += other.overhead;
        self.steps += other.steps;
        self.slices += other.slices;
        self.join_chunks += other.join_chunks;
        self.thread_spawns += other.thread_spawns;
        self.result_attempts += other.result_attempts;
        self.result_tuples += other.result_tuples;
        self.result_count += other.result_count;
        self.output_rows += other.output_rows;
        self.trie_nodes += other.trie_nodes;
        self.uct_nodes += other.uct_nodes;
        self.filtered_rows += other.filtered_rows;
        self.base_rows += other.base_rows;
        self.codegen_slices += other.codegen_slices;
        self.warm += other.warm;
        self.top1_share_sum += other.top1_share_sum;
        self.index_bytes_max = self.index_bytes_max.max(other.index_bytes_max);
        self.trie_bytes_max = self.trie_bytes_max.max(other.trie_bytes_max);
        self.result_bytes_max = self.result_bytes_max.max(other.result_bytes_max);
        self.uct_bytes_max = self.uct_bytes_max.max(other.uct_bytes_max);
    }

    /// The exact work counters the benchmark's own test compares
    /// between two traced runs of one seed.
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("engine.steps", self.steps),
            ("engine.slices", self.slices),
            ("engine.result_attempts", self.result_attempts),
            ("engine.result_tuples", self.result_tuples),
            ("pool.join_chunks", self.join_chunks),
            ("uct.nodes", self.uct_nodes),
            ("engine.trie_nodes", self.trie_nodes),
        ]
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Everything a traced run observed, turned into [`PER_LAYER`].
#[derive(Debug, Default)]
pub struct LayerReport {
    /// Executions over all traced passes (times and ratios).
    pub all: EngineAcc,
    /// The first traced pass alone (exact per-pass counts).
    pub first_pass: EngineAcc,
    /// Per-call `parse` durations.
    pub parse: Vec<Duration>,
    /// Per-query caller-side time beyond the executor's own total: the
    /// wire on `serve`, the call boundary in-process.
    pub boundary: Vec<Duration>,
    /// Rows received per query by the caller.
    pub rows: Vec<u64>,
    /// Queries refused with `Busy`.
    pub busy: u64,
    /// How late the generator issued each request.
    pub late: Vec<Duration>,
    /// Learning-cache size at the end of the run.
    pub cache_bytes: usize,
    /// Traced over untraced latency, minus one.
    pub trace_overhead_frac: f64,
}

impl LayerReport {
    /// The per-layer metrics, exactly the names of [`PER_LAYER`].
    pub fn metrics(&self) -> Metrics {
        let a = &self.all;
        let p = &self.first_pass;
        let n = a.queries.max(1) as f64;
        let total = a.total.as_secs_f64();
        let secs = |d: &[Duration]| d.iter().map(Duration::as_secs_f64).collect::<Vec<_>>();
        let mean = |d: &[Duration]| secs(d).iter().sum::<f64>() / d.len().max(1) as f64;
        let values: Vec<(&str, f64)> = vec![
            ("query.parse_us", stats::median(&secs(&self.parse)) * 1e6),
            ("engine.preprocess_ms", ms(a.preprocess) / n),
            (
                "engine.preprocess_share",
                ratio(a.preprocess.as_secs_f64(), total),
            ),
            ("engine.filtered_rows", p.filtered_rows as f64),
            ("engine.base_rows", p.base_rows as f64),
            ("engine.index_bytes", a.index_bytes_max as f64),
            ("engine.join_ms", ms(a.join) / n),
            ("engine.steps", p.steps as f64),
            ("engine.steps_per_us", ratio(a.steps as f64, us(a.join))),
            ("engine.slices", p.slices as f64),
            ("engine.result_attempts", p.result_attempts as f64),
            ("engine.result_tuples", p.result_tuples as f64),
            (
                "engine.dedup_useful_ratio",
                ratio(a.result_tuples as f64, a.result_attempts as f64),
            ),
            ("engine.trie_nodes", p.trie_nodes as f64),
            ("engine.trie_bytes", a.trie_bytes_max as f64),
            ("engine.result_bytes", a.result_bytes_max as f64),
            (
                "codegen.slice_share",
                ratio(a.codegen_slices as f64, a.slices as f64),
            ),
            ("uct.nodes", p.uct_nodes as f64),
            ("uct.bytes", a.uct_bytes_max as f64),
            ("uct.top1_share", a.top1_share_sum / n),
            (
                "pool.chunks_per_slice",
                ratio(p.join_chunks as f64, p.slices as f64),
            ),
            ("pool.thread_spawns", a.thread_spawns as f64),
            ("core.postprocess_ms", ms(a.postprocess) / n),
            (
                "core.postprocess_share",
                ratio(a.postprocess.as_secs_f64(), total),
            ),
            (
                "core.tuples_per_output_row",
                ratio(a.result_count as f64, a.output_rows as f64),
            ),
            ("service.overhead_us", us(a.overhead) / n),
            ("service.engine_ms", ms(a.join_phase + a.postprocess) / n),
            ("service.warm_share", a.warm as f64 / n),
            ("service.slices_per_query", a.slices as f64 / n),
            ("service.cache_bytes", self.cache_bytes as f64),
            ("net.wire_us", mean(&self.boundary) * 1e6),
            (
                "net.rows_per_query",
                self.rows.iter().sum::<u64>() as f64 / self.rows.len().max(1) as f64,
            ),
            ("net.busy", self.busy as f64),
            (
                "load.late_p99_ms",
                stats::tail(&secs(&self.late), 0.99).value * 1e3,
            ),
            ("trace_overhead_frac", self.trace_overhead_frac),
        ];
        let mut out = Metrics::default();
        for ((name, value), (want, unit)) in values.into_iter().zip(PER_LAYER) {
            assert_eq!(name, *want, "per-layer metric order");
            out.push(name, value, unit);
        }
        out
    }
}

//! The serving workload: `serve`.
//!
//! A `NetServer` over a `QueryService` (JOB-like catalog at scale 1.0,
//! core budget 2) runs on loopback in this process. Two connections
//! cycle the four `skinner_net::job_templates()` shapes, saturated (each
//! in a closed loop) or open-loop. Open-loop arrival `k` is due at
//! `t0 + k / rate` and goes to connection `k % 2`; it is sent on its
//! schedule whatever happened to earlier arrivals (a connection still
//! busy with its previous query sends it late, and the lateness is
//! recorded), and its latency runs from the time it was due to the last
//! byte of its result.
//!
//! Every response is fingerprinted and, after the timed region,
//! compared with direct in-process `Session` execution on a separate
//! service over the same catalog.

use crate::check::{canonical, ResultLog};
use crate::closed::{time_parse, JOB_SCALE, SETUP_REPEATS};
use crate::layers::{EngineAcc, LayerReport};
use crate::report::{peak_rss_mb, Object};
use crate::stats;
use crate::{EndToEnd, Outcome};
use skinner_engine::SkinnerCConfig;
use skinner_net::{ClientError, NetClient, NetServer, ServerConfig, Template};
use skinner_query::{parse, UdfRegistry};
use skinner_service::{QueryService, ServiceConfig, Session};
use skinner_storage::Catalog;
use skinner_workloads::job;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fixed arrival rate, about a fifth of saturation (queries/s).
pub const RATE_LOW: f64 = 125.0;
/// Fixed arrival rate, about half of saturation (queries/s).
pub const RATE_HIGH: f64 = 300.0;
/// Rates tried above `RATE_HIGH`, in order, for the reported `max_qps`.
pub const LADDER: &[f64] = &[350.0, 400.0, 450.0, 500.0, 550.0, 600.0, 650.0, 700.0];
/// The p99 latency limit a ladder rate must keep (ms).
pub const LIMIT_MS: f64 = 25.0;
/// Arrivals per ladder rate: enough for a p99 with ten samples beyond.
const RUNG_ARRIVALS: usize = 1200;
/// Tail quantile reported as `tail_ms`.
const TAIL: f64 = 0.95;
/// Measurement rounds of an untraced run.
const ROUNDS: usize = 6;
/// The service's core budget (`SkinnerCConfig::threads`).
const CORE_BUDGET: usize = 2;
/// Per-query timeout sent with every query (ms).
const TIMEOUT_MS: u64 = 30_000;

fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn service_over(catalog: Catalog, seed: u64) -> Arc<QueryService> {
    QueryService::new(
        catalog,
        UdfRegistry::default(),
        ServiceConfig {
            engine: SkinnerCConfig {
                threads: CORE_BUDGET,
                seed,
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

/// A running server with connected, warmed-up clients.
struct Served {
    catalog: Catalog,
    service: Arc<QueryService>,
    server: NetServer,
    clients: Vec<NetClient>,
}

impl Served {
    fn start(seed: u64, templates: &[Template]) -> Served {
        let catalog = job::generate(JOB_SCALE, seed).catalog;
        let service = service_over(catalog.clone(), seed);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let server = NetServer::spawn(service.clone(), listener, ServerConfig::default())
            .expect("spawn server");
        let mut clients: Vec<NetClient> = (0..connections())
            .map(|c| NetClient::connect(server.addr(), &format!("perfbench/{c}")).expect("connect"))
            .collect();
        for client in &mut clients {
            for t in templates {
                client.query(&t.sql, TIMEOUT_MS).expect("warm-up query");
            }
        }
        Served {
            catalog,
            service,
            server,
            clients,
        }
    }

    fn stop(self) {
        for c in self.clients {
            let _ = c.goodbye();
        }
        self.server.shutdown().expect("server shutdown");
    }
}

/// What happened to one arrival.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    /// Schedule position within its phase.
    index: usize,
    /// Sent this long after it was due.
    late: Duration,
    /// Due time to last byte; `None` if it failed or was refused.
    latency: Option<Duration>,
    /// Client send-to-last-byte minus the server's own total.
    wire: Duration,
    rows: u64,
    busy: bool,
}

/// Send `count` arrivals at `rate` over `clients`, recording every
/// result in `log`.
fn open_loop(
    clients: &mut [NetClient],
    templates: &[Template],
    rate: f64,
    count: usize,
    log: &mut ResultLog,
) -> Vec<Arrival> {
    let conns = clients.len();
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut all: Vec<Arrival> = Vec::with_capacity(count);
    std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut log = ResultLog::default();
                    let mut dead = false;
                    for k in (c..count).step_by(conns) {
                        let due = t0 + Duration::from_secs_f64(k as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let template = k % templates.len();
                        let sent = Instant::now();
                        let mut a = Arrival {
                            index: k,
                            late: sent.saturating_duration_since(due),
                            latency: None,
                            wire: Duration::ZERO,
                            rows: 0,
                            busy: false,
                        };
                        if !dead {
                            match client.query(&templates[template].sql, TIMEOUT_MS) {
                                Ok(o) => {
                                    let done = Instant::now();
                                    a.latency = Some(done - due);
                                    a.wire = (done - sent).saturating_sub(Duration::from_nanos(
                                        o.summary.total_nanos,
                                    ));
                                    a.rows = o.rows.len() as u64;
                                    log.record(template, &o.rows);
                                }
                                Err(ClientError::Busy { .. }) => a.busy = true,
                                Err(ClientError::Remote { .. }) => {}
                                Err(_) => dead = true,
                            }
                        }
                        if a.latency.is_none() {
                            log.missing += 1;
                        }
                        out.push(a);
                    }
                    (out, log)
                })
            })
            .collect();
        for w in workers {
            let (arrivals, part) = w.join().expect("load worker panicked");
            all.extend(arrivals);
            log.merge(part);
        }
    });
    all.sort_by_key(|a| a.index);
    all
}

fn latencies_s(arrivals: &[Arrival]) -> Vec<f64> {
    arrivals
        .iter()
        .filter_map(|a| a.latency.map(|d| d.as_secs_f64()))
        .collect()
}

/// One ladder step: a rate and what it achieved.
#[derive(Debug, Clone, Copy)]
struct Rung {
    rate: f64,
    p99_ms: f64,
    ok: bool,
}

impl Rung {
    /// A rung passes when nothing failed, its p99 is within the limit,
    /// and the last tenth of its arrivals (in schedule order) still
    /// completes within the limit at the median: no growing backlog.
    fn of(rate: f64, latencies: &[f64], none_failed: bool) -> Rung {
        let p99_ms = stats::tail(latencies, 0.99).value * 1e3;
        let tenth = (latencies.len() / 10).max(1).min(latencies.len());
        let last = &latencies[latencies.len() - tenth..];
        Rung {
            rate,
            p99_ms,
            ok: none_failed && p99_ms <= LIMIT_MS && stats::median(last) * 1e3 <= LIMIT_MS,
        }
    }
}

/// The highest rate keeping p99 within the limit: the last passing
/// rung, moved toward the first failing one by where the limit falls
/// between their p99s on a log scale.
fn max_qps(rungs: &[Rung]) -> f64 {
    let Some(fail) = rungs.iter().position(|r| !r.ok) else {
        return rungs.last().map_or(0.0, |r| r.rate);
    };
    if fail == 0 {
        return rungs[0].rate * (LIMIT_MS / rungs[0].p99_ms).min(1.0);
    }
    let (lo, hi) = (rungs[fail - 1], rungs[fail]);
    let span = (hi.p99_ms.ln() - lo.p99_ms.ln()).max(1e-9);
    let frac = ((LIMIT_MS.ln() - lo.p99_ms.ln()) / span).clamp(0.0, 1.0);
    lo.rate + (hi.rate - lo.rate) * frac
}

/// What a saturated block observed.
#[derive(Debug, Default)]
struct Saturated {
    /// Completed queries per second over the block.
    qps: f64,
    /// Every query's latency, in seconds.
    latencies: Vec<f64>,
    /// Wall time of each run of one query per template on one
    /// connection, in seconds.
    passes: Vec<f64>,
}

/// Every connection in a closed loop over the templates for `budget`.
/// Connection `c` starts at template `c`; every run of
/// `templates.len()` consecutive queries on a connection is one pass.
fn saturation(
    clients: &mut [NetClient],
    templates: &[Template],
    budget: f64,
    log: &mut ResultLog,
) -> Saturated {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(budget);
    let mut out = Saturated::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                s.spawn(move || {
                    let (mut part, mut latencies, mut passes) =
                        (ResultLog::default(), vec![], vec![]);
                    let mut pass = 0.0;
                    let mut k = 0;
                    while Instant::now() < end {
                        let t = (c + k) % templates.len();
                        let sent = Instant::now();
                        match client.query(&templates[t].sql, TIMEOUT_MS) {
                            Ok(o) => {
                                let dt = sent.elapsed().as_secs_f64();
                                latencies.push(dt);
                                pass += dt;
                                part.record(t, &o.rows);
                            }
                            Err(_) => part.missing += 1,
                        }
                        k += 1;
                        if k % templates.len() == 0 {
                            passes.push(pass);
                            pass = 0.0;
                        }
                    }
                    (part, latencies, passes)
                })
            })
            .collect();
        for w in workers {
            let (part, latencies, passes) = w.join().expect("saturation worker panicked");
            log.merge(part);
            out.latencies.extend(latencies);
            out.passes.extend(passes);
        }
    });
    out.qps = out.latencies.len() as f64 / start.elapsed().as_secs_f64();
    out
}

/// The untraced phases. [`ROUNDS`] rounds share 80% of the run, so a
/// slow stretch of the host lands in one block of each kind and the
/// medians over rounds discount it. Each round has a saturated block
/// (55% of the round), then open-loop blocks at the low (20%) and high
/// (25%) rates. The ladder gets what remains of the last 20%.
///
/// The end-to-end metrics come from the saturated blocks. Saturated,
/// the core budget gives each query one core, and latency follows the
/// host's speed. At light load a query fans its slices out over both
/// cores and waits for the slower one, so every preempted millisecond
/// of the shared 2-core host lands in its latency: single-connection
/// p95s swung 2x between runs. Open-loop latencies queue on top of that
/// (5-run spreads of 0.8-1.9), so they are reported in the provenance
/// line, not as end-to-end metrics.
fn measure(
    served: &mut Served,
    templates: &[Template],
    seconds: f64,
    log: &mut ResultLog,
) -> (EndToEnd, Object) {
    let (mut latencies, mut passes, mut tails, mut qps) = (vec![], vec![], vec![], vec![]);
    let (mut low, mut high) = (vec![], vec![]);
    let round = seconds * 0.8 / ROUNDS as f64;
    for _ in 0..ROUNDS {
        let clients = &mut served.clients;
        let sat = saturation(clients, templates, round * 0.55, log);
        qps.push(sat.qps);
        tails.push(stats::tail(&sat.latencies, TAIL));
        latencies.extend(sat.latencies);
        passes.extend(sat.passes);
        low.extend(latencies_s(&open_loop(
            clients,
            templates,
            RATE_LOW,
            phase(RATE_LOW, round * 0.2),
            log,
        )));
        high.extend(latencies_s(&open_loop(
            clients,
            templates,
            RATE_HIGH,
            phase(RATE_HIGH, round * 0.25),
            log,
        )));
    }
    let mut rungs = vec![Rung::of(RATE_HIGH, &high, true)];
    let ladder_end = Instant::now() + Duration::from_secs_f64(seconds * 0.2);
    for &rate in LADDER {
        if !rungs.last().is_some_and(|r| r.ok) || Instant::now() >= ladder_end {
            break;
        }
        let arrivals = open_loop(&mut served.clients, templates, rate, RUNG_ARRIVALS, log);
        let failed = latencies_s(&arrivals).len() < arrivals.len();
        rungs.push(Rung::of(rate, &latencies_s(&arrivals), !failed));
    }
    let ladder: Vec<String> = rungs
        .iter()
        .map(|r| format!("[{}, {}, {}]", r.rate, r.p99_ms, r.ok))
        .collect();
    let tail_values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let tail_quantile = tails.iter().map(|t| t.quantile).fold(1.0, f64::min);
    let details = Object::default()
        .num("rounds", ROUNDS as f64)
        .num("saturated_samples", latencies.len() as f64)
        .num("tail_quantile", tail_quantile)
        .num("low_rate_qps", RATE_LOW)
        .num("low_p50_ms", stats::median(&low) * 1e3)
        .num("low_p99_ms", stats::tail(&low, 0.99).value * 1e3)
        .num("low_samples", low.len() as f64)
        .num("high_rate_qps", RATE_HIGH)
        .num("high_p50_ms", stats::median(&high) * 1e3)
        .num("high_p99_ms", stats::tail(&high, 0.99).value * 1e3)
        .num("high_samples", high.len() as f64)
        .num("limit_ms", LIMIT_MS)
        .num("max_qps", max_qps(&rungs))
        .raw("ladder", format!("[{}]", ladder.join(", ")));
    let e2e = EndToEnd {
        setup_s: 0.0,
        peak_rss_mb: 0.0,
        pass_s: stats::median(&passes),
        p50_ms: stats::median(&latencies) * 1e3,
        tail_ms: stats::median(&tail_values) * 1e3,
        throughput_qps: stats::median(&qps),
    };
    (e2e, details)
}

/// Arrivals in a fixed-rate phase of `secs` at `rate`.
fn phase(rate: f64, secs: f64) -> usize {
    ((rate * secs) as usize).max(40)
}

/// The traced phases: the low rate untraced and traced back to back
/// (their p50s give the tracing overhead), then the high rate traced;
/// the traced phases feed the wire and generator metrics.
fn measure_traced(
    served: &mut Served,
    templates: &[Template],
    seconds: f64,
    log: &mut ResultLog,
    layers: &mut LayerReport,
) {
    let clients = &mut served.clients;
    let plain = open_loop(
        clients,
        templates,
        RATE_LOW,
        phase(RATE_LOW, seconds * 0.25),
        log,
    );
    let mut traced = open_loop(
        clients,
        templates,
        RATE_LOW,
        phase(RATE_LOW, seconds * 0.25),
        log,
    );
    layers.trace_overhead_frac =
        stats::median(&latencies_s(&traced)) / stats::median(&latencies_s(&plain)) - 1.0;
    traced.extend(open_loop(
        clients,
        templates,
        RATE_HIGH,
        phase(RATE_HIGH, seconds * 0.25),
        log,
    ));
    for a in &traced {
        layers.late.push(a.late);
        layers.busy += u64::from(a.busy);
        if a.latency.is_some() {
            layers.boundary.push(a.wire);
            layers.rows.push(a.rows);
        }
    }
}

/// The engine, core and service layers of a traced run: passes of
/// `parse` + `Session::execute_query` on the in-process `session` (warm
/// from the reference executions) for a quarter of the run, plus
/// `parse` timed alone.
fn measure_in_process(
    session: &mut Session,
    catalog: &Catalog,
    templates: &[Template],
    seconds: f64,
    log: &mut ResultLog,
    layers: &mut LayerReport,
) {
    let udfs = UdfRegistry::default();
    let end = Instant::now() + Duration::from_secs_f64(seconds * 0.25);
    while layers.all.queries() == 0 || Instant::now() < end {
        let mut acc = EngineAcc::default();
        for (i, t) in templates.iter().enumerate() {
            let p = Instant::now();
            let q = parse(&t.sql, catalog, &udfs).expect("template parses");
            layers.parse.push(p.elapsed());
            match session.execute_query(&q) {
                Ok(r) => {
                    acc.observe(&r.stats, r.table.num_rows());
                    log.record(i, &r.table.rows);
                }
                Err(_) => log.missing += 1,
            }
        }
        if layers.all.queries() == 0 {
            layers.first_pass = acc.clone();
        }
        layers.all.merge(&acc);
    }
    let sql: Vec<String> = templates.iter().map(|t| t.sql.clone()).collect();
    layers
        .parse
        .extend(time_parse(&sql, catalog, Duration::from_millis(200)));
}

/// Run `serve` for `seconds` and check every response.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let templates = skinner_net::job_templates();
    let mut setup = Vec::new();
    let mut served = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(s) = served.take() {
            Served::stop(s);
        }
        let t = Instant::now();
        served = Some(Served::start(seed, &templates));
        setup.push(t.elapsed().as_secs_f64());
    }
    let mut served = served.expect("at least one set-up");

    let mut log = ResultLog::default();
    let mut layers = LayerReport::default();
    let measured = if trace {
        measure_traced(&mut served, &templates, seconds, &mut log, &mut layers);
        None
    } else {
        Some(measure(&mut served, &templates, seconds, &mut log))
    };
    let rss = peak_rss_mb();
    layers.cache_bytes = served.service.learning_cache().approx_bytes();
    let connections = served.clients.len();
    let catalog = served.catalog.clone();
    Served::stop(served);

    // Reference: direct in-process execution on a separate service.
    let local = service_over(catalog.clone(), seed);
    let mut session = local.session();
    let reference: Vec<_> = templates
        .iter()
        .map(|t| {
            canonical(
                &session
                    .execute(&t.sql)
                    .expect("reference execution")
                    .table
                    .rows,
            )
        })
        .collect();
    if trace {
        measure_in_process(
            &mut session,
            &catalog,
            &templates,
            seconds,
            &mut log,
            &mut layers,
        );
    }
    let verdict = log.verify(&reference);
    let wrong: Vec<&str> = verdict
        .wrong
        .iter()
        .map(|&i| templates[i].name.as_str())
        .collect();
    let mut details = Object::default()
        .num("connections", connections as f64)
        .raw("wrong_templates", format!("{wrong:?}"));
    let metrics = match measured {
        Some((e2e, phases)) => {
            details = details.raw("phases", phases.to_json());
            EndToEnd {
                setup_s: stats::median(&setup),
                peak_rss_mb: rss,
                ..e2e
            }
            .metrics()
        }
        None => layers.metrics(),
    };
    Outcome {
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
        details,
        counters: layers.first_pass.counters().to_vec(),
    }
}

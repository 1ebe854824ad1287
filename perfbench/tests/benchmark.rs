//! The benchmark's own checks: exact counters repeat, every workload
//! prints exactly the metrics `BENCHMARK.json` declares.

use skinner_perfbench::layers::PER_LAYER;
use skinner_perfbench::{run, END_TO_END, WORKLOADS};

fn names(metrics: &skinner_perfbench::report::Metrics) -> Vec<&str> {
    metrics.0.iter().map(|(n, ..)| n.as_str()).collect()
}

#[test]
fn traced_runs_of_one_seed_repeat_the_exact_counters() {
    for workload in ["job", "tpch"] {
        let a = run(workload, 7, 0.1, true).expect("known workload");
        let b = run(workload, 7, 0.1, true).expect("known workload");
        assert_eq!((a.failed, b.failed), (0, 0), "{workload}: wrong results");
        assert!(
            a.counters.iter().all(|&(_, v)| v > 0),
            "{workload}: {:?}",
            a.counters
        );
        assert_eq!(a.counters, b.counters, "{workload}: counters differ");
        assert_eq!(
            names(&a.metrics),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
    }
}

#[test]
fn serve_prints_every_end_to_end_metric_and_checks_results() {
    let out = run("serve", 7, 0.5, false).expect("known workload");
    assert_eq!(out.failed, 0);
    assert!(out.attempted > 0);
    assert_eq!(
        names(&out.metrics),
        END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>()
    );
    assert!(
        out.metrics.0.iter().all(|(_, v, _)| *v > 0.0),
        "{:?}",
        out.metrics
    );
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(run("nope", 1, 0.1, false).is_none());
}

#[test]
fn benchmark_json_declares_exactly_these_names() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let declared: Vec<&str> = json
        .split("\"name\": \"")
        .skip(1)
        .map(|s| &s[..s.find('"').expect("closing quote")])
        .collect();
    let mut expected: Vec<&str> = WORKLOADS.to_vec();
    expected.extend(END_TO_END.iter().map(|m| m.0));
    expected.extend(PER_LAYER.iter().map(|m| m.0));
    assert_eq!(declared, expected);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "missing {entry}");
    }
}

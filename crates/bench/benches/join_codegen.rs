//! Criterion bench: the compiled join kernel vs. the generic reference
//! kernel on two chain families of 2..=9 tables.
//!
//! * `fk` — integer FK chains: one exact-int equality per table pair,
//!   so every jump is an `IntEq` posting cursor with its equality
//!   elided.
//! * `composite` — correlated composite-key chains: two key columns per
//!   table pair, where neither component alone separates groups (each
//!   single column matches ~16-32 rows) but the pair is unique to a
//!   group of ~2 rows. Pre-processing fuses the pair into one key vector
//!   plus a composite index, so every jump is a `FusedEq` posting cursor
//!   with both conjuncts re-verified.
//!
//! Each configuration runs the *same* complete join to exhaustion under
//! the canonical order, through a counting sink — so both kernels do
//! identical logical work (same candidate sequence, same result tuples)
//! and the measurement isolates the kernel: posting cursors, elided
//! equalities and the hoisted leaf loop against the generic kernel's
//! per-tuple column re-resolution and per-advance index probe. Orders of
//! 7..=9 tables exercise the runtime arity past the old six-table
//! ceiling.
//!
//! Run with `cargo bench --bench join_codegen`. Min and mean ns per full
//! join and the kernel-over-generic ratios are merged into
//! `BENCH_join.json` (repo root) under the `codegen` key.

use criterion::{BenchmarkId, Criterion};
use skinner_engine::multiway::CountingSink;
use skinner_engine::{MultiwayJoin, PreparedQuery};
use skinner_query::{Query, QueryBuilder};
use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};

const ROWS: usize = 2048;
/// Distinct join keys (FK chains) resp. fused groups (composite chains):
/// ~2 rows each per table, so the full join stays small enough to run
/// to exhaustion at every arity.
const KEYS: i64 = 1024;
const MIN_TABLES: usize = 2;
const MAX_TABLES: usize = 9;
const FAMILIES: [&str; 2] = ["fk", "composite"];
const KERNELS: [&str; 2] = ["kernel", "generic"];

/// Chain of `m` tables. `fk`: t0.k1 = t1.k1, ..., t{m-2}.k1 = t{m-1}.k1
/// on a hashed key. `composite`: the same chain on (k1, k2), where both
/// components derive from one hidden group id `g < KEYS` — `k1 = g mod
/// 64`, `k2 = g mod 89`; lcm(64, 89) > KEYS, so the pair determines `g`
/// while each component alone is coarse.
fn chain(family: &str, m: usize) -> (Catalog, Query) {
    let group = |i: i64| i.wrapping_mul(2654435761).rem_euclid(KEYS);
    let composite = family == "composite";
    let mut cat = Catalog::new();
    for t in 0..m {
        let (k1, k2): (Vec<i64>, Vec<i64>) = (0..ROWS as i64)
            .map(|i| match composite {
                true => (group(i).rem_euclid(64), group(i).rem_euclid(89)),
                false => (group(i), 0),
            })
            .unzip();
        cat.register(
            Table::new(
                format!("t{t}"),
                Schema::new([
                    ColumnDef::new("k1", ValueType::Int),
                    ColumnDef::new("k2", ValueType::Int),
                    ColumnDef::new("v", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(k1),
                    Column::from_ints(k2),
                    Column::from_ints((0..ROWS as i64).collect()),
                ],
            )
            .unwrap(),
        );
    }
    let keys: &[&str] = if composite { &["k1", "k2"] } else { &["k1"] };
    let mut qb = QueryBuilder::new(&cat);
    for t in 0..m {
        qb.table(&format!("t{t}")).unwrap();
    }
    for t in 0..m - 1 {
        for k in keys {
            let j = qb
                .col(&format!("t{t}.{k}"))
                .unwrap()
                .eq(qb.col(&format!("t{}.{k}", t + 1)).unwrap());
            qb.filter(j);
        }
    }
    qb.select_col("t0.v").unwrap();
    let q = qb.build().unwrap();
    (cat, q)
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_codegen");
    for family in FAMILIES {
        for m in MIN_TABLES..=MAX_TABLES {
            let (_cat, q) = chain(family, m);
            let pq = PreparedQuery::new(&q, true, 1);
            assert_eq!(pq.composites.is_empty(), family == "fk");
            let order: Vec<usize> = (0..m).collect();
            let plan = pq.plan_order(&order);
            let spec = pq.plan_spec(&order);
            let offsets = vec![0u32; m];
            let run = |kernel: &str, join: &mut MultiwayJoin<'_>| {
                let mut state = offsets.clone();
                let mut sink = CountingSink::default();
                match kernel {
                    "kernel" => {
                        join.continue_join(&order, &plan, &offsets, &mut state, u64::MAX, &mut sink)
                    }
                    _ => join.continue_join_generic(
                        &order,
                        &spec,
                        &offsets,
                        &mut state,
                        u64::MAX,
                        &mut sink,
                    ),
                };
                sink.attempts
            };

            // Both kernels must emit the same tuples before we time them.
            let mut join = MultiwayJoin::new(&pq);
            let attempts = run("kernel", &mut join);
            assert_eq!(attempts, run("generic", &mut join), "{family} m={m}");
            assert!(attempts > 0, "{family} m={m}: empty join benches nothing");

            for kernel in KERNELS {
                let id = BenchmarkId::new(format!("{kernel}/{family}"), format!("m{m}"));
                group.bench_with_input(id, &m, |b, _| {
                    let mut join = MultiwayJoin::new(&pq);
                    b.iter(|| criterion::black_box(run(kernel, &mut join)))
                });
            }
        }
    }
    group.finish();
}

/// `"name": value` lines of a JSON object body, one per entry.
fn json_entries(entries: &[(String, f64)], digits: usize) -> String {
    entries
        .iter()
        .map(|(n, v)| format!("      \"{n}\": {v:.digits$}"))
        .collect::<Vec<_>>()
        .join(",\n")
}

fn main() {
    let mut criterion = Criterion::default();
    bench_kernels(&mut criterion);

    let names: Vec<String> = FAMILIES
        .iter()
        .flat_map(|f| {
            (MIN_TABLES..=MAX_TABLES)
                .flat_map(move |m| KERNELS.map(|k| format!("join_codegen/{k}/{f}/m{m}")))
        })
        .collect();
    let lookup = |results: &[(String, f64)], name: &str| -> f64 {
        results
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, ns)| *ns)
            .expect("bench result")
    };
    let pick = |results: &[(String, f64)]| -> Vec<(String, f64)> {
        names
            .iter()
            .map(|n| (n.clone(), lookup(results, n)))
            .collect()
    };
    let min = pick(&criterion.min_results);
    let mean = pick(&criterion.results);
    let speedup: Vec<(String, f64)> = FAMILIES
        .iter()
        .flat_map(|f| (MIN_TABLES..=MAX_TABLES).map(move |m| (*f, m)))
        .map(|(f, m)| {
            let at = |k: &str| lookup(&min, &format!("join_codegen/{k}/{f}/m{m}"));
            let sp = at("generic") / at("kernel");
            println!("{f} m{m}: kernel {sp:.2}x over generic (min)");
            (format!("{f}/m{m}"), sp)
        })
        .collect();

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let section = format!(
        "{{\n    \"workload\": \"FK and composite-key chains m={MIN_TABLES}..{MAX_TABLES}, \
         {ROWS} rows/table, {KEYS} keys/groups, full join to exhaustion, counting sink\",\n    \
         \"host_cores\": {cores},\n    \"min_ns\": {{\n{}\n    }},\n    \"mean_ns\": {{\n{}\n    }},\n    \
         \"speedup_vs_generic_min\": {{\n{}\n    }}\n  }}",
        json_entries(&min, 0),
        json_entries(&mean, 0),
        json_entries(&speedup, 2),
    );
    let path = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_join.json"
    ));
    skinner_bench::upsert_bench_json(path, "codegen", &section).expect("write BENCH_join.json");
}

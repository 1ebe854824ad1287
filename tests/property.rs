//! Property-based tests over the core invariants:
//!
//! * Skinner-C produces exactly the same result set as a direct engine
//!   on arbitrary generated schemas/queries (Theorem 5.3),
//! * every valid join order yields the same multi-way join result,
//! * the offset-range-partitioned join produces exactly the result set
//!   of the sequential compiled kernel and the generic reference
//!   kernel, for random catalogs, orders, budgets, and thread counts,
//!   and sequential slices never spend more than their step budget,
//! * the progress tracker never loses results under arbitrary
//!   slice/order interleavings,
//! * the pyramid timeout scheme keeps its Lemma 5.4/5.5 guarantees for
//!   arbitrary iteration counts.
//!
//! `SKINNER_TEST_THREADS` (default 1) sets the Skinner-C worker count for
//! the end-to-end properties, so CI can run the whole suite once with a
//! multi-threaded configuration.

use proptest::prelude::*;
use skinnerdb::core::PyramidTimeouts;
use skinnerdb::engine::multiway::{ContinueResult, ResultSet};
use skinnerdb::engine::{KernelJump, MultiwayJoin, PreparedQuery, SkinnerC, SkinnerCConfig};
use skinnerdb::prelude::*;
use skinnerdb::query::JoinGraph;
use skinnerdb::query::TableSet;

/// Skinner-C worker threads for the end-to-end properties (CI runs the
/// suite a second time with `SKINNER_TEST_THREADS=4` to exercise the
/// partitioned join path everywhere).
fn env_threads() -> usize {
    std::env::var("SKINNER_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Generate a random chain query over `m` tables with random small data.
fn arb_chain_case() -> impl Strategy<Value = (Catalog, Query)> {
    (2usize..5, 1usize..24, 2i64..6, any::<u64>()).prop_map(|(m, rows, key_space, seed)| {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cat = Catalog::new();
        for t in 0..m {
            let keys: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..key_space)).collect();
            let vals: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..10)).collect();
            cat.register(
                Table::new(
                    format!("t{t}"),
                    Schema::new([
                        ColumnDef::new("k", ValueType::Int),
                        ColumnDef::new("v", ValueType::Int),
                    ]),
                    vec![Column::from_ints(keys), Column::from_ints(vals)],
                )
                .expect("table"),
            );
        }
        let mut qb = QueryBuilder::new(&cat);
        for t in 0..m {
            qb.table(&format!("t{t}")).expect("register table");
        }
        for t in 0..m - 1 {
            let j = qb
                .col(&format!("t{t}.k"))
                .expect("col")
                .eq(qb.col(&format!("t{}.k", t + 1)).expect("col"));
            qb.filter(j);
        }
        // a random unary filter on a random table
        let ft = rng.gen_range(0..m);
        let f = qb
            .col(&format!("t{ft}.v"))
            .expect("col")
            .lt(Expr::lit(rng.gen_range(1..11i64)));
        qb.filter(f);
        qb.select_col("t0.v").expect("select");
        let q = qb.build().expect("query");
        (cat, q)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn skinner_c_matches_engine((_cat, q) in arb_chain_case()) {
        let truth = ColEngine::new()
            .execute(&q, &ExecOptions { count_only: true, ..Default::default() })
            .result_count;
        let out = SkinnerC::new(SkinnerCConfig {
            budget: 16, // tiny slices: maximal order switching
            threads: env_threads(),
            ..Default::default()
        })
        .run(&q);
        prop_assert_eq!(out.result_count, truth);
    }

    #[test]
    fn all_valid_orders_same_result((_cat, q) in arb_chain_case()) {
        let pq = PreparedQuery::new(&q, true, 1);
        prop_assume!(!pq.any_empty());
        let graph = JoinGraph::from_query(&q);
        let m = q.num_tables();
        // enumerate valid orders (chain ⇒ at most 2^(m-1) ≤ 16)
        let mut orders = Vec::new();
        fn rec(graph: &JoinGraph, m: usize, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if prefix.len() == m {
                out.push(prefix.clone());
                return;
            }
            let chosen: TableSet = prefix.iter().copied().collect();
            for t in graph.eligible_next(chosen).iter() {
                prefix.push(t);
                rec(graph, m, prefix, out);
                prefix.pop();
            }
        }
        rec(&graph, m, &mut Vec::new(), &mut orders);
        let mut counts = Vec::new();
        for order in &orders {
            let plan = pq.plan_order(order);
            let mut join = MultiwayJoin::new(&pq);
            let offsets = vec![0u32; m];
            let mut state = offsets.clone();
            let mut rs = ResultSet::new();
            join.continue_join(order, &plan, &offsets, &mut state, u64::MAX, &mut rs);
            counts.push(rs.len());
        }
        prop_assert!(counts.windows(2).all(|w| w[0] == w[1]), "counts {:?}", counts);
    }

    #[test]
    fn specialized_kernel_matches_generic_eval(
        (_cat, q) in arb_chain_case(),
        oseed in any::<u64>(),
        budget in 3u64..48,
    ) {
        // Differential test: the compiled kernel (typed slices, direct
        // index refs, arena result set), run in small slices, must
        // produce exactly the result set of the generic
        // `CompiledPred::eval` reference kernel run in one shot —
        // for random catalogs, random valid orders, with and without
        // hash indexes.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let graph = JoinGraph::from_query(&q);
        let m = q.num_tables();
        let mut rng = SmallRng::seed_from_u64(oseed);
        let mut order: Vec<usize> = Vec::with_capacity(m);
        let mut chosen = TableSet::EMPTY;
        while order.len() < m {
            let elig: Vec<usize> = graph.eligible_next(chosen).iter().collect();
            let t = elig[rng.gen_range(0..elig.len())];
            order.push(t);
            chosen.insert(t);
        }
        for indexes in [true, false] {
            let pq = PreparedQuery::new(&q, indexes, 1);
            prop_assume!(!pq.any_empty());
            let plan = pq.plan_order(&order);
            let spec = pq.plan_spec(&order);
            let offsets = vec![0u32; m];
            let mut join = MultiwayJoin::new(&pq);

            let mut state = offsets.clone();
            let mut rs_generic = ResultSet::new();
            join.continue_join_generic(
                &order, &spec, &offsets, &mut state, u64::MAX, &mut rs_generic,
            );

            let mut state = offsets.clone();
            let mut rs_special = ResultSet::new();
            let mut slices = 0u64;
            // A budget below the walk-down depth live-locks (the re-walk
            // repeats without advancing); clamp like the Skinner-C driver.
            let budget = budget.max(4 * m as u64);
            loop {
                slices += 1;
                prop_assert!(slices < 5_000_000, "no termination");
                let (res, _) = join.continue_join(
                    &order, &plan, &offsets, &mut state, budget, &mut rs_special,
                );
                if res == ContinueResult::Exhausted {
                    break;
                }
            }

            let mut a: Vec<Vec<u32>> = rs_generic.iter().map(|t| t.to_vec()).collect();
            let mut b: Vec<Vec<u32>> = rs_special.iter().map(|t| t.to_vec()).collect();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b, "kernel divergence: order {:?} indexes {}", order, indexes);
        }
    }

    #[test]
    fn parallel_join_matches_sequential_and_generic(
        (_cat, q) in arb_chain_case(),
        oseed in any::<u64>(),
        budget in 3u64..48,
        threads in 2usize..5,
    ) {
        // Differential test for the partitioned join: the parallel path
        // (offset chunks on scoped workers, shard merge, cursor fold),
        // run in small slices so budget exhaustion hits mid-chunk
        // constantly, must produce exactly the result set of (a) the
        // sequential compiled kernel run the same way and (b) the
        // generic reference kernel run in one shot — for random
        // catalogs, random valid orders, random budgets and thread
        // counts, with and without hash indexes.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let graph = JoinGraph::from_query(&q);
        let m = q.num_tables();
        let mut rng = SmallRng::seed_from_u64(oseed);
        let mut order: Vec<usize> = Vec::with_capacity(m);
        let mut chosen = TableSet::EMPTY;
        while order.len() < m {
            let elig: Vec<usize> = graph.eligible_next(chosen).iter().collect();
            let t = elig[rng.gen_range(0..elig.len())];
            order.push(t);
            chosen.insert(t);
        }
        for indexes in [true, false] {
            let pq = PreparedQuery::new(&q, indexes, 1);
            prop_assume!(!pq.any_empty());
            let plan = pq.plan_order(&order);
            let spec = pq.plan_spec(&order);
            let offsets = vec![0u32; m];
            let budget = budget.max(4 * m as u64);

            // (b) generic oracle, one shot
            let mut join = MultiwayJoin::new(&pq);
            let mut state = offsets.clone();
            let mut rs_generic = ResultSet::new();
            join.continue_join_generic(
                &order, &spec, &offsets, &mut state, u64::MAX, &mut rs_generic,
            );

            // run one kernel config in `budget`-sized slices to exhaustion
            let run_sliced = |workers: usize| -> Vec<Vec<u32>> {
                let mut join = MultiwayJoin::with_threads(&pq, workers);
                let mut state = offsets.clone();
                let mut rs = ResultSet::new();
                let mut slices = 0u64;
                loop {
                    slices += 1;
                    assert!(slices < 5_000_000, "no termination");
                    let (res, _) = join.continue_join(
                        &order, &plan, &offsets, &mut state, budget, &mut rs,
                    );
                    if res == ContinueResult::Exhausted {
                        break;
                    }
                }
                let mut out: Vec<Vec<u32>> = rs.iter().map(|t| t.to_vec()).collect();
                out.sort();
                out
            };
            let sequential = run_sliced(1);
            let parallel = run_sliced(threads);

            let mut oracle: Vec<Vec<u32>> = rs_generic.iter().map(|t| t.to_vec()).collect();
            oracle.sort();
            prop_assert_eq!(
                &sequential, &oracle,
                "sequential/generic divergence: order {:?} indexes {}", order, indexes
            );
            prop_assert_eq!(
                &parallel, &oracle,
                "parallel/generic divergence: order {:?} indexes {} threads {}",
                order, indexes, threads
            );
        }
    }

    #[test]
    fn codegen_matches_bound_and_generic(
        (_cat, q) in arb_chain_case(),
        oseed in any::<u64>(),
        budget in 3u64..48,
        threads in 2usize..5,
    ) {
        // Differential test for the compiled kernel `plan_order` binds
        // (runtime arity, posting-list cursors, elided index-implied
        // equality predicates, hoisted leaf loop), run in small slices:
        // sequential slices must emit byte-for-byte the generic
        // reference kernel's tuple sequence and never spend more than
        // their budget; partitioned slices must produce the same tuple
        // set — for random catalogs, random valid orders, with and
        // without hash indexes.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let graph = JoinGraph::from_query(&q);
        let m = q.num_tables();
        let mut rng = SmallRng::seed_from_u64(oseed);
        let mut order: Vec<usize> = Vec::with_capacity(m);
        let mut chosen = TableSet::EMPTY;
        while order.len() < m {
            let elig: Vec<usize> = graph.eligible_next(chosen).iter().collect();
            let t = elig[rng.gen_range(0..elig.len())];
            order.push(t);
            chosen.insert(t);
        }
        for indexes in [true, false] {
            let pq = PreparedQuery::new(&q, indexes, 1);
            prop_assume!(!pq.any_empty());
            let plan = pq.plan_order(&order);
            let spec = pq.plan_spec(&order);
            let offsets = vec![0u32; m];
            let budget = budget.max(4 * m as u64);

            // Oracle: generic one-shot (its emit order is the
            // byte-for-byte reference).
            let mut join = MultiwayJoin::new(&pq);
            let mut state = offsets.clone();
            let mut rs_generic = ResultSet::new();
            join.continue_join_generic(
                &order, &spec, &offsets, &mut state, u64::MAX, &mut rs_generic,
            );
            let oracle: Vec<Vec<u32>> = rs_generic.iter().map(|t| t.to_vec()).collect();

            // The kernel, sliced to exhaustion.
            let run_sliced = |workers: usize| -> Vec<Vec<u32>> {
                let mut join = MultiwayJoin::with_threads(&pq, workers);
                let mut state = offsets.clone();
                let mut rs = ResultSet::new();
                let mut slices = 0u64;
                loop {
                    slices += 1;
                    assert!(slices < 5_000_000, "no termination");
                    let (res, steps) = join.continue_join(
                        &order, &plan, &offsets, &mut state, budget, &mut rs,
                    );
                    assert!(workers > 1 || steps <= budget, "slice overshot its budget");
                    if res == ContinueResult::Exhausted {
                        break;
                    }
                }
                rs.iter().map(|t| t.to_vec()).collect()
            };

            prop_assert_eq!(
                &run_sliced(1), &oracle,
                "codegen/generic divergence: order {:?} indexes {}", order, indexes
            );
            // Parallel: same distinct set (worker merge order may differ).
            let mut parallel = run_sliced(threads);
            parallel.sort();
            let mut sorted = oracle.clone();
            sorted.sort();
            prop_assert_eq!(
                &parallel, &sorted,
                "parallel codegen/generic divergence: order {:?} indexes {} threads {}",
                order, indexes, threads
            );
        }
    }

    #[test]
    fn wide_float_joins_match_engine(seed in any::<u64>()) {
        // Wide schemas + Float join keys (the kernel's FloatEq
        // posting cursors): Skinner-C under heavy order switching must
        // agree with a direct engine execution.
        let (_cat, q) = skinnerdb::workloads::wide::generate_case(seed);
        let truth = ColEngine::new()
            .execute(&q, &ExecOptions { count_only: true, ..Default::default() })
            .result_count;
        let out = SkinnerC::new(SkinnerCConfig {
            budget: 16, // tiny slices: maximal order switching
            threads: env_threads(),
            ..Default::default()
        })
        .run(&q);
        prop_assert_eq!(out.result_count, truth);
    }

    #[test]
    fn wide_float_kernels_agree(seed in any::<u64>(), budget in 3u64..48) {
        // Differential: the compiled kernel (sliced) vs the generic
        // kernel (one shot) on wide Float-keyed chains, byte for byte,
        // with and without hash indexes.
        let (_cat, q) = skinnerdb::workloads::wide::generate_case(seed);
        let m = q.num_tables();
        let order: Vec<usize> = (0..m).collect();
        for indexes in [true, false] {
            let pq = PreparedQuery::new(&q, indexes, 1);
            prop_assume!(!pq.any_empty());
            let plan = pq.plan_order(&order);
            let spec = pq.plan_spec(&order);
            let offsets = vec![0u32; m];
            let budget = budget.max(4 * m as u64);
            let mut join = MultiwayJoin::new(&pq);

            let mut state = offsets.clone();
            let mut rs_generic = ResultSet::new();
            join.continue_join_generic(
                &order, &spec, &offsets, &mut state, u64::MAX, &mut rs_generic,
            );

            let mut state = offsets.clone();
            let mut rs_kernel = ResultSet::new();
            let mut slices = 0u64;
            loop {
                slices += 1;
                prop_assert!(slices < 5_000_000, "no termination");
                let (res, _) = join.continue_join(
                    &order, &plan, &offsets, &mut state, budget, &mut rs_kernel,
                );
                if res == ContinueResult::Exhausted {
                    break;
                }
            }

            let generic: Vec<Vec<u32>> = rs_generic.iter().map(|t| t.to_vec()).collect();
            let kernel: Vec<Vec<u32>> = rs_kernel.iter().map(|t| t.to_vec()).collect();
            prop_assert_eq!(kernel, generic, "codegen/generic divergence, indexes {}", indexes);
        }
    }

    #[test]
    fn null_string_codegen_compiles_everywhere(seed in any::<u64>()) {
        // String/nullable key columns bind KeyEq posting cursors
        // (content-hash keys with NULL-reject, predicates always
        // re-verified) — and the same query *without* indexes is a pure
        // scan (generic predicate evaluation, three-valued logic and
        // all). Both must agree with the oracles.
        let (_cat, q) = skinnerdb::workloads::nulls::generate_case(seed);
        let m = q.num_tables();
        let order: Vec<usize> = (0..m).collect();
        let truth = ColEngine::new()
            .execute(&q, &ExecOptions { count_only: true, ..Default::default() })
            .result_count;

        // Indexed: string/nullable keys bind KeyEq jumps.
        let pq = PreparedQuery::new(&q, true, 1);
        let plan = pq.plan_order(&order);
        prop_assert!(
            plan.positions().iter().any(|p| matches!(p.jump, KernelJump::KeyEq { .. })),
            "string/nullable-keyed shapes must jump through KeyEq"
        );
        // End to end: every slice runs on the kernel and the answer is
        // still exact.
        let out = SkinnerC::new(SkinnerCConfig {
            budget: 16,
            threads: env_threads(),
            ..Default::default()
        })
        .run(&q);
        prop_assert_eq!(out.result_count, truth);
        prop_assert_eq!(out.metrics.codegen_slices, out.metrics.slices);

        // Scan mode (no indexes): the kernel agrees with the generic
        // oracle byte for byte.
        let pq = PreparedQuery::new(&q, false, 1);
        prop_assume!(!pq.any_empty());
        let plan = pq.plan_order(&order);
        let spec = pq.plan_spec(&order);
        let offsets = vec![0u32; m];
        let mut join = MultiwayJoin::new(&pq);
        let mut state = offsets.clone();
        let mut rs_generic = ResultSet::new();
        join.continue_join_generic(&order, &spec, &offsets, &mut state, u64::MAX, &mut rs_generic);
        let mut state = offsets.clone();
        let mut rs_kernel = ResultSet::new();
        join.continue_join(&order, &plan, &offsets, &mut state, u64::MAX, &mut rs_kernel);
        let generic: Vec<Vec<u32>> = rs_generic.iter().map(|t| t.to_vec()).collect();
        let kernel: Vec<Vec<u32>> = rs_kernel.iter().map(|t| t.to_vec()).collect();
        prop_assert_eq!(kernel, generic, "scan-mode codegen divergence");
    }

    #[test]
    fn null_string_joins_match_engine(seed in any::<u64>()) {
        // NULL-heavy, string-keyed chains (KeyEq jumps: hash-verified
        // string join keys, NULL equality semantics):
        // Skinner-C under heavy order switching must agree with a direct
        // engine execution.
        let (_cat, q) = skinnerdb::workloads::nulls::generate_case(seed);
        let truth = ColEngine::new()
            .execute(&q, &ExecOptions { count_only: true, ..Default::default() })
            .result_count;
        let out = SkinnerC::new(SkinnerCConfig {
            budget: 16, // tiny slices: maximal order switching
            threads: env_threads(),
            ..Default::default()
        })
        .run(&q);
        prop_assert_eq!(out.result_count, truth);
    }

    #[test]
    fn null_string_kernels_agree(seed in any::<u64>(), budget in 3u64..48) {
        // Differential: the compiled kernel (sliced) vs the generic
        // reference kernel (one shot) on nullable string-keyed chains,
        // with and without hash indexes (indexes skip NULL keys; the
        // no-index path must filter them through predicate evaluation).
        let (_cat, q) = skinnerdb::workloads::nulls::generate_case(seed);
        let m = q.num_tables();
        let order: Vec<usize> = (0..m).collect();
        for indexes in [true, false] {
            let pq = PreparedQuery::new(&q, indexes, 1);
            prop_assume!(!pq.any_empty());
            let plan = pq.plan_order(&order);
            let spec = pq.plan_spec(&order);
            let offsets = vec![0u32; m];
            let mut join = MultiwayJoin::new(&pq);

            let mut state = offsets.clone();
            let mut rs_generic = ResultSet::new();
            join.continue_join_generic(
                &order, &spec, &offsets, &mut state, u64::MAX, &mut rs_generic,
            );

            let mut state = offsets.clone();
            let mut rs_special = ResultSet::new();
            let budget = budget.max(4 * m as u64);
            let mut slices = 0u64;
            loop {
                slices += 1;
                prop_assert!(slices < 5_000_000, "no termination");
                let (res, _) = join.continue_join(
                    &order, &plan, &offsets, &mut state, budget, &mut rs_special,
                );
                if res == ContinueResult::Exhausted {
                    break;
                }
            }

            let mut a: Vec<Vec<u32>> = rs_generic.iter().map(|t| t.to_vec()).collect();
            let mut b: Vec<Vec<u32>> = rs_special.iter().map(|t| t.to_vec()).collect();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b, "kernel divergence on NULL/string case, indexes {}", indexes);
        }
    }

    #[test]
    fn limit_pushdown_prefix_is_sound(
        (_cat, q) in arb_chain_case(),
        limit in 1usize..12,
    ) {
        // LIMIT pushdown must return exactly `min(limit, |result|)` rows,
        // each a member of the full result.
        let full = SkinnerDB::skinner_c(SkinnerCConfig {
            budget: 32,
            threads: env_threads(),
            ..Default::default()
        })
        .execute(&q);
        let mut limited_q = q.clone();
        limited_q.limit = Some(limit);
        prop_assert_eq!(limited_q.join_limit(), Some(limit as u64));
        let limited = SkinnerDB::skinner_c(SkinnerCConfig {
            budget: 32,
            threads: env_threads(),
            ..Default::default()
        })
        .execute(&limited_q);
        prop_assert_eq!(
            limited.table.num_rows(),
            limit.min(full.table.num_rows())
        );
        for row in &limited.table.rows {
            prop_assert!(
                full.table.rows.contains(row),
                "LIMIT row not in the full result"
            );
        }
    }

    #[test]
    fn random_policy_interleavings_lose_nothing(
        (_cat, q) in arb_chain_case(),
        budget in 4u64..64,
        seed in any::<u64>(),
    ) {
        let truth = ColEngine::new()
            .execute(&q, &ExecOptions { count_only: true, ..Default::default() })
            .result_count;
        // Random policy = adversarial order interleaving for the
        // progress tracker and offset machinery.
        let out = SkinnerC::new(SkinnerCConfig {
            budget,
            seed,
            policy: skinnerdb::engine::OrderPolicy::Random,
            threads: env_threads(),
            ..Default::default()
        })
        .run(&q);
        prop_assert_eq!(out.result_count, truth);
    }

    #[test]
    fn pyramid_invariants(iters in 1usize..3000) {
        let mut p = PyramidTimeouts::new();
        for _ in 0..iters {
            p.next_timeout();
        }
        // Lemma 5.5: used levels balanced within factor two.
        let used: Vec<u64> = p.per_level().iter().copied().filter(|&x| x > 0).collect();
        let max = *used.iter().max().expect("nonempty");
        let min = *used.iter().min().expect("nonempty");
        prop_assert!(max <= 2 * min);
        // Lemma 5.4: level count logarithmic in total time.
        let bound = (p.total() as f64).log2().ceil() as usize + 1;
        prop_assert!(p.levels() <= bound);
    }

    #[test]
    fn postprocess_limit_distinct(limit in 1usize..10) {
        // LIMIT must clamp and DISTINCT must dedup on arbitrary inputs.
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "t",
                Schema::new([ColumnDef::new("x", ValueType::Int)]),
                vec![Column::from_ints((0..40).map(|i| i % 4).collect())],
            )
            .expect("table"),
        );
        let mut qb = QueryBuilder::new(&cat);
        qb.table("t").expect("table");
        qb.select_col("t.x").expect("col");
        qb.distinct();
        qb.limit(limit);
        let q = qb.build().expect("query");
        let r = SkinnerDB::skinner_c(SkinnerCConfig::default()).execute(&q);
        prop_assert_eq!(r.table.num_rows(), limit.min(4));
    }
}

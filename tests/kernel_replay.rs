//! Kernel coverage by replay: every join order the engine explores on
//! the correlated (fused composite keys, dates) and nulls (nullable
//! string keys) workloads is replayed on the compiled kernel and
//! compared with the generic reference kernel.
//!
//! The engine picks its orders by UCT, so the set is whatever a real
//! run visits — good and catastrophic orders alike — rather than a
//! hand-picked list. Each order runs from a fresh cursor in slices of
//! 64 steps:
//!
//! * sequentially, where the kernel must emit the oracle's tuple
//!   sequence byte for byte and no slice may spend more than 64 steps;
//! * partitioned over 4 chunks, where the merged tuple set must equal
//!   the oracle's (a later slice may re-emit a later chunk's tuples
//!   first, so only the set is comparable).

use skinnerdb::engine::multiway::{ContinueResult, ResultSet};
use skinnerdb::engine::{MultiwayJoin, PreparedQuery, SkinnerC, SkinnerCConfig};
use skinnerdb::workloads::{correlated, nulls, NamedQuery};

const BUDGET: u64 = 64;

/// Run `order` of `pq` to exhaustion in `BUDGET`-step slices on
/// `threads` chunks; the distinct tuples in first-emit order.
fn replay(pq: &PreparedQuery, order: &[usize], threads: usize) -> Vec<Vec<u32>> {
    let plan = pq.plan_order(order);
    let mut join = MultiwayJoin::with_threads(pq, threads);
    let offsets = vec![0u32; order.len()];
    let mut state = offsets.clone();
    let mut rs = ResultSet::new();
    loop {
        let (res, steps) = join.continue_join(order, &plan, &offsets, &mut state, BUDGET, &mut rs);
        assert!(
            threads > 1 || steps <= BUDGET,
            "order {order:?}: slice spent {steps} steps"
        );
        if res == ContinueResult::Exhausted {
            break;
        }
    }
    rs.iter().map(<[u32]>::to_vec).collect()
}

/// The generic reference kernel's tuples for `order`, one shot.
fn oracle(pq: &PreparedQuery, order: &[usize]) -> Vec<Vec<u32>> {
    let offsets = vec![0u32; order.len()];
    let mut state = offsets.clone();
    let mut rs = ResultSet::new();
    MultiwayJoin::new(pq).continue_join_generic(
        order,
        &pq.plan_spec(order),
        &offsets,
        &mut state,
        u64::MAX,
        &mut rs,
    );
    rs.iter().map(<[u32]>::to_vec).collect()
}

#[test]
fn explored_orders_replay_on_kernel_matches_oracle() {
    let mut queries: Vec<NamedQuery> = correlated::generate(1.0, 7).queries;
    queries.extend(nulls::generate(1.0, 5).queries);
    let mut replayed = 0;
    for nq in &queries {
        let out = SkinnerC::new(SkinnerCConfig {
            budget: BUDGET,
            ..Default::default()
        })
        .run(&nq.query);
        assert_eq!(out.metrics.codegen_slices, out.metrics.slices, "{}", nq.id);
        let mut orders: Vec<&Vec<usize>> = out.metrics.order_selections.keys().collect();
        orders.sort();
        assert!(
            !orders.is_empty(),
            "{}: the engine explored no order",
            nq.id
        );
        let pq = PreparedQuery::new(&nq.query, true, 1);
        for order in orders {
            let want = oracle(&pq, order);
            assert_eq!(
                replay(&pq, order, 1),
                want,
                "{} order {order:?}: sequential kernel diverged",
                nq.id
            );
            let mut got = replay(&pq, order, 4);
            let mut want = want;
            got.sort();
            want.sort();
            assert_eq!(
                got, want,
                "{} order {order:?}: partitioned kernel diverged",
                nq.id
            );
            replayed += 1;
        }
    }
    assert!(replayed >= queries.len(), "replayed {replayed} orders");
}

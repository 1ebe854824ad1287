//! The compiled join kernel: one depth-first loop over a bound join
//! order, for any order of 1 to [`MAX_TABLES`] tables.
//!
//! [`CompiledKernel`] is what a prepared query binds each join order
//! into (the engine's `PreparedQuery::plan_order`). Every table, column
//! and index indirection is resolved at bind time, so the loop touches
//! only raw slices:
//!
//! * **Runtime arity, no allocation** — the position count is a runtime
//!   value; the per-position posting cursors live in a fixed-capacity
//!   stack array sized by the query ceiling [`MAX_TABLES`], so a slice
//!   allocates nothing.
//! * **Posting cursors** — descending into an index-driven position
//!   does one [`KernelJump`] match, probes the hash index **once** for
//!   the current predecessor key and keeps the sorted posting list as a
//!   cursor; every later advance is a slice pop instead of probe +
//!   binary search.
//! * **Equality-predicate elision** — integer join keys are exact (the
//!   join key *is* the value), so candidates drawn from an
//!   [`KernelJump::IntEq`] posting list provably satisfy the driving
//!   equality predicate, and the binder drops it from the position's
//!   predicates. Float keys match by bit pattern, which over-approximates
//!   IEEE equality on NaN, so float positions keep full re-verification.
//!   Fused composite keys and string/nullable keys
//!   ([`KernelJump::FusedEq`], [`KernelJump::KeyEq`]) are hash-derived,
//!   so they are **never** elided: the cursor only narrows the candidate
//!   set, and every driving conjunct is re-verified. NULL keys (`None`)
//!   yield no candidates, which preserves three-valued equality.
//! * **Leaf loop** — the last position (where every result tuple is
//!   emitted and most steps are spent) runs in a tight inner loop with
//!   its table, cardinality, predicate slice and cursor kind hoisted out
//!   of the per-step work.
//!
//! # Step accounting
//!
//! One step is one candidate examined at one position, or one
//! exhaustion detected there (which backtracks and advances the
//! predecessor within the same step). A slice returns after at most
//! `budget` steps — never more — so every time slice of the paper's
//! regret analysis (§5) spends the same budget `b`. The leaf loop keeps
//! exactly this accounting: one step per candidate, the budget and
//! [`ResultSink::is_full`] polls before each step, and the cursor
//! advanced past an emitted tuple *before* a sink-driven suspension.
//!
//! The generic reference kernel in `skinner-engine`
//! (`MultiwayJoin::continue_join_generic`) enumerates the same
//! depth-first candidate sequence by interpretation: the posting cursor
//! yields exactly the positions `HashIndex::next_ge` would visit
//! (postings are sorted ascending). Accepted tuples and their order are
//! therefore identical; the differential properties in
//! `tests/property.rs` and `tests/fuzz_differential.rs` check this byte
//! for byte.

use crate::sink::{ContinueResult, ResultSink};
use skinner_query::{BoundPred, MAX_TABLES};
use skinner_storage::{Column, HashIndex, RowId};

/// The tuple-advance source at one join-order position.
#[derive(Debug, Clone, Copy)]
pub enum KernelJump<'a> {
    /// No index: candidates are consecutive filtered positions.
    Scan,
    /// Integer-keyed posting-list cursor. `keys` is the predecessor
    /// table's raw key column, `src` the predecessor's table id.
    IntEq {
        /// Predecessor key column (non-nullable `i64`).
        keys: &'a [i64],
        /// Predecessor table id (indexes `rows`).
        src: usize,
        /// This position's hash index (postings = filtered positions).
        index: &'a HashIndex,
    },
    /// Float-keyed posting-list cursor (bit-pattern keys; predicates are
    /// always re-verified).
    FloatEq {
        /// Predecessor key column (non-nullable `f64`).
        keys: &'a [f64],
        /// Predecessor table id (indexes `rows`).
        src: usize,
        /// This position's hash index (postings = filtered positions).
        index: &'a HashIndex,
    },
    /// Fused composite-key posting-list cursor: the key is read from a
    /// precomputed per-base-row `Option<i64>` vector (an FxHash combine
    /// of the component join keys) and probes the composite index. Keys
    /// are hashes, so the group's conjuncts are always re-verified
    /// (never elided); `None` (a NULL component) yields no candidates.
    FusedEq {
        /// Predecessor fused keys per base row (`None` = NULL component).
        keys: &'a [Option<i64>],
        /// Predecessor table id (indexes `rows`).
        src: usize,
        /// This position's composite hash index (filtered positions).
        index: &'a HashIndex,
    },
    /// String/nullable-keyed posting-list cursor: the key is
    /// `Column::join_key` of the predecessor row (a content hash for
    /// strings, `None` for NULL). Hash keys are never elided — the
    /// driving equality is re-verified, which also rejects hash
    /// collisions; `None` yields no candidates (three-valued equality).
    KeyEq {
        /// Predecessor key column (string or nullable).
        col: &'a Column,
        /// Predecessor table id (indexes `rows`).
        src: usize,
        /// This position's hash index (postings = filtered positions).
        index: &'a HashIndex,
    },
}

/// One bound join-order position.
#[derive(Debug, Clone)]
pub struct KernelPosition<'a> {
    /// The table joined at this position (indexes `rows` and `state`).
    pub table: usize,
    /// Filtered cardinality of the table.
    pub card: u32,
    /// Filtered positions → base row ids.
    pub base: &'a [RowId],
    /// Predicates to evaluate per candidate. When `elided` is set, the
    /// equality predicate driving an [`KernelJump::IntEq`] jump has been
    /// removed (the posting list already guarantees it).
    pub preds: Vec<BoundPred<'a>>,
    /// Candidate source.
    pub jump: KernelJump<'a>,
    /// True when the jump-driving equality predicate was elided from
    /// `preds`.
    pub elided: bool,
}

impl<'a> KernelPosition<'a> {
    /// Open this position's candidate sequence for the current
    /// predecessor tuple in `rows`, starting at candidate `min`: the one
    /// jump match per descent. Returns the rest of the posting list (empty
    /// for scans) and the first candidate (`card` when there is none).
    #[inline(always)]
    fn open(&self, rows: &[RowId], min: u32) -> (&'a [u32], u32) {
        let list = match self.jump {
            KernelJump::Scan => return (&[], min),
            KernelJump::IntEq { keys, src, index } => index.probe(keys[rows[src] as usize]),
            KernelJump::FloatEq { keys, src, index } => {
                index.probe(skinner_storage::f64_key(keys[rows[src] as usize]))
            }
            KernelJump::FusedEq { keys, src, index } => match keys[rows[src] as usize] {
                Some(k) => index.probe(k),
                None => &[],
            },
            KernelJump::KeyEq { col, src, index } => match col.join_key(rows[src] as usize) {
                Some(k) => index.probe(k),
                None => &[],
            },
        };
        let list = &list[list.partition_point(|&p| p < min)..];
        match list.split_first() {
            Some((&first, rest)) => (rest, first),
            None => (&[], self.card),
        }
    }

    fn is_scan(&self) -> bool {
        matches!(self.jump, KernelJump::Scan)
    }
}

/// The candidate after `s`: the next filtered position for a scan, the
/// next posting (`card` once the list is spent) otherwise.
#[inline(always)]
fn advance(scan: bool, rest: &mut &[u32], s: u32, card: u32) -> u32 {
    if scan {
        return s + 1;
    }
    match rest.split_first() {
        Some((&next, tail)) => {
            *rest = tail;
            next
        }
        None => card,
    }
}

/// A join order bound into kernel positions. Borrows the prepared
/// query's column slices and indexes; bind one per (query, order) and
/// reuse it across every time slice and every partitioned chunk.
#[derive(Debug, Clone)]
pub struct CompiledKernel<'a> {
    positions: Vec<KernelPosition<'a>>,
}

impl<'a> CompiledKernel<'a> {
    /// Assemble a kernel from bound positions, in join order.
    ///
    /// # Panics
    ///
    /// If there are no positions or more than [`MAX_TABLES`], or if the
    /// left-most position has an index jump (it has no predecessor).
    pub fn new(positions: Vec<KernelPosition<'a>>) -> CompiledKernel<'a> {
        assert!(
            (1..=MAX_TABLES).contains(&positions.len()),
            "join orders have 1..={MAX_TABLES} tables, not {}",
            positions.len()
        );
        assert!(positions[0].is_scan(), "the left-most position must scan");
        CompiledKernel { positions }
    }

    /// Number of join-order positions.
    pub fn num_tables(&self) -> usize {
        self.positions.len()
    }

    /// The bound positions (introspection and tests).
    pub fn positions(&self) -> &[KernelPosition<'a>] {
        &self.positions
    }

    /// The left-most table's id.
    pub fn table0(&self) -> usize {
        self.positions[0].table
    }

    /// The left-most table's filtered cardinality (the `end0` a
    /// sequential caller passes to [`run`](CompiledKernel::run)).
    pub fn card0(&self) -> u32 {
        self.positions[0].card
    }

    /// Execute the kernel from cursor `state` (indexed by table id,
    /// filtered positions) for at most `budget` steps, with the
    /// left-most coordinate bounded by `end0` (sequential callers pass
    /// [`card0`](CompiledKernel::card0); partitioned chunk workers pass
    /// their chunk's upper bound). Result tuples go to `results`;
    /// `offsets` are the global per-table floors; `rows` is the caller's
    /// per-table base-row scratch.
    ///
    /// Cursor contract: on entry `state` holds restored per-table
    /// coordinates; on `BudgetSpent` it holds the exact resume point
    /// (the not-yet-evaluated candidate at the active position, floors
    /// below it); on `Exhausted` the left-most coordinate is at or past
    /// `end0`. The returned step count never exceeds `budget`.
    pub fn run<R: ResultSink>(
        &self,
        offsets: &[u32],
        state: &mut [u32],
        budget: u64,
        end0: u32,
        rows: &mut [RowId],
        results: &mut R,
    ) -> (ContinueResult, u64) {
        let ps = self.positions.as_slice();
        let last = ps.len() - 1;
        let t0 = ps[0].table;
        if state[t0] >= end0 {
            return (ContinueResult::Exhausted, 0);
        }
        // Unspent posting list per position (empty for scans). Deeper
        // positions are opened as the walk-down descends, each with the
        // by-then-current predecessor tuple — the O(m) re-walk the
        // suspend/resume contract requires.
        let mut rest: [&[u32]; MAX_TABLES] = [&[]; MAX_TABLES];
        let mut steps = 0u64;
        let mut i = 0usize;
        loop {
            let pos = &ps[i];
            let t = pos.table;
            let bound = if i == 0 { end0 } else { pos.card };
            if i == last {
                // Leaf loop: the same accounting as the descent below,
                // with the position's fields hoisted.
                let (scan, card, base, preds) = (pos.is_scan(), pos.card, pos.base, &pos.preds[..]);
                let mut cur = rest[i];
                let mut s = state[t];
                loop {
                    steps += 1;
                    // Per-step sink poll: lets a partitioned LIMIT worker
                    // with a match-free chunk observe the shared quota;
                    // statically false for plain sinks.
                    if steps > budget || results.is_full() {
                        state[t] = s;
                        return (ContinueResult::BudgetSpent, steps - 1);
                    }
                    if s >= bound {
                        state[t] = s;
                        break;
                    }
                    rows[t] = base[s as usize];
                    let ok = preds.iter().all(|p| p.eval(rows));
                    // Advance past the candidate *before* any sink-driven
                    // early exit (LIMIT pushdown), so a resumed slice
                    // always makes progress even when the suspension was
                    // triggered by a re-emission of an earlier slice's
                    // tuple (the partitioned quota counter counts those).
                    s = advance(scan, &mut cur, s, card);
                    if ok {
                        results.insert(rows);
                        if results.is_full() {
                            state[t] = s;
                            return (ContinueResult::BudgetSpent, steps);
                        }
                    }
                }
            } else {
                steps += 1;
                if steps > budget || results.is_full() {
                    return (ContinueResult::BudgetSpent, steps - 1);
                }
                let s = state[t];
                if s < bound {
                    rows[t] = pos.base[s as usize];
                    if pos.preds.iter().all(|p| p.eval(rows)) {
                        i += 1;
                        let next = &ps[i];
                        let (list, first) = next.open(rows, state[next.table]);
                        rest[i] = list;
                        state[next.table] = first;
                    } else {
                        state[t] = advance(pos.is_scan(), &mut rest[i], s, pos.card);
                    }
                    continue;
                }
            }
            // Candidates exhausted at position `i` (within the step that
            // found it): reset to the floor, backtrack, advance the
            // predecessor.
            if i == 0 {
                return (ContinueResult::Exhausted, steps);
            }
            state[t] = offsets[t];
            i -= 1;
            let prev = &ps[i];
            let p = prev.table;
            state[p] = advance(prev.is_scan(), &mut rest[i], state[p], prev.card);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::{CompiledPred, Expr};
    use skinner_storage::table::TableRef;
    use skinner_storage::{Column, ColumnDef, Schema, Table, ValueType};
    use std::sync::Arc;

    /// A deduplicating sink collecting tuples in first-emit order (the
    /// engine's real `ResultSet` dedups too: a resume after a sink-full
    /// suspension legitimately re-offers the last tuple).
    #[derive(Default)]
    struct Collect {
        tuples: Vec<Vec<RowId>>,
        full_at: Option<usize>,
    }

    impl ResultSink for Collect {
        fn insert(&mut self, tuple: &[RowId]) -> bool {
            if self.tuples.iter().any(|t| t == tuple) {
                return false;
            }
            self.tuples.push(tuple.to_vec());
            true
        }
        fn is_full(&self) -> bool {
            self.full_at.is_some_and(|n| self.tuples.len() >= n)
        }
    }

    /// Run `k` from a fresh cursor to exhaustion in one slice.
    fn run_all(k: &CompiledKernel<'_>) -> Vec<Vec<RowId>> {
        let m = k.positions().iter().map(|p| p.table).max().unwrap() + 1;
        let offsets = vec![0u32; m];
        let mut state = vec![0u32; m];
        let mut rows = vec![0u32; m];
        let mut out = Collect::default();
        let (res, _) = k.run(
            &offsets,
            &mut state,
            u64::MAX,
            k.card0(),
            &mut rows,
            &mut out,
        );
        assert_eq!(res, ContinueResult::Exhausted);
        out.tuples
    }

    /// Two int-keyed tables, every row filtered in (identity base maps).
    fn tables() -> Vec<TableRef> {
        vec![
            Arc::new(
                Table::new(
                    "a",
                    Schema::new([ColumnDef::new("k", ValueType::Int)]),
                    vec![Column::from_ints(vec![1, 2, 3, 2])],
                )
                .unwrap(),
            ),
            Arc::new(
                Table::new(
                    "b",
                    Schema::new([ColumnDef::new("k", ValueType::Int)]),
                    vec![Column::from_ints(vec![2, 1, 2, 9])],
                )
                .unwrap(),
            ),
        ]
    }

    fn base(n: usize) -> Vec<RowId> {
        (0..n as u32).collect()
    }

    fn scan_position(table: usize, base: &[RowId]) -> KernelPosition<'_> {
        KernelPosition {
            table,
            card: base.len() as u32,
            base,
            preds: vec![],
            jump: KernelJump::Scan,
            elided: false,
        }
    }

    /// Build the 2-table kernel `a ⋈ b on k`, int jump at position 1
    /// with the equality elided.
    fn int_join_kernel<'a>(
        ts: &'a [TableRef],
        b0: &'a [RowId],
        b1: &'a [RowId],
        idx: &'a HashIndex,
        elide: bool,
        pred: &'a CompiledPred,
    ) -> CompiledKernel<'a> {
        let keys = ts[0].column(0).ints().unwrap();
        let preds1: Vec<BoundPred<'a>> = if elide { vec![] } else { vec![pred.bind(ts)] };
        CompiledKernel::new(vec![
            scan_position(0, b0),
            KernelPosition {
                table: 1,
                card: 4,
                base: b1,
                preds: preds1,
                jump: KernelJump::IntEq {
                    keys,
                    src: 0,
                    index: idx,
                },
                elided: elide,
            },
        ])
    }

    #[test]
    fn int_chain_join_with_and_without_elision() {
        let ts = tables();
        let (b0, b1) = (base(4), base(4));
        let idx = HashIndex::build(ts[1].column(0), Some(&b1));
        let pred = CompiledPred::compile(&Expr::col(0, 0).eq(Expr::col(1, 0)), &ts);
        let expected = vec![vec![0, 1], vec![1, 0], vec![1, 2], vec![3, 0], vec![3, 2]];
        for elide in [true, false] {
            let k = int_join_kernel(&ts, &b0, &b1, &idx, elide, &pred);
            assert_eq!(run_all(&k), expected, "elide {elide}");
        }
    }

    #[test]
    fn slicing_resumes_exactly() {
        let ts = tables();
        let (b0, b1) = (base(4), base(4));
        let idx = HashIndex::build(ts[1].column(0), Some(&b1));
        let pred = CompiledPred::compile(&Expr::col(0, 0).eq(Expr::col(1, 0)), &ts);
        let k = int_join_kernel(&ts, &b0, &b1, &idx, true, &pred);
        let offsets = vec![0u32; 2];
        let mut one_shot = Collect::default();
        let mut state = vec![0u32; 2];
        let mut rows = vec![0u32; 2];
        let (_, total_steps) = k.run(
            &offsets,
            &mut state,
            u64::MAX,
            k.card0(),
            &mut rows,
            &mut one_shot,
        );

        // Budgets at or above the livelock clamp (4·m, like the slice
        // driver enforces) but well below the one-shot step count, so
        // every run genuinely slices and resumes — and the slices add up
        // to exactly the one-shot step count.
        for budget in 8..14u64 {
            assert!(total_steps > budget, "workload too small to slice");
            let mut sliced = Collect::default();
            let mut state = vec![0u32; 2];
            let mut slices = 0;
            let mut sum = 0;
            loop {
                slices += 1;
                assert!(slices < 1000, "no termination at budget {budget}");
                let (res, steps) = k.run(
                    &offsets,
                    &mut state,
                    budget,
                    k.card0(),
                    &mut rows,
                    &mut sliced,
                );
                assert!(steps <= budget);
                sum += steps;
                if res == ContinueResult::Exhausted {
                    break;
                }
                assert_eq!(steps, budget, "a suspended slice spends its budget");
            }
            assert_eq!(sliced.tuples, one_shot.tuples, "budget {budget}");
            assert!(slices > 1);
            // Each resume re-walks the restored left-most coordinate (one
            // step); a resume already past the end skips the final
            // exhaustion step.
            assert!(
                sum + 1 >= total_steps && sum < total_steps + slices,
                "budget {budget}"
            );
        }
    }

    #[test]
    fn offsets_floor_excludes_and_end0_bounds() {
        let ts = tables();
        let (b0, b1) = (base(4), base(4));
        let idx = HashIndex::build(ts[1].column(0), Some(&b1));
        let pred = CompiledPred::compile(&Expr::col(0, 0).eq(Expr::col(1, 0)), &ts);
        let k = int_join_kernel(&ts, &b0, &b1, &idx, true, &pred);
        // Floor a past its first row: tuple [0,1] disappears.
        let offsets = vec![1u32, 0];
        let mut state = offsets.clone();
        let mut rows = vec![0u32; 2];
        let mut out = Collect::default();
        k.run(
            &offsets,
            &mut state,
            u64::MAX,
            k.card0(),
            &mut rows,
            &mut out,
        );
        assert_eq!(
            out.tuples,
            vec![vec![1, 0], vec![1, 2], vec![3, 0], vec![3, 2]]
        );
        // Chunk bound end0 = 2: only a-rows 1 (a-row 0 floored out).
        let offsets = vec![0u32, 0];
        let mut state = vec![1u32, 0];
        let mut out = Collect::default();
        let (res, _) = k.run(&offsets, &mut state, u64::MAX, 2, &mut rows, &mut out);
        assert_eq!(res, ContinueResult::Exhausted);
        assert_eq!(out.tuples, vec![vec![1, 0], vec![1, 2]]);
    }

    #[test]
    fn full_sink_suspends_with_resumable_cursor() {
        let ts = tables();
        let (b0, b1) = (base(4), base(4));
        let idx = HashIndex::build(ts[1].column(0), Some(&b1));
        let pred = CompiledPred::compile(&Expr::col(0, 0).eq(Expr::col(1, 0)), &ts);
        let k = int_join_kernel(&ts, &b0, &b1, &idx, true, &pred);
        let offsets = vec![0u32; 2];
        let mut state = vec![0u32; 2];
        let mut rows = vec![0u32; 2];
        let mut out = Collect {
            full_at: Some(2),
            ..Default::default()
        };
        let (res, _) = k.run(
            &offsets,
            &mut state,
            u64::MAX,
            k.card0(),
            &mut rows,
            &mut out,
        );
        assert_eq!(res, ContinueResult::BudgetSpent);
        assert_eq!(out.tuples.len(), 2);
        // Resuming without the limit completes the remaining three.
        out.full_at = None;
        let (res, _) = k.run(
            &offsets,
            &mut state,
            u64::MAX,
            k.card0(),
            &mut rows,
            &mut out,
        );
        assert_eq!(res, ContinueResult::Exhausted);
        assert_eq!(out.tuples.len(), 5);
    }

    #[test]
    fn scan_class_matches_int_chain() {
        let ts = tables();
        let (b0, b1) = (base(4), base(4));
        let idx = HashIndex::build(ts[1].column(0), Some(&b1));
        let pred = CompiledPred::compile(&Expr::col(0, 0).eq(Expr::col(1, 0)), &ts);
        let indexed = int_join_kernel(&ts, &b0, &b1, &idx, true, &pred);
        // Same join bound as a pure scan (no index available).
        let mut probe = scan_position(1, &b1);
        probe.preds = vec![pred.bind(&ts)];
        let scan = CompiledKernel::new(vec![scan_position(0, &b0), probe]);
        assert_eq!(run_all(&scan), run_all(&indexed));
    }

    #[test]
    fn float_keys_reverify() {
        let ts: Vec<TableRef> = vec![
            Arc::new(
                Table::new(
                    "a",
                    Schema::new([ColumnDef::new("k", ValueType::Float)]),
                    vec![Column::from_floats(vec![0.5, 1.5, 2.5])],
                )
                .unwrap(),
            ),
            Arc::new(
                Table::new(
                    "b",
                    Schema::new([ColumnDef::new("k", ValueType::Float)]),
                    vec![Column::from_floats(vec![1.5, 0.5, 1.5])],
                )
                .unwrap(),
            ),
        ];
        let (b0, b1) = (base(3), base(3));
        let idx = HashIndex::build(ts[1].column(0), Some(&b1));
        let pred = CompiledPred::compile(&Expr::col(0, 0).eq(Expr::col(1, 0)), &ts);
        let keys = ts[0].column(0).floats().unwrap();
        let k = CompiledKernel::new(vec![
            scan_position(0, &b0),
            KernelPosition {
                table: 1,
                card: 3,
                base: &b1,
                preds: vec![pred.bind(&ts)],
                jump: KernelJump::FloatEq {
                    keys,
                    src: 0,
                    index: &idx,
                },
                elided: false,
            },
        ]);
        assert_eq!(run_all(&k), vec![vec![0, 1], vec![1, 0], vec![1, 2]]);
    }

    #[test]
    fn fused_chain_joins_and_rejects_null_components() {
        // Source fused keys per base row; row 1 has a NULL component.
        let src_keys = vec![Some(10i64), None, Some(20)];
        // Probed side's fused keys per filtered position.
        let probe_keys = vec![Some(20i64), Some(10), Some(10), None];
        let idx = HashIndex::from_keys(&probe_keys);
        let (b0, b1) = (base(3), base(4));
        let k = CompiledKernel::new(vec![
            scan_position(0, &b0),
            KernelPosition {
                jump: KernelJump::FusedEq {
                    keys: &src_keys,
                    src: 0,
                    index: &idx,
                },
                ..scan_position(1, &b1)
            },
        ]);
        // Row 1 (NULL component) matches nothing; NULL postings (probe
        // row 3) are never enumerated.
        assert_eq!(run_all(&k), vec![vec![0, 1], vec![0, 2], vec![2, 0]]);
    }

    #[test]
    fn string_key_chain_joins_and_rejects_nulls() {
        use skinner_storage::{ColumnBuilder, Value};
        let mut b = ColumnBuilder::new(ValueType::Str);
        for v in [Value::str("x"), Value::Null, Value::str("y")] {
            b.push(&v);
        }
        let a_col = b.finish(); // ["x", NULL, "y"]
        let b_col = Column::from_strs(["y", "x", "z", "x"]);
        let (b0, b1) = (base(3), base(4));
        let idx = HashIndex::build(&b_col, Some(&b1));
        let k = CompiledKernel::new(vec![
            scan_position(0, &b0),
            KernelPosition {
                jump: KernelJump::KeyEq {
                    col: &a_col,
                    src: 0,
                    index: &idx,
                },
                ..scan_position(1, &b1)
            },
        ]);
        // "x" matches probe rows 1 and 3, NULL matches nothing (not even
        // another NULL), "y" matches probe row 0.
        assert_eq!(run_all(&k), vec![vec![0, 1], vec![0, 3], vec![2, 0]]);
    }

    #[test]
    fn single_table_order_runs() {
        // One position is both the root and the leaf: the leaf loop
        // runs against `end0`, and a suspended slice resumes exactly.
        let b0 = base(5);
        let k = CompiledKernel::new(vec![scan_position(0, &b0)]);
        let all: Vec<Vec<RowId>> = (0..5).map(|r| vec![r]).collect();
        assert_eq!(run_all(&k), all);
        let offsets = [0u32];
        let mut state = [0u32];
        let mut rows = [0u32];
        let mut out = Collect::default();
        let (res, steps) = k.run(&offsets, &mut state, 3, 5, &mut rows, &mut out);
        assert_eq!((res, steps, state[0]), (ContinueResult::BudgetSpent, 3, 3));
        let (res, steps) = k.run(&offsets, &mut state, 3, 5, &mut rows, &mut out);
        // Two candidates plus the exhaustion step, ending past `end0`.
        assert_eq!((res, steps, state[0]), (ContinueResult::Exhausted, 3, 5));
        assert_eq!(out.tuples, all);
    }

    #[test]
    fn unsupported_shapes_refuse_to_build() {
        let b0 = base(2);
        let too_long: Vec<KernelPosition<'_>> =
            (0..=MAX_TABLES).map(|t| scan_position(t, &b0)).collect();
        let idx = HashIndex::from_keys(&[Some(1)]);
        let keys = [1i64, 2];
        let jump_first = vec![KernelPosition {
            jump: KernelJump::IntEq {
                keys: &keys,
                src: 0,
                index: &idx,
            },
            ..scan_position(0, &b0)
        }];
        for positions in [Vec::new(), too_long, jump_first] {
            let build = std::panic::AssertUnwindSafe(|| CompiledKernel::new(positions));
            let built = std::panic::catch_unwind(build);
            assert!(built.is_err());
        }
    }
}

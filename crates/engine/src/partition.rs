//! Offset-range partitioning of the join phase.
//!
//! The paper's implementation parallelizes only pre-processing (one
//! filter thread per table, Table 2); the join phase is single-threaded.
//! Here pre-processing runs as tasks on the run's worker pool (see
//! [`crate::prepare`]), and this module parallelizes *each time slice*
//! without disturbing the learned-order semantics: the left-most
//! table's remaining filtered-row range is split into contiguous offset
//! chunks — *morsels* — and each morsel runs the order's compiled
//! [`CompiledKernel`](skinner_codegen::CompiledKernel) on the persistent
//! worker pool (`skinner_pool::WorkerPool`; no threads are spawned per
//! slice). The UCT policy still sees one slice, one reward, one
//! cursor — the "partition the driver, keep the policy" separation
//! adaptive systems like eddies rely on.
//!
//! Each morsel's task state is **owned**: a [`WorkerScratch`] carries
//! the private cursor, row buffer, result shard, chunk bound, and
//! outcome slot, so a morsel is self-contained regardless of which pool
//! worker executes it or in what order morsels are stolen.
//!
//! # Why partitioning the left-most range is safe
//!
//! The multi-way join enumerates tuple combinations in lexicographic
//! cursor order, driven by the left-most table. Two properties follow:
//!
//! 1. Chunks are disjoint in the left-most coordinate, so two workers can
//!    never emit the same result tuple within one slice — shards merge
//!    without cross-chunk duplicates.
//! 2. A chunk's work is exactly the sub-enumeration with the left-most
//!    coordinate in `[lo, hi)` and deeper coordinates floored at the
//!    global offsets — the same tuples the sequential kernel would visit
//!    between those cursors.
//!
//! # Folding chunk cursors back into one slice cursor
//!
//! The suspend/resume contract (the heart of the regret analysis) needs
//! one cursor per order with the invariant *"everything strictly
//! lex-below the cursor is fully expanded"*. After a slice, chunks below
//! the first non-exhausted chunk have fully covered their sub-ranges, and
//! that chunk itself has covered everything below its own cursor — so the
//! fold picks **the first non-exhausted chunk's cursor** as the slice
//! cursor ([`fold_outcomes`]). Progress made by chunks *above* the fold
//! point is not representable in a single cursor and will be re-scanned
//! by later slices; re-emission is harmless (the result set dedups tuple
//! index vectors, Theorem 5.3's argument), and the re-scan cost is the
//! price of keeping [`ProgressTracker`](crate::progress::ProgressTracker)
//! state exact. Mid-chunk budget exhaustion therefore round-trips
//! losslessly through `restore_into`: the folded cursor is a valid
//! sequential cursor, indistinguishable from one produced by a
//! single-threaded slice.

use crate::multiway::ContinueResult;
use skinner_storage::RowId;

/// Contiguous offset chunks `[lo, hi)` over the left-most table's
/// filtered positions, one per worker.
///
/// Produced by [`PartitionSpec::split`] once per slice (the remaining
/// range changes as offsets advance). Chunks are in ascending offset
/// order; lower chunks correspond to lexicographically earlier work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Half-open `[lo, hi)` ranges, ascending, covering `[start, end)`.
    pub chunks: Vec<(u32, u32)>,
}

impl PartitionSpec {
    /// Split the remaining left-most range `[start, end)` into at most
    /// `workers` near-equal contiguous chunks.
    ///
    /// Every chunk is non-empty: a range smaller than the worker count
    /// yields one single-row chunk per remaining row (fewer chunks than
    /// workers), and an empty range yields no chunks at all.
    pub fn split(start: u32, end: u32, workers: usize) -> PartitionSpec {
        let len = end.saturating_sub(start) as u64;
        let n = (workers.max(1) as u64).min(len);
        let mut chunks = Vec::with_capacity(n as usize);
        // Distribute `len` rows over `n` chunks, front-loading remainders
        // so chunk sizes differ by at most one row.
        let base = len.checked_div(n).unwrap_or(0);
        let rem = len.checked_rem(n).unwrap_or(0);
        let mut lo = start;
        for c in 0..n {
            let size = base + u64::from(c < rem);
            let hi = lo + size as u32;
            chunks.push((lo, hi));
            lo = hi;
        }
        debug_assert!(chunks.is_empty() || chunks.last().expect("nonempty").1 == end);
        PartitionSpec { chunks }
    }

    /// Number of chunks (= workers that will run this slice).
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// True when the remaining range was empty.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}

/// What one worker's chunk produced: the chunk's final cursor (indexed
/// by table id), how it ended, and the steps it consumed.
#[derive(Debug)]
pub struct ChunkOutcome {
    /// How the chunk's sub-enumeration ended.
    pub result: ContinueResult,
    /// Steps consumed by this chunk's kernel run.
    pub steps: u64,
}

/// One morsel's owned task state, reused across slices so the parallel
/// path allocates nothing per slice in the steady state. Everything a
/// pool worker needs to run the chunk (cursor, chunk bound, row buffer,
/// result shard, outcome slot) lives here — nothing is borrowed from
/// any particular worker thread, which is what lets morsels migrate
/// freely between pool workers under work stealing.
#[derive(Debug, Default)]
pub struct WorkerScratch {
    /// Current base row per table (the morsel's private `rows` buffer).
    pub rows: Vec<RowId>,
    /// The morsel's private cursor, indexed by table id.
    pub state: Vec<u32>,
    /// Exclusive upper bound of the chunk in the left-most coordinate.
    pub hi: u32,
    /// Flat result shard: `stride` row ids per tuple, in emit order.
    /// No dedup needed — chunks are disjoint in the left-most coordinate.
    pub out: Vec<RowId>,
    /// The chunk outcome, filled in by the worker.
    pub outcome: Option<ChunkOutcome>,
}

impl WorkerScratch {
    /// Resize the scratch for an `m`-table query and clear the shard.
    pub fn reset(&mut self, m: usize) {
        self.rows.resize(m, 0);
        self.state.resize(m, 0);
        self.hi = 0;
        self.out.clear();
        self.outcome = None;
    }
}

/// Fold per-chunk outcomes into the single slice cursor the progress
/// tracker and reward function expect.
///
/// `scratch[k].state` must hold chunk `k`'s final cursor (by table id).
/// The folded cursor is written into `state`; the return value is the
/// slice-level result plus total steps across all chunks:
///
/// * every chunk exhausted → `Exhausted` (the order is complete; the
///   caller sets the left-most coordinate to the cardinality),
/// * otherwise → `BudgetSpent`, with the cursor of the **first**
///   non-exhausted chunk (all lex-earlier work is fully expanded).
pub fn fold_outcomes(scratch: &[WorkerScratch], state: &mut [u32]) -> (ContinueResult, u64) {
    let mut total_steps = 0u64;
    let mut folded: Option<&WorkerScratch> = None;
    for ws in scratch {
        let outcome = ws.outcome.as_ref().expect("worker outcome");
        total_steps += outcome.steps;
        if folded.is_none() && outcome.result != ContinueResult::Exhausted {
            folded = Some(ws);
        }
    }
    match folded {
        Some(ws) => {
            state.copy_from_slice(&ws.state);
            (ContinueResult::BudgetSpent, total_steps)
        }
        None => (ContinueResult::Exhausted, total_steps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_even_and_uneven() {
        let p = PartitionSpec::split(0, 8, 4);
        assert_eq!(p.chunks, vec![(0, 2), (2, 4), (4, 6), (6, 8)]);
        let p = PartitionSpec::split(0, 10, 4);
        assert_eq!(p.chunks, vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
        // sizes differ by at most one
        let sizes: Vec<u32> = p.chunks.iter().map(|&(l, h)| h - l).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn split_respects_start() {
        let p = PartitionSpec::split(5, 9, 2);
        assert_eq!(p.chunks, vec![(5, 7), (7, 9)]);
    }

    #[test]
    fn split_range_smaller_than_workers() {
        let p = PartitionSpec::split(3, 5, 8);
        assert_eq!(p.chunks, vec![(3, 4), (4, 5)]);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn split_empty_and_single() {
        assert!(PartitionSpec::split(7, 7, 4).is_empty());
        assert!(PartitionSpec::split(9, 2, 4).is_empty()); // inverted
        let p = PartitionSpec::split(0, 1, 4);
        assert_eq!(p.chunks, vec![(0, 1)]);
    }

    #[test]
    fn split_zero_workers_clamped() {
        let p = PartitionSpec::split(0, 4, 0);
        assert_eq!(p.chunks, vec![(0, 4)]);
    }

    fn ws(result: ContinueResult, steps: u64, state: &[u32]) -> WorkerScratch {
        WorkerScratch {
            rows: Vec::new(),
            state: state.to_vec(),
            hi: 0,
            out: Vec::new(),
            outcome: Some(ChunkOutcome { result, steps }),
        }
    }

    #[test]
    fn fold_picks_first_unexhausted() {
        let scratch = vec![
            ws(ContinueResult::Exhausted, 10, &[4, 0, 0]),
            ws(ContinueResult::BudgetSpent, 7, &[5, 2, 1]),
            ws(ContinueResult::BudgetSpent, 7, &[9, 3, 3]),
        ];
        let mut state = vec![0u32; 3];
        let (res, steps) = fold_outcomes(&scratch, &mut state);
        assert_eq!(res, ContinueResult::BudgetSpent);
        assert_eq!(steps, 24);
        assert_eq!(state, vec![5, 2, 1]);
    }

    #[test]
    fn fold_all_exhausted() {
        let scratch = vec![
            ws(ContinueResult::Exhausted, 3, &[4, 0, 0]),
            ws(ContinueResult::Exhausted, 5, &[8, 0, 0]),
        ];
        let mut state = vec![1u32, 1, 1];
        let (res, steps) = fold_outcomes(&scratch, &mut state);
        assert_eq!(res, ContinueResult::Exhausted);
        assert_eq!(steps, 8);
        // state untouched on full exhaustion (caller finalizes it)
        assert_eq!(state, vec![1, 1, 1]);
    }
}

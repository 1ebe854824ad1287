//! Hash indexes on join-key columns.
//!
//! SkinnerDB's pre-processor creates hash tables "on all columns subject to
//! equality predicates" (§4.5). The custom multi-way join then replaces the
//! naive `index += 1` tuple advance with a *jump* "directly to the next
//! highest tuple index that satisfies at least all applicable equality
//! predicates" — here [`HashIndex::next_ge`], a binary search over a sorted
//! posting list.
//!
//! Postings are positions within the *filtered* tuple space handed to
//! [`HashIndex::build`] (only tuples surviving unary predicates are hashed,
//! as in the paper), which keeps the index small and probe results directly
//! usable as Skinner-C tuple indices.
//!
//! # Two layouts
//!
//! All postings live in one buffer, grouped by key and ascending within a
//! key. What locates a key's group depends on how its keys are spread:
//!
//! - **Dense.** When the non-NULL keys span at most twice the entry count
//!   (`max − min + 1 ≤ 2n`), a CSR `offsets` array indexed by `key − min`
//!   holds each key's start, and the next slot its end. A probe is a
//!   subtraction, one range check and two array loads; `offsets` is at
//!   most about twice the postings buffer. Foreign keys into generated id
//!   ranges (TPC-H and JOB-like join keys) land here.
//! - **Sparse.** Otherwise a hash map takes each key to its `(start, len)`
//!   span: hashed strings, fused composite keys, floats and scattered
//!   integers. Most of these keys are themselves hashes, so the map folds
//!   a key's high half into the bucket bits (see `FoldHasher`).
//!
//! The layout is chosen per build from the keys alone and is invisible to
//! callers: [`HashIndex::probe`], [`HashIndex::next_ge`],
//! [`HashIndex::distinct_keys`] and [`HashIndex::len`] answer identically
//! under both.

use crate::column::Column;
use crate::hash::FoldHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Largest key span, per indexed entry, that gets the dense layout. At 2,
/// the `u32` offsets array is at most about twice the postings buffer.
const DENSE_SPAN_PER_ENTRY: u64 = 2;

/// Per-entry join keys in entry order (`None` = not indexed), cheap to
/// clone so a build can walk them more than once.
trait Keys: DoubleEndedIterator<Item = Option<i64>> + ExactSizeIterator + Clone {}

impl<K: DoubleEndedIterator<Item = Option<i64>> + ExactSizeIterator + Clone> Keys for K {}

/// key → (start, len) of its postings. Sparse keys are mostly hashes or
/// float bit patterns, hence the [`FoldHasher`].
type SpanMap = HashMap<i64, (u32, u32), BuildHasherDefault<FoldHasher>>;

/// Where each key's postings start and end (see the module docs).
#[derive(Debug, Clone)]
enum Spans {
    /// Key `k`'s postings are `offsets[k − min] .. offsets[k − min + 1]`;
    /// `offsets.len()` is the key span plus one.
    Dense { min: i64, offsets: Vec<u32> },
    /// key → (start, len).
    Sparse(SpanMap),
}

impl Default for Spans {
    fn default() -> Self {
        Spans::Sparse(SpanMap::default())
    }
}

/// A value → sorted-posting-list index over one column.
///
/// Postings for all keys live in one buffer, located per key by a dense
/// offsets array or a sparse span map (see the module docs). Compared to
/// one `Vec<u32>` per key this halves the probe's pointer chasing and
/// keeps the whole index in two allocations — the layout the
/// order-specialized join kernel probes on every tuple advance.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    spans: Spans,
    /// All posting lists, grouped by key; each group sorted ascending.
    postings: Vec<u32>,
    /// Number of keys with at least one posting.
    distinct: usize,
}

impl HashIndex {
    /// Build an index over `col`.
    ///
    /// If `positions` is given, entry `i` of the index corresponds to base
    /// row `positions[i]` and postings contain *filtered positions*
    /// `0..positions.len()`; otherwise postings are base row ids. NULL rows
    /// are not indexed (NULL never matches an equality predicate).
    pub fn build(col: &Column, positions: Option<&[u32]>) -> HashIndex {
        // Non-nullable i64 columns are read in place on every pass; other
        // columns compute their keys once (see `Column::join_keys`).
        match (col.i64s(), positions) {
            (Some(v), Some(rows)) if !col.nullable() => {
                HashIndex::from_key_iter(rows.iter().map(|&r| Some(v[r as usize])))
            }
            (Some(v), None) if !col.nullable() => {
                HashIndex::from_key_iter(v.iter().map(|&k| Some(k)))
            }
            _ => HashIndex::from_keys(&col.join_keys(positions)),
        }
    }

    /// Build from precomputed per-entry keys (`None` = not indexed).
    /// Entry `i` of `keys` becomes posting `i`; postings per key come out
    /// sorted ascending.
    ///
    /// This is also the *composite-key* build path: the engine fuses
    /// multi-column keys once per row
    /// ([`fused_join_key`](crate::column::fused_join_key)) and indexes
    /// the fused keys of its filtered rows directly. Fused keys are
    /// hashes, so consumers re-verify the underlying equality conjuncts
    /// after a probe — collisions cost extra checks, never wrong
    /// results.
    pub fn from_keys(keys: &[Option<i64>]) -> HashIndex {
        HashIndex::from_key_iter(keys.iter().copied())
    }

    /// [`from_keys`](HashIndex::from_keys) over keys produced on demand;
    /// the build walks them (clones of `keys`) up to three times.
    fn from_key_iter<K: Keys>(keys: K) -> HashIndex {
        let (mut lo, mut hi, mut total) = (i64::MAX, i64::MIN, 0u32);
        for k in keys.clone().flatten() {
            lo = lo.min(k);
            hi = hi.max(k);
            total += 1;
        }
        // `abs_diff` is `max − min` without overflow, even for
        // `i64::MIN ..= i64::MAX`.
        if total > 0 && hi.abs_diff(lo) < DENSE_SPAN_PER_ENTRY * u64::from(total) {
            HashIndex::dense(keys, lo, hi.abs_diff(lo) as usize + 1, total)
        } else {
            HashIndex::sparse(keys, total)
        }
    }

    /// CSR build over `span` consecutive keys starting at `min`.
    fn dense<K: Keys>(keys: K, min: i64, span: usize, total: u32) -> HashIndex {
        // Every key lies in `min ..= min + span − 1`, so `k − min` is exact.
        let slot = |k: i64| k.wrapping_sub(min) as usize;
        // Count entries per key...
        let mut offsets = vec![0u32; span + 1];
        for k in keys.clone().flatten() {
            offsets[slot(k)] += 1;
        }
        // ...turn the counts into each key's end...
        let (mut end, mut distinct) = (0u32, 0usize);
        for o in &mut offsets[..span] {
            distinct += usize::from(*o > 0);
            end += *o;
            *o = end;
        }
        offsets[span] = total;
        // ...and scatter backwards: each write decrements its key's end,
        // so the list fills from the back in ascending order and the slot
        // finishes at the key's start.
        let mut postings = vec![0u32; total as usize];
        for (i, k) in keys.enumerate().rev() {
            if let Some(k) = k {
                let o = &mut offsets[slot(k)];
                *o -= 1;
                postings[*o as usize] = i as u32;
            }
        }
        HashIndex {
            spans: Spans::Dense { min, offsets },
            postings,
            distinct,
        }
    }

    /// Hash-map build for keys too spread out for the dense layout.
    fn sparse<K: Keys>(keys: K, total: u32) -> HashIndex {
        // Pass 1: count entries per key (len field doubles as counter).
        let mut spans = SpanMap::default();
        for k in keys.clone().flatten() {
            spans.entry(k).or_insert((0, 0)).1 += 1;
        }
        // Carve spans; reset len to 0 to reuse as the write cursor.
        let mut cursor = 0u32;
        for span in spans.values_mut() {
            span.0 = cursor;
            cursor += span.1;
            span.1 = 0;
        }
        // Pass 2: scatter. Rows are visited in ascending position order,
        // so each key's postings come out sorted; len is restored to the
        // count by the time the pass ends.
        let mut postings = vec![0u32; total as usize];
        for (i, k) in keys.enumerate() {
            if let Some(k) = k {
                let span = spans.get_mut(&k).expect("counted key");
                postings[(span.0 + span.1) as usize] = i as u32;
                span.1 += 1;
            }
        }
        HashIndex {
            distinct: spans.len(),
            spans: Spans::Sparse(spans),
            postings,
        }
    }

    /// All positions whose join key equals `key` (ascending). String keys
    /// are hashes, so callers must re-verify the underlying predicate.
    #[inline]
    pub fn probe(&self, key: i64) -> &[u32] {
        let (start, end) = match &self.spans {
            Spans::Dense { min, offsets } => {
                // A key below `min` wraps to `2^64 − (min − key)`, which
                // is at least the span because `min + span − 1 ≤ i64::MAX`:
                // one unsigned comparison rejects keys on both sides.
                let d = key.wrapping_sub(*min) as u64;
                if d >= (offsets.len() - 1) as u64 {
                    return &[];
                }
                let d = d as usize;
                (offsets[d], offsets[d + 1])
            }
            Spans::Sparse(spans) => match spans.get(&key) {
                Some(&(start, len)) => (start, start + len),
                None => return &[],
            },
        };
        &self.postings[start as usize..end as usize]
    }

    /// Smallest indexed position `>= min` with the given key — the §4.5
    /// "jump". Returns `None` when the key's posting list is exhausted.
    #[inline]
    pub fn next_ge(&self, key: i64, min: u32) -> Option<u32> {
        let list = self.probe(key);
        let i = list.partition_point(|&p| p < min);
        list.get(i).copied()
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.distinct
    }

    /// Number of indexed entries (non-NULL rows).
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// True if nothing was indexed.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// Approximate heap footprint in bytes (reported by the Figure 8
    /// memory experiment).
    pub fn approx_bytes(&self) -> usize {
        let spans = match &self.spans {
            Spans::Dense { offsets, .. } => offsets.len() * std::mem::size_of::<u32>(),
            Spans::Sparse(spans) => {
                spans.len() * (std::mem::size_of::<i64>() + std::mem::size_of::<(u32, u32)>())
            }
        };
        spans + self.postings.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{fused_join_key, ColumnBuilder};
    use crate::value::{Value, ValueType};
    use std::collections::BTreeMap;

    fn is_dense(idx: &HashIndex) -> bool {
        matches!(idx.spans, Spans::Dense { .. })
    }

    /// Reference model: key → ascending entry positions.
    fn model(keys: &[Option<i64>]) -> BTreeMap<i64, Vec<u32>> {
        let mut m: BTreeMap<i64, Vec<u32>> = BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            if let Some(k) = k {
                m.entry(*k).or_default().push(i as u32);
            }
        }
        m
    }

    /// Check `from_keys(keys)` against the model: sizes, every key's
    /// postings in order, `next_ge` at every floor, and probes for absent
    /// keys — below `min`, above `max`, at the `i64` extremes and ones
    /// whose `key − min` wraps — plus any `extra_probes`.
    fn check_against_model(keys: &[Option<i64>], extra_probes: &[i64]) -> HashIndex {
        let idx = HashIndex::from_keys(keys);
        let m = model(keys);
        let ctx = || format!("keys {keys:?}");
        assert_eq!(
            idx.len(),
            m.values().map(Vec::len).sum::<usize>(),
            "{}",
            ctx()
        );
        assert_eq!(idx.is_empty(), m.is_empty(), "{}", ctx());
        assert_eq!(idx.distinct_keys(), m.len(), "{}", ctx());
        let last = keys.len() as u32 + 1;
        for (&k, list) in &m {
            assert_eq!(idx.probe(k), list.as_slice(), "key {k}, {}", ctx());
            for floor in 0..=last {
                let want = list.iter().copied().find(|&p| p >= floor);
                assert_eq!(idx.next_ge(k, floor), want, "key {k} floor {floor}");
            }
        }
        let mut probes = vec![i64::MIN, i64::MAX, 0, -1, 1];
        probes.extend_from_slice(extra_probes);
        if let (Some((&lo, _)), Some((&hi, _))) = (m.first_key_value(), m.last_key_value()) {
            for d in [1, 2, 3, i64::MAX, i64::MIN] {
                probes.extend([lo.wrapping_sub(d), hi.wrapping_add(d), lo.wrapping_add(d)]);
            }
        }
        for k in probes {
            let want = m.get(&k).map_or(&[][..], Vec::as_slice);
            assert_eq!(idx.probe(k), want, "probe {k}, {}", ctx());
            assert_eq!(idx.next_ge(k, 0), want.first().copied(), "probe {k}");
        }
        idx
    }

    /// SplitMix64, for reproducible random key sets.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn model_random_key_sets() {
        let mut rng = SplitMix(0x1DE5);
        let (mut dense, mut sparse) = (0, 0);
        for _ in 0..2000 {
            let n = rng.below(48) as usize;
            // Key spreads from a handful of values to the whole i64 range,
            // anchored anywhere: negative, near either extreme, or random.
            let spread = match rng.below(5) {
                0 => 1,
                1 => (n as u64).max(1),
                2 => 2 * (n as u64).max(1),
                3 => 8 * (n as u64).max(1),
                _ => u64::MAX,
            };
            let base = match rng.below(4) {
                0 => -(rng.below(1000) as i64),
                1 => i64::MIN,
                2 => i64::MAX - spread.min(i64::MAX as u64) as i64,
                _ => rng.next() as i64,
            };
            let null_per_16 = rng.below(4) * 4;
            let keys: Vec<Option<i64>> = (0..n)
                .map(|_| {
                    (rng.below(16) >= null_per_16)
                        .then(|| base.wrapping_add(rng.below(spread) as i64))
                })
                .collect();
            let idx = check_against_model(&keys, &[base, base.wrapping_add(spread as i64)]);
            if is_dense(&idx) {
                dense += 1;
            } else {
                sparse += 1;
            }
        }
        assert!(dense > 200 && sparse > 200, "dense {dense} sparse {sparse}");
    }

    #[test]
    fn model_edge_key_sets() {
        // All-NULL and empty input: nothing indexed, every probe empty.
        for keys in [vec![None; 5], vec![]] {
            let idx = check_against_model(&keys, &[]);
            assert!(idx.is_empty());
        }
        // A single key, dense with a span of one, at both extremes too.
        for k in [42, i64::MIN, i64::MAX] {
            let idx = check_against_model(&[None, Some(k), Some(k)], &[]);
            assert!(is_dense(&idx));
        }
        // i64::MIN with i64::MAX: `max − min` overflows i64.
        let idx = check_against_model(&[Some(i64::MAX), Some(i64::MIN), Some(i64::MAX)], &[]);
        assert!(!is_dense(&idx));
        // Negative dense keys.
        let idx = check_against_model(&[Some(-5), Some(-3), None, Some(-5), Some(-4)], &[-6, -2]);
        assert!(is_dense(&idx));
    }

    #[test]
    fn model_dense_sparse_threshold() {
        // Four entries: a span of exactly 2 × 4 = 8 is dense, 9 is not —
        // anchored at zero and flush against either end of the i64 range.
        for base in [0, -100, i64::MIN, i64::MAX - 8] {
            let at = |d: i64| Some(base + d);
            let idx = check_against_model(&[at(0), at(7), None, at(7), at(3)], &[]);
            assert!(is_dense(&idx), "span 8 at {base}");
            let idx = check_against_model(&[at(0), at(8), None, at(8), at(3)], &[]);
            assert!(!is_dense(&idx), "span 9 at {base}");
        }
        // Dense keys ending at i64::MAX: probing i64::MIN wraps `key − min`
        // to exactly the span, the first slot past the offsets.
        let top = [Some(i64::MAX - 3), Some(i64::MAX), Some(i64::MAX - 1)];
        assert!(is_dense(&check_against_model(&top, &[])));
    }

    #[test]
    fn build_matches_from_keys_of_join_keys() {
        // `build` reads non-nullable integer columns in place and every
        // other column through `join_keys`; both must index the same keys.
        let mut nullable = ColumnBuilder::new(ValueType::Int);
        for v in [Value::Int(3), Value::Null, Value::Int(3), Value::Int(9)] {
            nullable.push(&v);
        }
        let cols = [
            Column::from_ints(vec![3, 1, 3, 9]),
            Column::from_dates(vec![100, -5, 100, 7]),
            nullable.finish(),
            Column::from_strs(["b", "a", "b", "c"]),
        ];
        for col in &cols {
            for rows in [None, Some(&[0u32, 2, 3][..]), Some(&[])] {
                let keys = col.join_keys(rows);
                let (built, want) = (HashIndex::build(col, rows), HashIndex::from_keys(&keys));
                assert_eq!(built.len(), want.len());
                assert_eq!(built.distinct_keys(), want.distinct_keys());
                for k in keys.into_iter().flatten() {
                    assert_eq!(built.probe(k), want.probe(k), "{:?}", col.value_type());
                }
            }
        }
    }

    #[test]
    fn dense_layout_is_smaller_for_fk_keys() {
        let fk: Vec<Option<i64>> = (0..1000).map(|i| Some(i % 250)).collect();
        let dense = HashIndex::from_keys(&fk);
        assert!(is_dense(&dense));
        let spread: Vec<Option<i64>> = fk.iter().map(|k| k.map(|k| k * 1_000_003)).collect();
        let sparse = HashIndex::from_keys(&spread);
        assert!(!is_dense(&sparse));
        assert_eq!(dense.distinct_keys(), sparse.distinct_keys());
        assert!(dense.approx_bytes() < sparse.approx_bytes());
    }

    #[test]
    fn build_over_all_rows() {
        let col = Column::from_ints(vec![5, 7, 5, 5, 7]);
        let idx = HashIndex::build(&col, None);
        assert_eq!(idx.probe(5), &[0, 2, 3]);
        assert_eq!(idx.probe(7), &[1, 4]);
        assert_eq!(idx.probe(9), &[] as &[u32]);
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.len(), 5);
    }

    #[test]
    fn build_over_filtered_positions() {
        let col = Column::from_ints(vec![5, 7, 5, 5, 7]);
        // filtered space keeps base rows 1,2,4 → positions 0,1,2
        let idx = HashIndex::build(&col, Some(&[1, 2, 4]));
        assert_eq!(idx.probe(7), &[0, 2]);
        assert_eq!(idx.probe(5), &[1]);
    }

    #[test]
    fn next_ge_jumps() {
        let col = Column::from_ints(vec![5, 7, 5, 5, 7, 5]);
        let idx = HashIndex::build(&col, None);
        assert_eq!(idx.next_ge(5, 0), Some(0));
        assert_eq!(idx.next_ge(5, 1), Some(2));
        assert_eq!(idx.next_ge(5, 3), Some(3));
        assert_eq!(idx.next_ge(5, 4), Some(5));
        assert_eq!(idx.next_ge(5, 6), None);
        assert_eq!(idx.next_ge(42, 0), None);
    }

    #[test]
    fn nulls_not_indexed() {
        let mut b = ColumnBuilder::new(ValueType::Int);
        b.push(&Value::Int(1));
        b.push(&Value::Null);
        b.push(&Value::Int(1));
        let col = b.finish();
        let idx = HashIndex::build(&col, None);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.probe(1), &[0, 2]);
    }

    #[test]
    fn string_keys_probe() {
        let col = Column::from_strs(["x", "y", "x"]);
        let idx = HashIndex::build(&col, None);
        let key = col.join_key(0).unwrap();
        assert_eq!(idx.probe(key), &[0, 2]);
    }

    /// Composite build as the engine does it: fuse per-row keys, index
    /// the fused keys of the (possibly filtered) rows with `from_keys`.
    fn composite_index(cols: &[&Column], positions: Option<&[u32]>) -> HashIndex {
        let n = positions.map_or(cols[0].len(), <[u32]>::len);
        let keys: Vec<Option<i64>> = (0..n)
            .map(|i| {
                let row = match positions {
                    Some(rows) => rows[i] as usize,
                    None => i,
                };
                fused_join_key(cols.iter().copied(), row)
            })
            .collect();
        HashIndex::from_keys(&keys)
    }

    #[test]
    fn composite_from_keys_and_probe() {
        // (k1, k2) pairs; rows 0 and 3 collide on the pair, row 1 shares
        // only k1 and row 2 only k2 — the composite key must separate
        // them where a single-column index could not.
        let k1 = Column::from_ints(vec![1, 1, 9, 1]);
        let k2 = Column::from_ints(vec![5, 6, 5, 5]);
        let idx = composite_index(&[&k1, &k2], None);
        let key = fused_join_key([&k1, &k2], 0).unwrap();
        assert_eq!(idx.probe(key), &[0, 3]);
        assert_eq!(idx.next_ge(key, 1), Some(3));
        assert_eq!(idx.next_ge(key, 4), None);
        assert_eq!(idx.distinct_keys(), 3);
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn composite_over_filtered_positions_skips_nulls() {
        let k1 = Column::from_ints(vec![1, 2, 1, 1]);
        let mut b = ColumnBuilder::new(ValueType::Int);
        for v in [Value::Int(5), Value::Int(5), Value::Null, Value::Int(5)] {
            b.push(&v);
        }
        let k2 = b.finish();
        // Filtered space keeps base rows 0, 2, 3 → positions 0, 1, 2;
        // base row 2 has a NULL component and must not be indexed.
        let idx = composite_index(&[&k1, &k2], Some(&[0, 2, 3]));
        let key = fused_join_key([&k1, &k2], 0).unwrap();
        assert_eq!(idx.probe(key), &[0, 2]);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn composite_dates_participate() {
        let d = Column::from_dates(vec![100, 200, 100]);
        let k = Column::from_ints(vec![1, 1, 1]);
        let idx = composite_index(&[&d, &k], None);
        let key = fused_join_key([&d, &k], 0).unwrap();
        assert_eq!(idx.probe(key), &[0, 2]);
    }
}

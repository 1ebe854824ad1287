//! The correctness gate: every timed result against a reference.
//!
//! Row order is not part of a result (parallel join phases emit tuples
//! in scheduling order), so results compare as sorted rows. Float
//! aggregates compare within a relative [`FLOAT_TOLERANCE`]: a `SUM`
//! over the same tuples in another order (another join order, another
//! engine, another partitioning) differs in its last bits. Every other
//! value must match exactly.

use skinner_net::proto::put_value;
use skinner_storage::Value;
use std::cmp::Ordering;

/// Relative difference allowed between two float values.
pub const FLOAT_TOLERANCE: f64 = 1e-9;

/// Rows sorted into a canonical order.
pub fn canonical(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut rows = rows.to_vec();
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| {
                x.sql_cmp(y)
                    .unwrap_or_else(|| x.is_null().cmp(&y.is_null()))
            })
            .find(|o| *o != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
    });
    rows
}

/// Exact, order-independent fingerprint of a row multiset: the
/// wrapping sum of each row's FNV-1a hash over its wire encoding, so
/// repeated results are recognised without sorting or copying them.
fn digest(rows: &[Vec<Value>]) -> u64 {
    let mut buf = Vec::new();
    rows.iter().fold(rows.len() as u64, |acc, row| {
        buf.clear();
        for v in row {
            put_value(&mut buf, v);
        }
        let h = buf.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        acc.wrapping_add(h)
    })
}

/// Relative difference of two values if both are floats, 0 if they are
/// equal, `None` if they differ otherwise.
fn value_diff(a: &Value, b: &Value) -> Option<f64> {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) if x != y => {
            let scale = x.abs().max(y.abs()).max(1.0);
            Some((x - y).abs() / scale)
        }
        _ if a == b => Some(0.0),
        _ => None,
    }
}

/// Largest relative float difference between two canonical results,
/// or `None` if they differ in shape or in any non-float value.
pub fn max_diff(a: &[Vec<Value>], b: &[Vec<Value>]) -> Option<f64> {
    if a.len() != b.len() {
        return None;
    }
    let mut worst = 0.0f64;
    for (ra, rb) in a.iter().zip(b) {
        if ra.len() != rb.len() {
            return None;
        }
        for (x, y) in ra.iter().zip(rb) {
            worst = worst.max(value_diff(x, y)?);
        }
    }
    Some(worst)
}

struct Distinct {
    digest: u64,
    rows: Vec<Vec<Value>>,
    count: u64,
}

/// Every result observed per query, each distinct result stored once.
#[derive(Default)]
pub struct ResultLog {
    seen: Vec<Vec<Distinct>>,
    /// Results that never arrived (errors, refusals, timeouts).
    pub missing: u64,
}

/// The verdict of [`ResultLog::verify`].
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Results checked, missing ones included.
    pub attempted: u64,
    /// Missing or wrong results.
    pub failed: u64,
    /// Indexes of queries with at least one wrong result.
    pub wrong: Vec<usize>,
    /// Largest relative float difference among accepted results.
    pub max_float_diff: f64,
}

impl ResultLog {
    /// Record one result of query `query`.
    pub fn record(&mut self, query: usize, rows: &[Vec<Value>]) {
        let digest = digest(rows);
        self.add(query, digest, 1, || canonical(rows));
    }

    /// Add everything `other` recorded.
    pub fn merge(&mut self, other: ResultLog) {
        self.missing += other.missing;
        for (q, results) in other.seen.into_iter().enumerate() {
            for r in results {
                self.add(q, r.digest, r.count, || r.rows);
            }
        }
    }

    /// Count `count` results with `digest`, storing their rows on the
    /// first sighting only.
    fn add(
        &mut self,
        query: usize,
        digest: u64,
        count: u64,
        rows: impl FnOnce() -> Vec<Vec<Value>>,
    ) {
        if self.seen.len() <= query {
            self.seen.resize_with(query + 1, Vec::new);
        }
        let seen = &mut self.seen[query];
        match seen.iter_mut().find(|s| s.digest == digest) {
            Some(s) => s.count += count,
            None => seen.push(Distinct {
                digest,
                rows: rows(),
                count,
            }),
        }
    }

    /// Compare everything recorded with `reference[query]` (canonical).
    pub fn verify(&self, reference: &[Vec<Vec<Value>>]) -> Verdict {
        let mut v = Verdict {
            attempted: self.missing,
            failed: self.missing,
            ..Default::default()
        };
        for (q, results) in self.seen.iter().enumerate() {
            for r in results {
                v.attempted += r.count;
                match reference.get(q).and_then(|want| max_diff(want, &r.rows)) {
                    Some(diff) if diff <= FLOAT_TOLERANCE => {
                        v.max_float_diff = v.max_float_diff.max(diff);
                    }
                    _ => {
                        v.failed += r.count;
                        if !v.wrong.contains(&q) {
                            v.wrong.push(q);
                        }
                    }
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(vals: &[i64]) -> Vec<Vec<Value>> {
        vals.iter().map(|&v| vec![Value::Int(v)]).collect()
    }

    #[test]
    fn row_order_does_not_matter_but_content_does() {
        let mut log = ResultLog::default();
        log.record(0, &rows(&[2, 1]));
        log.record(0, &rows(&[1, 2]));
        log.record(0, &rows(&[2, 2]));
        let v = log.verify(&[canonical(&rows(&[1, 2]))]);
        assert_eq!((v.attempted, v.failed), (3, 1));
        assert_eq!(v.wrong, vec![0]);
        assert_eq!(log.seen[0].len(), 2, "identical results stored once");
    }

    #[test]
    fn floats_match_within_tolerance_only() {
        let want = vec![vec![Value::Float(1.0e6)]];
        let close = vec![vec![Value::Float(1.0e6 * (1.0 + 1e-13))]];
        let far = vec![vec![Value::Float(1.0e6 * (1.0 + 1e-6))]];
        let mut log = ResultLog::default();
        log.record(0, &close);
        log.record(0, &far);
        log.missing = 1;
        let v = log.verify(&[want]);
        assert_eq!((v.attempted, v.failed), (3, 2));
        assert!(v.max_float_diff > 0.0 && v.max_float_diff <= FLOAT_TOLERANCE);
    }

    #[test]
    fn ints_never_get_a_tolerance() {
        assert_eq!(max_diff(&rows(&[5]), &rows(&[6])), None);
        assert_eq!(max_diff(&rows(&[5]), &rows(&[5, 6])), None);
    }
}

//! Rows and stream batches.
//!
//! # The sharing / copy-on-write contract
//!
//! A [`Row`] is a shared, immutable tuple: a newtype over `Arc<[Value]>`.
//! `Row::clone` is a reference-count bump, so handing a row from storage to
//! the SQL executor, from a stream append to the TE's output batch, or from
//! an ingest [`Batch`] into a procedure context never copies cell data.
//! The one legal way to mutate a row in place is [`Row::make_mut`], which
//! is copy-on-write: it returns `&mut [Value]` directly when this handle is
//! the only owner, and clones the cells into a fresh allocation first when
//! the row is shared (a *COW break*). Consequently:
//!
//! * a snapshot/undo/windowed copy of a row can never be altered through
//!   another handle — aliasing is safe by construction;
//! * arity is fixed at construction. Deriving a wider row (e.g. appending
//!   hidden lifecycle columns, or concatenating join sides) builds a new
//!   allocation via [`Row::with_appended`] / [`Row::concat`] /
//!   [`Row::prefix`];
//! * every deep copy is counted in the process-wide [`RowMetrics`], so the
//!   share-vs-copy behaviour of the hot path is observable at runtime
//!   (surfaced through `PeStats` and `ClusterMetrics`).
//!
//! A [`Batch`] is the unit of streaming work in the S-Store transaction
//! model: one transaction execution (TE) is `(stored procedure, batch)`
//! (paper §2, "Stream-oriented Transaction Model"). Because batch rows are
//! shared handles, the ingest→router→worker→procedure-context hand-off is
//! refcount traffic, not row copies.

use crate::ids::BatchId;
use crate::value::Value;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Row metrics
// ---------------------------------------------------------------------------

/// A cache-line-padded counter: the three row counters live on separate
/// lines so increments to different counters on different cores never
/// false-share.
#[repr(align(64))]
struct PaddedCounter(AtomicU64);

static ROW_SHARES: PaddedCounter = PaddedCounter(AtomicU64::new(0));
static ROW_DEEP_COPIES: PaddedCounter = PaddedCounter(AtomicU64::new(0));
static ROW_COW_BREAKS: PaddedCounter = PaddedCounter(AtomicU64::new(0));

/// Process-wide counters of row sharing behaviour.
///
/// Counters are monotone and global (all partitions of the process), kept
/// as relaxed atomics padded to independent cache lines. Capture a
/// [`RowMetrics::snapshot`] before and after a region and subtract to
/// attribute activity to it — but note the counters see every thread, so
/// deltas are only exact when nothing else is running.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowMetrics {
    /// Row handles cloned by reference (the zero-copy path).
    pub shares: u64,
    /// Rows whose cells were fully copied (`to_values`, `with_appended`,
    /// `prefix`, and shared-`make_mut`).
    pub deep_copies: u64,
    /// `make_mut` calls that found the row shared and had to copy
    /// (a subset of `deep_copies`).
    pub cow_breaks: u64,
}

impl RowMetrics {
    /// Current counter values.
    pub fn snapshot() -> RowMetrics {
        RowMetrics {
            shares: ROW_SHARES.0.load(Ordering::Relaxed),
            deep_copies: ROW_DEEP_COPIES.0.load(Ordering::Relaxed),
            cow_breaks: ROW_COW_BREAKS.0.load(Ordering::Relaxed),
        }
    }

    /// Counter deltas since `earlier` (saturating).
    pub fn since(&self, earlier: &RowMetrics) -> RowMetrics {
        RowMetrics {
            shares: self.shares.saturating_sub(earlier.shares),
            deep_copies: self.deep_copies.saturating_sub(earlier.deep_copies),
            cow_breaks: self.cow_breaks.saturating_sub(earlier.cow_breaks),
        }
    }
}

#[inline]
fn count(counter: &PaddedCounter) {
    counter.0.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Row
// ---------------------------------------------------------------------------

/// One tuple: a shared, copy-on-write cell slice. Column order follows the
/// owning schema. See the module docs for the sharing contract.
#[derive(Debug)]
pub struct Row(Arc<[Value]>);

impl Row {
    /// Build a row from owned cells (no copy; the vector is consumed).
    pub fn new(values: Vec<Value>) -> Row {
        Row(values.into())
    }

    /// Mutable access to the cells, copy-on-write: in place when this
    /// handle is unique, after a counted deep copy when it is shared.
    /// The arity cannot change.
    pub fn make_mut(&mut self) -> &mut [Value] {
        if Arc::get_mut(&mut self.0).is_none() {
            count(&ROW_COW_BREAKS);
            count(&ROW_DEEP_COPIES);
            self.0 = self.0.iter().cloned().collect();
        }
        Arc::get_mut(&mut self.0).expect("row is unique after COW")
    }

    /// True when no other handle shares this row's cells.
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.0) == 1
    }

    /// Owned copy of the cells (counted as a deep copy).
    pub fn to_values(&self) -> Vec<Value> {
        count(&ROW_DEEP_COPIES);
        self.0.to_vec()
    }

    /// A new, wider row: these cells followed by `extra` (counted as a
    /// deep copy — used to append hidden lifecycle columns).
    pub fn with_appended(&self, extra: impl IntoIterator<Item = Value>) -> Row {
        count(&ROW_DEEP_COPIES);
        let extra = extra.into_iter();
        let mut v: Vec<Value> = Vec::with_capacity(self.0.len() + extra.size_hint().0);
        v.extend_from_slice(&self.0);
        v.extend(extra);
        Row(v.into())
    }

    /// A new row holding the first `n` cells (counted as a deep copy —
    /// used to strip hidden columns back off).
    pub fn prefix(&self, n: usize) -> Row {
        count(&ROW_DEEP_COPIES);
        Row(Arc::from(&self.0[..n.min(self.0.len())]))
    }

    /// A new row: `self`'s cells followed by `other`'s (join concat;
    /// counted as one deep copy).
    pub fn concat(&self, other: &Row) -> Row {
        count(&ROW_DEEP_COPIES);
        let mut v: Vec<Value> = Vec::with_capacity(self.0.len() + other.0.len());
        v.extend_from_slice(&self.0);
        v.extend_from_slice(&other.0);
        Row(v.into())
    }
}

impl Clone for Row {
    fn clone(&self) -> Row {
        count(&ROW_SHARES);
        Row(Arc::clone(&self.0))
    }
}

impl std::ops::Deref for Row {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        &self.0
    }
}

impl AsRef<[Value]> for Row {
    fn as_ref(&self) -> &[Value] {
        &self.0
    }
}

impl From<Vec<Value>> for Row {
    fn from(v: Vec<Value>) -> Row {
        Row::new(v)
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Row {
        Row(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Row {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        self.0 == other.0
    }
}
impl Eq for Row {}

impl PartialEq<Vec<Value>> for Row {
    fn eq(&self, other: &Vec<Value>) -> bool {
        *self.0 == other[..]
    }
}
impl PartialEq<Row> for Vec<Value> {
    fn eq(&self, other: &Row) -> bool {
        self[..] == *other.0
    }
}

impl Hash for Row {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state)
    }
}

impl PartialOrd for Row {
    fn partial_cmp(&self, other: &Row) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Row {
    fn cmp(&self, other: &Row) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl Default for Row {
    fn default() -> Row {
        Row(Vec::new().into())
    }
}

// ---------------------------------------------------------------------------
// Batch
// ---------------------------------------------------------------------------

/// An atomically-processed group of stream tuples.
///
/// For a border stored procedure (BSP), the batch boundary is chosen by the
/// client (e.g. "2 tuples"). For an interior stored procedure (ISP), the
/// batch is whatever the immediate upstream TE emitted on its output stream.
/// A transaction commits when its input batch has been completely processed.
///
/// `Batch::clone` shares its rows (refcount bumps), so re-enqueueing or
/// fanning a batch out never copies tuple data.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Identity of this batch within its workflow. Batch ids are assigned
    /// by the input manager in arrival order; the scheduler preserves that
    /// order end-to-end.
    pub id: BatchId,
    /// The tuples (shared handles).
    pub rows: Vec<Row>,
}

impl Batch {
    /// Construct a batch from anything row-convertible.
    pub fn new<R: Into<Row>>(id: BatchId, rows: Vec<R>) -> Self {
        Batch {
            id,
            rows: rows.into_iter().map(Into::into).collect(),
        }
    }

    /// An empty batch carrying only ordering information. Interior SPs can
    /// receive empty batches when the upstream TE emitted nothing; they
    /// still execute (windows may slide on time) but see no input rows.
    pub fn empty(id: BatchId) -> Self {
        Batch {
            id,
            rows: Vec::new(),
        }
    }

    /// Number of tuples in the batch.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the batch carries no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_basics() {
        let b = Batch::new(BatchId::new(1), vec![vec![Value::Int(1)]]);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
        let e = Batch::empty(BatchId::new(2));
        assert!(e.is_empty());
        assert_eq!(e.id, BatchId::new(2));
    }

    #[test]
    fn clone_shares_storage() {
        let a = Row::new(vec![Value::Int(1)]);
        assert!(a.is_unique());
        let b = a.clone();
        assert!(!a.is_unique());
        assert_eq!(a, b);
    }

    #[test]
    fn make_mut_unique_mutates_in_place() {
        // Allocation identity (not the global counters, which other
        // threads bump concurrently) proves no copy happened.
        let mut a = Row::new(vec![Value::Int(1)]);
        let cells_before = a.as_ptr();
        a.make_mut()[0] = Value::Int(2);
        assert_eq!(a[0], Value::Int(2));
        assert_eq!(a.as_ptr(), cells_before, "unique row must mutate in place");
    }

    #[test]
    fn make_mut_shared_copies_and_preserves_alias() {
        let mut a = Row::new(vec![Value::Int(1)]);
        let snapshot = a.clone();
        let before = RowMetrics::snapshot();
        a.make_mut()[0] = Value::Int(99);
        let delta = RowMetrics::snapshot().since(&before);
        assert_eq!(a[0], Value::Int(99));
        assert_eq!(snapshot[0], Value::Int(1), "alias must not see the write");
        assert!(delta.cow_breaks >= 1);
        assert!(delta.deep_copies >= 1);
    }

    #[test]
    fn widen_and_narrow() {
        let a = Row::new(vec![Value::Int(1)]);
        let wide = a.with_appended([Value::Int(2), Value::Int(3)]);
        assert_eq!(wide, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(wide.prefix(1), a);
        let joined = a.concat(&Row::new(vec![Value::Int(9)]));
        assert_eq!(joined, vec![Value::Int(1), Value::Int(9)]);
    }

    #[test]
    fn ordering_and_hashing_follow_cells(/* Distinct + ORDER BY rely on these */) {
        use std::collections::HashSet;
        let a = Row::new(vec![Value::Int(1)]);
        let b = Row::new(vec![Value::Int(2)]);
        assert!(a < b);
        let mut set = HashSet::new();
        set.insert(a.clone());
        assert!(!set.insert(Row::new(vec![Value::Int(1)])));
        assert!(set.insert(b));
    }
}

//! Routing of border batches across shared-nothing partitions.
//!
//! H-Store partitions every table on a partition key so that most
//! transactions are single-sited (paper §2); the router is the client-side
//! half of that contract. A [`RouteSpec`] declares the partition-key
//! column, whose value is hashed over the partitions for a uniform
//! spread, and the compiled [`Router`] splits each border batch into
//! per-partition shards.
//!
//! Routing is **total and stable**: every non-NULL key maps to exactly one
//! partition, and the same key always maps to the same partition (the hash
//! is `DefaultHasher` with its fixed initial state, not a per-process
//! random seed).
//!
//! **Placement is durable state.** A key's partition is where its logged
//! and snapshotted rows live, so recovery finds them only if the key
//! routes where it routed when they were written. The route hash is
//! therefore not the engine's map hasher (`sstore_common::hash`, keyed
//! anew in every process); a golden test pins which partition a set of
//! keys goes to, so a toolchain whose `DefaultHasher` output moved fails
//! it instead of stranding rows. `NULL` keys are rejected with [`Error::Schedule`] rather
//! than silently hashed onto one partition — a NULL key means the client
//! never declared where the row lives, and mis-partitioned rows would
//! quietly produce per-partition answers that merge to garbage.

use sstore_common::{Error, PartitionId, Result, Row, Value};
use sstore_txn::TxnOutcome;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Declarative placement: which column is the partition key. Keys are
/// hashed over all partitions (uniform spread).
#[derive(Debug, Clone, PartialEq)]
pub struct RouteSpec {
    /// Visible column index of the partition key.
    key_col: usize,
}

impl RouteSpec {
    /// Hash routing over `key_col`.
    pub fn hash(key_col: usize) -> RouteSpec {
        RouteSpec { key_col }
    }

    /// The declared partition-key column.
    pub(crate) fn key_col(&self) -> usize {
        self.key_col
    }
}

/// A route spec compiled against a partition count.
#[derive(Debug, Clone)]
pub struct Router {
    spec: RouteSpec,
    partitions: usize,
}

impl Router {
    /// Validate `spec` against `partitions` and build the router.
    pub fn new(spec: RouteSpec, partitions: usize) -> Result<Router> {
        if partitions == 0 {
            return Err(Error::Schedule(
                "a router needs at least 1 partition".into(),
            ));
        }
        Ok(Router { spec, partitions })
    }

    /// The spec this router was compiled from.
    pub(crate) fn spec(&self) -> &RouteSpec {
        &self.spec
    }

    /// Route one key value to its owning partition. `NULL` keys are
    /// rejected (see module docs).
    pub fn route_key(&self, key: &Value) -> Result<PartitionId> {
        if matches!(key, Value::Null) {
            return Err(Error::Schedule(
                "partition key is NULL; cannot route a row without a key".into(),
            ));
        }
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        Ok(PartitionId::new(
            (h.finish() % self.partitions as u64) as u32,
        ))
    }

    /// Route one row by the declared partition-key column.
    pub fn route(&self, row: &[Value]) -> Result<PartitionId> {
        let col = self.spec.key_col();
        let key = row
            .get(col)
            .ok_or_else(|| Error::Schedule(format!("partition key column {col} out of range")))?;
        self.route_key(key)
    }

    /// Split `rows` into per-partition shards, preserving the relative
    /// order of rows within each shard (per-partition FIFO is what makes
    /// the parallel run deterministic).
    pub fn shard(&self, rows: Vec<Row>) -> Result<Vec<Vec<Row>>> {
        let mut shards: Vec<Vec<Row>> = vec![Vec::new(); self.partitions];
        for row in rows {
            let p = self.route(&row)?;
            shards[p.raw() as usize].push(row);
        }
        Ok(shards)
    }
}

/// Outcomes from one partition's share of an async submission.
#[derive(Debug)]
pub struct PartitionOutcomes {
    /// The partition that executed this share.
    pub partition: PartitionId,
    /// Its TE outcomes, in execution order.
    pub outcomes: Vec<TxnOutcome>,
}

/// Handle to an in-flight asynchronous submission
/// ([`crate::Cluster::submit_batch_async`]). The submission is already
/// enqueued on every involved partition's ingest queue; [`Ticket::wait`]
/// blocks until each has executed its share and resolves to the per-TE
/// outcomes.
#[derive(Debug)]
#[must_use = "dropping a Ticket discards per-batch outcomes AND errors; call wait()"]
pub struct Ticket {
    pub(crate) pending: Vec<(PartitionId, mpsc::Receiver<Result<Vec<TxnOutcome>>>)>,
}

impl Ticket {
    /// Block until every involved partition finished its share; returns
    /// per-partition outcomes in partition order.
    ///
    /// A share whose reply channel was dropped unresolved (the worker
    /// died mid-processing and its supervisor could not attribute the
    /// loss) surfaces as [`Error::PartitionDown`].
    pub fn wait(self) -> Result<Vec<PartitionOutcomes>> {
        let mut out = Vec::with_capacity(self.pending.len());
        for (partition, rx) in self.pending {
            let outcomes = rx.recv().map_err(|_| {
                Error::PartitionDown(format!(
                    "partition worker {partition} dropped this submission's reply"
                ))
            })??;
            out.push(PartitionOutcomes {
                partition,
                outcomes,
            });
        }
        Ok(out)
    }

    /// Like [`Ticket::wait`], but gives the whole submission at most
    /// `timeout` to resolve. On expiry returns [`Error::Timeout`] — note
    /// the submission is already enqueued and **still executes** on its
    /// partitions; only the outcomes are discarded. A timed-out ticket
    /// must therefore not be blindly resubmitted.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Vec<PartitionOutcomes>> {
        let deadline = Instant::now() + timeout;
        let mut out = Vec::with_capacity(self.pending.len());
        for (partition, rx) in self.pending {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let outcomes = match rx.recv_timeout(remaining) {
                Ok(r) => r?,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    return Err(Error::Timeout(format!(
                        "submission unresolved after {timeout:?} (still executing on \
                         partition {partition}; outcomes discarded)"
                    )))
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(Error::PartitionDown(format!(
                        "partition worker {partition} dropped this submission's reply"
                    )))
                }
            };
            out.push(PartitionOutcomes {
                partition,
                outcomes,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_routing_is_total_and_stable() {
        let r = Router::new(RouteSpec::hash(0), 3).unwrap();
        for i in 0..200i64 {
            let a = r.route_key(&Value::Int(i)).unwrap();
            let b = r.route_key(&Value::Int(i)).unwrap();
            assert_eq!(a, b);
            assert!((a.raw() as usize) < 3);
        }
    }

    /// Which partition each key goes to, at 2 and 3 partitions. These are
    /// durable facts (see module docs): a change here moves keys away from
    /// the rows recovery restores.
    #[test]
    fn hash_placement_matches_its_golden_table() {
        let golden = [
            (Value::Int(0), 1, 0),
            (Value::Int(1), 1, 0),
            (Value::Int(2), 0, 1),
            (Value::Int(42), 1, 1),
            (Value::Int(-7), 1, 1),
            (Value::Int(1_000_003), 0, 1),
            (Value::Int(9_876_543_210), 1, 2),
            (Value::Int(i64::MAX), 1, 0),
            (Value::Text(String::new()), 0, 1),
            (Value::Text("a".into()), 0, 0),
            (Value::Text("voter".into()), 0, 1),
            (Value::Text("555-0100".into()), 0, 2),
            (Value::Timestamp(0), 1, 0),
            (Value::Timestamp(1_700_000_000_000_000), 1, 1),
        ];
        let r2 = Router::new(RouteSpec::hash(0), 2).unwrap();
        let r3 = Router::new(RouteSpec::hash(0), 3).unwrap();
        for (key, p2, p3) in golden {
            assert_eq!(r2.route_key(&key).unwrap().raw(), p2, "{key:?} over 2");
            assert_eq!(r3.route_key(&key).unwrap().raw(), p3, "{key:?} over 3");
        }
    }

    #[test]
    fn null_keys_rejected() {
        let r = Router::new(RouteSpec::hash(0), 2).unwrap();
        let err = r.route_key(&Value::Null).unwrap_err();
        assert_eq!(err.kind(), "schedule");
        let err = r.route(&[Value::Null, Value::Int(1)]).unwrap_err();
        assert_eq!(err.kind(), "schedule");
    }

    #[test]
    fn bad_specs_rejected() {
        assert!(Router::new(RouteSpec::hash(0), 0).is_err());
    }

    #[test]
    fn shard_preserves_order_and_key_errors_surface() {
        let r = Router::new(RouteSpec::hash(1), 2).unwrap();
        // Keys for column 1: the first and third rows route to p0, the
        // second to p1.
        let keys_on = |p: u32| {
            let r = &r;
            (0i64..).filter(move |&k| r.route_key(&Value::Int(k)).unwrap().raw() == p)
        };
        let mut p0 = keys_on(0);
        let (a, c) = (p0.next().unwrap(), p0.next().unwrap());
        let b = keys_on(1).next().unwrap();
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::Int(a)].into(),
            vec![Value::Int(2), Value::Int(b)].into(),
            vec![Value::Int(3), Value::Int(c)].into(),
        ];
        let shards = r.shard(rows).unwrap();
        assert_eq!(shards[0].len(), 2);
        assert_eq!(shards[0][0][0], Value::Int(1));
        assert_eq!(shards[0][1][0], Value::Int(3));
        assert_eq!(shards[1].len(), 1);
        // Out-of-range key column.
        assert!(r.shard(vec![vec![Value::Int(1)].into()]).is_err());
    }
}

//! Property tests for the partition router and the shared-nothing runtime:
//! routing is total and stable over arbitrary keys and partition counts,
//! and any interleaving of per-partition async submissions merges to the
//! same table state as the single-partition reference (determinism of the
//! worker runtime).

use proptest::prelude::*;
use sstore_core::common::{Row, Value};
use sstore_core::workloads::deploy_count_events as deploy;
use sstore_core::{Cluster, RouteSpec, Router, SStoreBuilder};

fn arb_key() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        ".{0,8}".prop_map(Value::Text),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every non-NULL key routes to exactly one in-range partition, and
    /// routing the same key twice gives the same partition.
    #[test]
    fn hash_routing_is_total_and_stable(key in arb_key(), n in 1usize..8) {
        let r = Router::new(RouteSpec::hash(0), n).unwrap();
        let a = r.route_key(&key).unwrap();
        let b = r.route_key(&key).unwrap();
        prop_assert_eq!(a, b);
        prop_assert!((a.raw() as usize) < n);
    }

    /// Sharding partitions the rows: every row lands in exactly one shard
    /// and shard order preserves input order per partition.
    #[test]
    fn sharding_is_a_partition_of_the_input(
        keys in prop::collection::vec(any::<i64>(), 0..64),
        n in 1usize..6,
    ) {
        let r = Router::new(RouteSpec::hash(0), n).unwrap();
        let rows: Vec<Row> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| Row::new(vec![Value::Int(*k), Value::Int(i as i64)]))
            .collect();
        let shards = r.shard(rows.clone()).unwrap();
        let total: usize = shards.iter().map(Vec::len).sum();
        prop_assert_eq!(total, rows.len());
        for (p, shard) in shards.iter().enumerate() {
            let mut last_seq = -1i64;
            for row in shard {
                prop_assert_eq!(r.route(row).unwrap().raw() as usize, p);
                let seq = row[1].as_int().unwrap();
                prop_assert!(seq > last_seq, "per-partition order broken");
                last_seq = seq;
            }
        }
    }
}

fn state(rows: Vec<Row>) -> Vec<Row> {
    let mut rows = rows;
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any interleaving of per-partition async submissions merges to the
    /// same table state as the single-partition reference: submissions are
    /// split into differently-sized chunks, pushed through the async path
    /// (workers coalesce and drain concurrently), and tickets are awaited
    /// in an arbitrary order driven by `wait_order_seed`.
    #[test]
    fn async_interleavings_match_single_partition_reference(
        events in prop::collection::vec((0i64..32, 0i64..100), 1..120),
        partitions in 1usize..5,
        chunk in 1usize..40,
        wait_order_seed in any::<u64>(),
    ) {
        let rows: Vec<Row> = events
            .iter()
            .map(|(k, a)| Row::new(vec![Value::Int(*k), Value::Int(*a)]))
            .collect();

        // Single-partition reference, one synchronous batch at a time.
        let mut single = SStoreBuilder::new().build().unwrap();
        deploy(&mut single).unwrap();
        for c in rows.chunks(chunk) {
            single.submit_batch("count_events", c.to_vec()).unwrap();
        }
        let reference = state(single.query("SELECT * FROM totals", &[]).unwrap().rows);

        // Cluster, async ingest, tickets awaited in a shuffled order.
        let cluster = Cluster::new(partitions, &SStoreBuilder::new(), deploy).unwrap();
        let mut tickets = Vec::new();
        for c in rows.chunks(chunk) {
            tickets.push(cluster.submit_batch_async("count_events", c.to_vec()).unwrap());
        }
        let mut order: Vec<usize> = (0..tickets.len()).collect();
        // Deterministic pseudo-shuffle from the seed.
        let mut s = wait_order_seed | 1;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        let mut tickets: Vec<Option<sstore_core::Ticket>> = tickets.into_iter().map(Some).collect();
        for i in order {
            for po in tickets[i].take().unwrap().wait().unwrap() {
                prop_assert!(po.outcomes.iter().all(|o| o.is_committed()));
            }
        }
        let merged = state(cluster.query_all("SELECT * FROM totals", &[]).unwrap());
        prop_assert_eq!(merged, reference);
    }
}

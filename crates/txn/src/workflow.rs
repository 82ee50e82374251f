//! Workflow graphs.
//!
//! A workflow is a DAG of stored procedures connected by streams: an edge
//! `P → Q` exists when `Q.input_stream == P.output_stream`. Border stored
//! procedures (BSPs) have no upstream producer; all others are interior
//! (ISPs) and are only ever invoked by PE triggers (paper §2).
//!
//! # Cross-partition edges
//!
//! A stream may be declared **remote** (`Workflow::declare_remote`,
//! driven by `Cluster::declare_cross_edge`): tuples a TE emits onto it are
//! not consumed by this partition's PE triggers but routed — by a declared
//! key column — to the partitions owning the downstream keys, where the
//! consuming procedures run as forwarded TEs. This is how a PE trigger
//! firing on partition p0 schedules a downstream TE on p1 while keeping
//! S-Store's ordered, exactly-once dataflow guarantee: forwards travel
//! per-source FIFO and are logged (and deduplicated by high-water mark)
//! on the receiving partition before execution.

use crate::procedure::Procedure;
use sstore_common::hash::{HashMap, HashSet};
use sstore_common::{Error, ProcId, Result, TableId};

/// Declaration of one cross-partition workflow edge: tuples emitted onto
/// `stream` are routed to the partition owning `key_col` instead of being
/// consumed locally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossEdge {
    /// The stream carrying the edge.
    pub stream: TableId,
    /// Visible column of the emitted tuples that routes them.
    pub key_col: usize,
}

/// The workflow structure derived from registered procedures.
#[derive(Debug, Clone, Default)]
pub struct Workflow {
    /// For each stream: the procedures consuming it.
    consumers: HashMap<TableId, Vec<ProcId>>,
    /// For each stream: the procedure producing it (at most one; S-Store
    /// workflows connect one upstream output to downstream inputs).
    producer: HashMap<TableId, ProcId>,
    /// Procedures in registration order with their stream endpoints.
    nodes: Vec<(ProcId, Option<TableId>, Option<TableId>)>,
    /// True when some pair of distinct procedures shares a writable table —
    /// the condition under which the paper requires serial execution of the
    /// whole workflow per batch.
    shared_writables: bool,
    /// Streams declared as cross-partition edges: stream → routing column.
    remote: HashMap<TableId, usize>,
}

impl Workflow {
    /// Build the workflow from the registered procedures.
    pub(crate) fn build(procs: &[Procedure]) -> Result<Workflow> {
        let mut wf = Workflow::default();
        for p in procs {
            if let Some(out) = p.output_stream {
                if let Some(prev) = wf.producer.insert(out, p.id) {
                    return Err(Error::Schedule(format!(
                        "stream {out} has two producers ({prev} and {})",
                        p.id
                    )));
                }
            }
        }
        for p in procs {
            if let Some(input) = p.input_stream {
                wf.consumers.entry(input).or_default().push(p.id);
            }
            wf.nodes.push((p.id, p.input_stream, p.output_stream));
        }
        wf.check_acyclic(procs)?;
        wf.shared_writables = Self::compute_shared_writables(procs);
        Ok(wf)
    }

    /// Rebuild from `procs`, keeping the declared cross-partition edges:
    /// stream ids are deployment-deterministic, so the map stays valid.
    pub(crate) fn rebuild(&self, procs: &[Procedure]) -> Result<Workflow> {
        Ok(Workflow {
            remote: self.remote.clone(),
            ..Workflow::build(procs)?
        })
    }

    fn check_acyclic(&self, procs: &[Procedure]) -> Result<()> {
        // Kahn's algorithm over proc nodes.
        let mut indeg: HashMap<ProcId, usize> = HashMap::default();
        let mut edges: HashMap<ProcId, Vec<ProcId>> = HashMap::default();
        for p in procs {
            indeg.entry(p.id).or_insert(0);
            if let Some(input) = p.input_stream {
                if let Some(&up) = self.producer.get(&input) {
                    edges.entry(up).or_default().push(p.id);
                    *indeg.entry(p.id).or_insert(0) += 1;
                }
            }
        }
        let mut ready: Vec<ProcId> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&p, _)| p)
            .collect();
        let mut seen = 0;
        while let Some(p) = ready.pop() {
            seen += 1;
            for &q in edges.get(&p).map(Vec::as_slice).unwrap_or(&[]) {
                let d = indeg.get_mut(&q).expect("node registered");
                *d -= 1;
                if *d == 0 {
                    ready.push(q);
                }
            }
        }
        if seen != indeg.len() {
            return Err(Error::Schedule("workflow graph contains a cycle".into()));
        }
        Ok(())
    }

    fn compute_shared_writables(procs: &[Procedure]) -> bool {
        for (i, a) in procs.iter().enumerate() {
            for b in &procs[i + 1..] {
                // Streams connecting the workflow don't count — only shared
                // *table* state forces whole-workflow serialization.
                let a_streams: HashSet<_> = a
                    .input_stream
                    .iter()
                    .chain(a.output_stream.iter())
                    .copied()
                    .collect();
                for t in a.write_set.intersection(
                    &b.write_set
                        .union(&b.read_set)
                        .copied()
                        .collect::<HashSet<_>>(),
                ) {
                    if !a_streams.contains(t)
                        && b.input_stream != Some(*t)
                        && b.output_stream != Some(*t)
                    {
                        return true;
                    }
                }
                for t in b.write_set.intersection(&a.read_set) {
                    if !a_streams.contains(t)
                        && b.input_stream != Some(*t)
                        && b.output_stream != Some(*t)
                    {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Procedures consuming `stream`.
    pub(crate) fn consumers_of(&self, stream: TableId) -> &[ProcId] {
        self.consumers
            .get(&stream)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The producer of `stream` (None when it's a border input).
    pub(crate) fn producer_of(&self, stream: TableId) -> Option<ProcId> {
        self.producer.get(&stream).copied()
    }

    /// Is `proc` a border stored procedure (no upstream producer)?
    pub(crate) fn is_border(&self, proc: ProcId) -> bool {
        self.nodes
            .iter()
            .find(|(p, _, _)| *p == proc)
            .map(|(_, input, _)| match input {
                Some(s) => self.producer_of(*s).is_none(),
                None => true,
            })
            .unwrap_or(true)
    }

    /// Whether distinct procedures share writable (non-stream) tables —
    /// the serial-execution condition from the paper.
    pub fn has_shared_writables(&self) -> bool {
        self.shared_writables
    }

    /// Declare `stream` a cross-partition edge routed by `key_col` (see
    /// the module docs). Emissions onto it are forwarded through the
    /// cluster router instead of firing local PE triggers.
    pub(crate) fn declare_remote(&mut self, edge: CrossEdge) {
        self.remote.insert(edge.stream, edge.key_col);
    }

    /// The routing column of `stream` when it is a declared cross-partition
    /// edge, `None` for ordinary (local) streams.
    pub(crate) fn remote_key_col(&self, stream: TableId) -> Option<usize> {
        self.remote.get(&stream).copied()
    }

    /// Number of procedures in the workflow.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no procedures are registered.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procedure::ProcHandler;
    use std::sync::Arc;

    fn handler() -> ProcHandler {
        Arc::new(|_| Ok(()))
    }

    fn proc(
        id: u32,
        input: Option<u32>,
        output: Option<u32>,
        reads: &[u32],
        writes: &[u32],
    ) -> Procedure {
        Procedure {
            id: ProcId::new(id),
            name: format!("sp{id}"),
            input_stream: input.map(TableId::new),
            output_stream: output.map(TableId::new),
            statements: Vec::new(),
            read_set: reads.iter().map(|&t| TableId::new(t)).collect(),
            write_set: writes.iter().map(|&t| TableId::new(t)).collect(),
            multi_partition: false,
            handler: handler(),
        }
    }

    #[test]
    fn linear_workflow_structure() {
        // streams: 10 -> sp0 -> 11 -> sp1 -> 12 -> sp2
        let procs = vec![
            proc(0, Some(10), Some(11), &[], &[]),
            proc(1, Some(11), Some(12), &[], &[]),
            proc(2, Some(12), None, &[], &[]),
        ];
        let wf = Workflow::build(&procs).unwrap();
        assert!(wf.is_border(ProcId::new(0)));
        assert!(!wf.is_border(ProcId::new(1)));
        assert_eq!(wf.consumers_of(TableId::new(11)), &[ProcId::new(1)]);
        assert_eq!(wf.producer_of(TableId::new(12)), Some(ProcId::new(1)));
        assert_eq!(wf.len(), 3);
        assert!(!wf.has_shared_writables());
    }

    #[test]
    fn shared_writable_table_detected() {
        // Both write table 50 (not a stream endpoint).
        let procs = vec![
            proc(0, Some(10), Some(11), &[], &[50]),
            proc(1, Some(11), None, &[50], &[50]),
        ];
        let wf = Workflow::build(&procs).unwrap();
        assert!(wf.has_shared_writables());
    }

    #[test]
    fn writer_reader_pair_detected() {
        // sp0 writes 50; sp1 reads 50.
        let procs = vec![
            proc(0, Some(10), Some(11), &[], &[50]),
            proc(1, Some(11), None, &[50], &[]),
        ];
        let wf = Workflow::build(&procs).unwrap();
        assert!(wf.has_shared_writables());
    }

    #[test]
    fn disjoint_write_sets_not_flagged() {
        let procs = vec![
            proc(0, Some(10), Some(11), &[60], &[50]),
            proc(1, Some(11), None, &[61], &[51]),
        ];
        let wf = Workflow::build(&procs).unwrap();
        assert!(!wf.has_shared_writables());
    }

    #[test]
    fn two_producers_rejected() {
        let procs = vec![
            proc(0, Some(10), Some(11), &[], &[]),
            proc(1, Some(12), Some(11), &[], &[]),
        ];
        assert!(Workflow::build(&procs).is_err());
    }

    #[test]
    fn cycle_rejected() {
        let procs = vec![
            proc(0, Some(11), Some(12), &[], &[]),
            proc(1, Some(12), Some(11), &[], &[]),
        ];
        let err = Workflow::build(&procs).unwrap_err();
        assert_eq!(err.kind(), "schedule");
    }

    #[test]
    fn fan_out_consumers() {
        let procs = vec![
            proc(0, Some(10), Some(11), &[], &[]),
            proc(1, Some(11), None, &[], &[]),
            proc(2, Some(11), None, &[], &[]),
        ];
        let wf = Workflow::build(&procs).unwrap();
        assert_eq!(wf.consumers_of(TableId::new(11)).len(), 2);
    }
}

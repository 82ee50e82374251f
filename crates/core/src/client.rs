//! Client-side workflow driving.
//!
//! In S-Store mode a client pushes border batches and the PE does the rest.
//! Against a plain OLTP engine (the paper's H-Store baseline), the *client*
//! owns the workflow: it invokes SP1, waits for the response, then decides
//! to invoke SP2, and so on — each decision costing a round trip and, more
//! importantly, *arriving after newer input*. [`PipelinedClient`] models
//! that: a FIFO request queue where follow-up invocations generated by
//! responses join **behind** whatever external input has arrived meanwhile.
//! That is precisely the reordering that produces §3.1's anomalies (votes
//! processed before a pending elimination runs).

use sstore_common::{Result, Row};
use sstore_txn::{Partition, TxnOutcome};
use std::collections::VecDeque;

/// What a queued client action does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// External input (a fresh vote, a GPS ping).
    External,
    /// Follow-up issued by the client after observing a response.
    FollowUp,
}

/// One queued request.
#[derive(Debug, Clone)]
pub struct ClientRequest {
    /// Procedure to invoke.
    pub proc: String,
    /// Input rows (the invocation's batch).
    pub rows: Vec<Row>,
    /// External vs follow-up (for stats/debugging).
    pub kind: RequestKind,
}

impl ClientRequest {
    /// An external input request.
    pub fn external<R: Into<Row>>(proc: impl Into<String>, rows: Vec<R>) -> Self {
        ClientRequest {
            proc: proc.into(),
            rows: rows.into_iter().map(Into::into).collect(),
            kind: RequestKind::External,
        }
    }

    /// A follow-up request.
    pub fn follow_up<R: Into<Row>>(proc: impl Into<String>, rows: Vec<R>) -> Self {
        ClientRequest {
            proc: proc.into(),
            rows: rows.into_iter().map(Into::into).collect(),
            kind: RequestKind::FollowUp,
        }
    }
}

/// Policy invoked after each response; pushes follow-up requests.
pub(crate) type ResponsePolicy<'a> =
    dyn FnMut(&ClientRequest, &TxnOutcome, &mut Vec<ClientRequest>) + 'a;

/// A deterministic pipelined client (see module docs).
pub struct PipelinedClient<'a> {
    queue: VecDeque<ClientRequest>,
    policy: Box<ResponsePolicy<'a>>,
    processed: u64,
    follow_ups: u64,
}

impl std::fmt::Debug for PipelinedClient<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelinedClient")
            .field("queued", &self.queue.len())
            .field("processed", &self.processed)
            .field("follow_ups", &self.follow_ups)
            .finish()
    }
}

impl<'a> PipelinedClient<'a> {
    /// Create a client with a response policy.
    pub fn new(
        policy: impl FnMut(&ClientRequest, &TxnOutcome, &mut Vec<ClientRequest>) + 'a,
    ) -> Self {
        PipelinedClient {
            queue: VecDeque::new(),
            policy: Box::new(policy),
            processed: 0,
            follow_ups: 0,
        }
    }

    /// Enqueue external input (arrives behind everything already queued).
    pub fn feed(&mut self, request: ClientRequest) {
        self.queue.push_back(request);
    }

    /// Pending requests.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Process one queued request against the partition. Responses may
    /// generate follow-ups, which join the back of the queue — *behind*
    /// any external input that has already arrived. Returns the outcome,
    /// or `None` when the queue is empty.
    pub fn step(&mut self, partition: &mut Partition) -> Result<Option<TxnOutcome>> {
        let Some(req) = self.queue.pop_front() else {
            return Ok(None);
        };
        let outcome = partition.invoke(&req.proc, req.rows.clone())?;
        self.processed += 1;
        let mut new_requests = Vec::new();
        (self.policy)(&req, &outcome, &mut new_requests);
        self.follow_ups += new_requests.len() as u64;
        for r in new_requests {
            self.queue.push_back(r);
        }
        Ok(Some(outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SStoreBuilder;
    use sstore_common::Value;
    use sstore_txn::ProcSpec;

    /// Two-step pipeline driven client-side: `stage1` records its input,
    /// client then invokes `stage2` with the same value.
    fn setup() -> Partition {
        let mut p = SStoreBuilder::new().hstore_mode().build().unwrap();
        p.ddl("CREATE TABLE trace (seq INT NOT NULL, tag VARCHAR, v INT, PRIMARY KEY (seq))")
            .unwrap();
        p.ddl("CREATE TABLE seqgen (k INT NOT NULL, n INT NOT NULL, PRIMARY KEY (k))")
            .unwrap();
        let mut sc = sstore_engine::TxnScratch::new(None, sstore_common::BatchId::new(0));
        p.engine_mut()
            .execute_sql("INSERT INTO seqgen VALUES (1, 0)", &[], &mut sc, 0)
            .unwrap();
        for stage in ["stage1", "stage2"] {
            let tag = stage.to_string();
            p.register(ProcSpec::new(stage, move |ctx| {
                let v = ctx.input().rows[0][0].clone();
                ctx.sql("UPDATE seqgen SET n = n + 1 WHERE k = 1", &[])?;
                let seq = ctx
                    .sql("SELECT n FROM seqgen WHERE k = 1", &[])?
                    .scalar_i64()?;
                ctx.sql(
                    "INSERT INTO trace VALUES (?, ?, ?)",
                    &[Value::Int(seq), Value::Text(tag.clone()), v],
                )?;
                Ok(())
            }))
            .unwrap();
        }
        p
    }

    #[test]
    fn follow_ups_fall_behind_new_input() {
        let mut p = setup();
        let mut client = PipelinedClient::new(|req, _outcome, out| {
            if req.proc == "stage1" {
                out.push(ClientRequest::follow_up("stage2", req.rows.clone()));
            }
        });
        // Two external inputs arrive before any response is handled.
        client.feed(ClientRequest::external("stage1", vec![vec![Value::Int(1)]]));
        client.feed(ClientRequest::external("stage1", vec![vec![Value::Int(2)]]));
        let mut processed = 0;
        while client.step(&mut p).unwrap().is_some() {
            processed += 1;
        }

        let r = p
            .query("SELECT tag, v FROM trace ORDER BY seq", &[])
            .unwrap();
        let order: Vec<(String, i64)> = r
            .rows
            .iter()
            .map(|row| (row[0].as_text().unwrap().into(), row[1].as_int().unwrap()))
            .collect();
        // The client-driven pipeline INTERLEAVES: stage1(2) runs before
        // stage2(1) — the reordering S-Store's PE triggers eliminate.
        assert_eq!(
            order,
            vec![
                ("stage1".into(), 1),
                ("stage1".into(), 2),
                ("stage2".into(), 1),
                ("stage2".into(), 2),
            ]
        );
        assert_eq!(processed, 4);
    }

    #[test]
    fn step_on_empty_queue_is_none() {
        let mut p = setup();
        let mut client = PipelinedClient::new(|_, _, _| {});
        assert!(client.step(&mut p).unwrap().is_none());
        assert_eq!(client.pending(), 0);
    }
}

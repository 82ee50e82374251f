//! Transaction-execution types.

use sstore_common::{Batch, ProcId, TxnId};
use sstore_sql::exec::QueryResult;

/// One pending transaction execution: a stored procedure plus the input
/// batch that defines it (paper §2: "An S-Store transaction is defined by
/// two things: a stored procedure definition and a batch of input tuples").
#[derive(Debug, Clone)]
pub struct Invocation {
    /// The procedure to run.
    pub proc: ProcId,
    /// Its input batch.
    pub batch: Batch,
}

/// Terminal state of a TE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    /// Input batch completely processed; effects durable.
    Committed,
    /// Rolled back by an explicit application abort.
    Aborted,
    /// Rolled back by an engine error.
    Failed,
}

/// The result of running one TE.
#[derive(Debug, Clone)]
pub struct TxnOutcome {
    /// Assigned transaction id (monotone; equals commit order).
    pub txn: TxnId,
    /// The procedure that ran.
    pub proc: ProcId,
    /// The input batch id.
    pub batch: sstore_common::BatchId,
    /// Terminal status.
    pub status: TxnStatus,
    /// Response rows for the client (OLTP-style invocations), if the
    /// procedure produced any via [`crate::procedure::ProcContext::respond`].
    pub response: Option<QueryResult>,
    /// Error message for non-committed outcomes.
    pub error: Option<String>,
}

impl TxnOutcome {
    /// True when the TE committed.
    pub fn is_committed(&self) -> bool {
        self.status == TxnStatus::Committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::BatchId;

    #[test]
    fn outcome_helpers() {
        let o = TxnOutcome {
            txn: TxnId::new(1),
            proc: ProcId::new(0),
            batch: BatchId::new(1),
            status: TxnStatus::Committed,
            response: None,
            error: None,
        };
        assert!(o.is_committed());
        let a = TxnOutcome {
            status: TxnStatus::Aborted,
            ..o
        };
        assert!(!a.is_committed());
    }
}

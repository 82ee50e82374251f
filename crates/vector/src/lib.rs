//! Columnar batch execution layer for the S-Store reproduction.
//!
//! The row interpreter in `sstore-sql` walks one [`sstore_common::Row`] at a
//! time and dispatches on [`Value`](sstore_common::Value) per cell; profiling
//! (ROADMAP E7) showed that per-cell dispatch, not copying, dominates the
//! scan/filter/aggregate hot path. This crate provides the batch-at-a-time
//! alternative, shaped after GlareDB rayexec's `rayexec_bullet`:
//!
//! - [`mod@column`]: typed column vectors ([`Column`], [`ColumnBatch`]) with a
//!   validity [`Bitmap`] per column and a *selection vector* threaded
//!   between operators instead of materializing intermediate rows. A TEXT
//!   lane ([`TextLane`]) is one `u32` code per cell into a reference-counted
//!   [`Dict`](column::Dict) that stores each distinct string once and reuses released
//!   codes, so it never has more entries than its lane has cells;
//! - [`compute`]: type-specialized kernels — comparison, checked arithmetic,
//!   predicate → selection filtering, and COUNT/SUM/AVG/MIN/MAX reductions —
//!   each bit-identical to the scalar `expr` evaluator (same NULL
//!   propagation, same overflow/division error strings, same first-error
//!   ordering). A TEXT column against a constant is compared once per
//!   dictionary entry, not once per row;
//! - [`join`]: a build/probe kernel over `i64` key lanes for equi-joins. It
//!   addresses the build side directly by `key − min` when the build keys
//!   are unique and span no more values than both sides have selected
//!   rows, and hashes them otherwise;
//! - [`group`]: dense group ids over a key lane, and per-group
//!   COUNT/SUM/AVG/MIN/MAX loops for `GROUP BY`. An `Int`/`Timestamp` key
//!   lane whose keys span no more values than there are selected rows is
//!   numbered through a slot table indexed by `key − min`; other lanes go
//!   through a `HashMap`, a TEXT lane by its codes. COUNT and the int SUM
//!   add without an `Option` per row, and SUM tests its overflow flag
//!   once per call.
//!
//! Everything here is engine-agnostic: the crate depends only on
//! `sstore-common` and knows nothing about plans or tables. The lowering
//! from physical plans lives in `sstore_sql::vexec`; the resident,
//! slot-indexed columns it scans live in `sstore-storage`.
//!
//! Kernel outputs are **row-aligned**: an output vector has one slot per
//! input row, and only positions named by the selection are written (and
//! ever read). This keeps selections composable — a downstream kernel can
//! index outputs with the same positions — at the cost of allocating
//! `rows` slots even for sparse selections, which is the right trade for
//! the dense scans this crate exists to accelerate.

/// Iterate the selected row positions in order.
macro_rules! for_sel {
    ($sel:expr, $rows:expr, $i:ident => $body:block) => {
        match $sel {
            None => {
                for $i in 0..$rows {
                    $body
                }
            }
            Some(s) => {
                for &ix in s.iter() {
                    let $i = ix as usize;
                    $body
                }
            }
        }
    };
}

pub mod column;
pub mod compute;
pub mod group;
pub mod join;

pub use column::{build_batch, Bitmap, Column, ColumnBatch, ColumnData, TextLane};
pub use compute::{ArithOp, CmpOp, NumSrc};

//! Columnar batch execution layer for the S-Store reproduction.
//!
//! The row interpreter in `sstore-sql` walks one [`sstore_common::Row`] at a
//! time and dispatches on [`Value`](sstore_common::Value) per cell; profiling
//! (ROADMAP E7) showed that per-cell dispatch, not copying, dominates the
//! scan/filter/aggregate hot path. This crate provides the batch-at-a-time
//! alternative, shaped after GlareDB rayexec's `rayexec_bullet`:
//!
//! - [`mod@column`]: typed column vectors ([`Column`], [`ColumnBatch`]) with a
//!   validity [`Bitmap`] per column. A TEXT lane ([`TextLane`]) is one
//!   `u32` code per cell into a reference-counted [`Dict`](column::Dict)
//!   that stores each distinct string once and reuses released codes, so
//!   it never has more entries than its lane has cells;
//! - [`compute`]: type-specialized kernels — comparison, checked arithmetic,
//!   and the predicate → mask reduction — each bit-identical to the scalar
//!   `expr` evaluator (same NULL propagation, same overflow/division error
//!   strings, same first-error ordering). A column against a constant runs
//!   one plain loop per operator, and a TEXT column against a constant is
//!   compared once per dictionary entry, not once per row;
//! - [`join`]: a build/probe kernel over `i64` key lanes for equi-joins. It
//!   addresses the build side directly by `key − min` when the build keys
//!   are unique and span no more values than both sides have rows, and
//!   then hands back the probe side's hit mask; it hashes them otherwise
//!   and hands back index pairs;
//! - [`group`]: `GROUP BY` and the COUNT/SUM/AVG/MIN/MAX loops per group.
//!   An `Int`/`Timestamp` key lane whose keys span no more values than
//!   there are rows indexes its accumulators by `key − min` in the pass
//!   that reduces, and keeps no group id per row; other lanes number their
//!   rows through a `HashMap`, a TEXT lane by its codes. COUNT and the int
//!   SUM add without an `Option` or a branch per row, and SUM tests its
//!   overflow flag once per call.
//!
//! Everything here is engine-agnostic: the crate depends only on
//! `sstore-common` and knows nothing about plans or tables. The lowering
//! from physical plans lives in `sstore_sql::vexec`; the resident,
//! slot-indexed columns it scans live in `sstore-storage`.
//!
//! Which rows a kernel works on is a [`Sel`]: every row, a **mask**, or
//! the rows' positions. A predicate's result becomes a mask — its `bool`
//! lane ANDed with its validity — that the next kernel consumes as it is:
//! a reduction walks every lane and adds a masked-out cell as zero, so no
//! stage writes out positions it does not need. Positions are built
//! ([`compute::bool_to_sel`]) only where an operator emits rows one by
//! one. Kernel outputs are **row-aligned**: an output vector has one slot
//! per input row, and only selected slots are meaningful. A mask, a
//! compare's output and a join's hit lane all line up with the batch they
//! came from, so they compose without a gather; the price is `rows` slots
//! per lane even for a sparse result, which is the right trade for the
//! dense scans this crate exists to accelerate.

/// Which rows of a batch a kernel works on. `All` and `Mask` name rows
/// in ascending order; `Pos` names them in its own order, which need not
/// ascend, and a kernel visits them, and orders groups, in that order.
#[derive(Clone, Copy, Debug)]
pub enum Sel<'a> {
    /// Every row.
    All,
    /// Row-aligned: row `i` is selected when `mask[i]` is set.
    Mask(&'a [bool]),
    /// The selected rows' positions.
    Pos(&'a [u32]),
}

impl Sel<'_> {
    /// True when none of the first `rows` rows is selected.
    pub fn is_empty(self, rows: usize) -> bool {
        self.first(rows).is_none()
    }

    /// The first selected row.
    pub(crate) fn first(self, rows: usize) -> Option<usize> {
        match self {
            Sel::All => (rows > 0).then_some(0),
            Sel::Mask(m) => m[..rows].iter().position(|&k| k),
            Sel::Pos(s) => s.first().map(|&i| i as usize),
        }
    }

    /// An upper bound on the selected rows that counts no mask: the
    /// positions, or else every row.
    pub(crate) fn bound(self, rows: usize) -> usize {
        match self {
            Sel::Pos(s) => s.len(),
            Sel::All | Sel::Mask(_) => rows,
        }
    }
}

/// Iterate the selected row positions in order.
macro_rules! for_sel {
    ($sel:expr, $rows:expr, $i:ident => $body:block) => {
        match $sel {
            $crate::Sel::All => {
                for $i in 0..$rows {
                    $body
                }
            }
            $crate::Sel::Mask(m) => {
                for ($i, &keep) in m[..$rows].iter().enumerate() {
                    if keep {
                        $body
                    }
                }
            }
            $crate::Sel::Pos(s) => {
                for &ix in s.iter() {
                    let $i = ix as usize;
                    $body
                }
            }
        }
    };
}

/// Visit every lane a selection may name, with whether it is selected:
/// each row under `All` and `Mask`, each position under `Pos`. A loop
/// that treats an unselected lane as a neutral element (add zero, count
/// nothing) then runs without a branch per row.
macro_rules! for_lanes {
    ($sel:expr, $rows:expr, ($i:ident, $keep:ident) => $body:block) => {
        match $sel {
            $crate::Sel::All => {
                for $i in 0..$rows {
                    let $keep = true;
                    $body
                }
            }
            $crate::Sel::Mask(m) => {
                for ($i, &$keep) in m[..$rows].iter().enumerate() {
                    $body
                }
            }
            $crate::Sel::Pos(s) => {
                for &ix in s.iter() {
                    let $i = ix as usize;
                    let $keep = true;
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

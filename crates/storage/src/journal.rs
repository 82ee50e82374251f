//! The change journal a [`Table`] keeps for delta snapshots, fed by the
//! table's change stream. A delta carries the slot ops ([`SlotOp`]) that
//! turn the previous image into the live table; replay drives the same
//! mutators ([`Table::apply_slot_op`]), so slots, free-list order and
//! index bucket order come out byte-identical.
//!
//! **An in-place write ([`Table::set_cells`]) is journaled as its slot id
//! only**, once however often the slot is written; at the cut,
//! [`Table::dirt`] appends one `SlotOp::Update` with the row the slot
//! holds then for each such slot still live, in slot order. Sound because
//! an in-place write changes no index key, slot choice or free list, so
//! its effect can move to the end of the replay; every key change is a
//! full-image op carrying its own row; and a slot freed or refilled after
//! the write is covered by the ops that did it. Holding no handle is the
//! point: one kept here would make the row's next write copy it whole.

use crate::index::RowId;
use crate::table::{Change, Table};
use sstore_common::{codec, Error, Result, Row};

/// One journaled slot mutation, as the table mutators performed it.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotOp {
    /// `insert` filled slot `rid` with `row` (replay asserts the slot).
    Insert { rid: RowId, row: Row },
    /// `delete` emptied slot `rid`.
    Delete { rid: RowId },
    /// `update` (or, at the end of a cut, an in-place write) left `row`.
    Update { rid: RowId, row: Row },
    /// `restore` re-filled slot `rid` with `row` (undo path).
    Restore { rid: RowId, row: Row },
    /// `truncate` cleared the table (ops before it are superseded).
    Truncate,
}

const OP_INSERT: u8 = 0;
const OP_DELETE: u8 = 1;
const OP_UPDATE: u8 = 2;
const OP_RESTORE: u8 = 3;
const OP_TRUNCATE: u8 = 4;

impl SlotOp {
    /// Append the compact binary encoding (delta snapshot frames): the
    /// tag, then the slot and the row where the op has them.
    pub(crate) fn encode_binary(&self, out: &mut Vec<u8>) {
        let (tag, rid, row) = match self {
            SlotOp::Insert { rid, row } => (OP_INSERT, rid, Some(row)),
            SlotOp::Delete { rid } => (OP_DELETE, rid, None),
            SlotOp::Update { rid, row } => (OP_UPDATE, rid, Some(row)),
            SlotOp::Restore { rid, row } => (OP_RESTORE, rid, Some(row)),
            SlotOp::Truncate => return out.push(OP_TRUNCATE),
        };
        out.push(tag);
        codec::put_uvarint(out, *rid);
        if let Some(row) = row {
            codec::encode_row(row, out);
        }
    }

    /// Decode one op from a delta frame.
    pub(crate) fn decode_binary(r: &mut codec::Reader<'_>) -> Result<SlotOp> {
        let tag = r.u8()?;
        let rid = match tag {
            OP_TRUNCATE => return Ok(SlotOp::Truncate),
            OP_DELETE => return Ok(SlotOp::Delete { rid: r.uvarint()? }),
            OP_INSERT | OP_UPDATE | OP_RESTORE => r.uvarint()?,
            _ => return Err(Error::Codec(format!("unknown slot-op tag {tag}"))),
        };
        let row = codec::decode_row(r)?;
        Ok(match tag {
            OP_INSERT => SlotOp::Insert { rid, row },
            OP_UPDATE => SlotOp::Update { rid, row },
            _ => SlotOp::Restore { rid, row },
        })
    }
}

/// What the next delta image must carry for a table.
#[derive(Debug)]
pub enum TableDirt {
    /// Untouched since the last image — omit from the delta.
    Clean,
    /// Replay these ops against the base to reproduce the live state.
    Ops(Vec<SlotOp>),
    /// Journal unavailable (tracking started after the base, structural
    /// change, or overflow): embed a full image.
    Full,
}

/// Accumulated changes since the last snapshot image.
#[derive(Debug, Clone, Default)]
pub(crate) struct Journal {
    ops: Vec<SlotOp>,
    /// Slots written in place, one bit each (see the module docs).
    written: Vec<u64>,
    /// Index DDL or op overflow: the next delta carries a full image.
    full: bool,
}

impl Journal {
    /// Record one change of a table of `slots` slots. `Truncate` voids
    /// what came before; past `slots + 64` ops replay would cost more
    /// than a full image, so the journal gives up.
    pub(crate) fn record(&mut self, change: &Change<'_>, slots: usize) {
        let op = match change {
            _ if self.full => return,
            Change::Insert { rid, new, restore } => {
                let (rid, row) = (*rid, new.clone());
                match restore {
                    false => SlotOp::Insert { rid, row },
                    true => SlotOp::Restore { rid, row },
                }
            }
            Change::Delete { rid, .. } => SlotOp::Delete { rid: *rid },
            Change::Update { rid, new, .. } => {
                let (rid, row) = (*rid, new.clone());
                SlotOp::Update { rid, row }
            }
            Change::Cells { rid, .. } => {
                let word = *rid as usize / 64;
                self.written.resize(self.written.len().max(word + 1), 0);
                self.written[word] |= 1 << (rid % 64);
                return;
            }
            Change::Truncate => {
                self.restart(false);
                SlotOp::Truncate
            }
        };
        self.ops.push(op);
        if self.ops.len() > slots + 64 {
            self.restart(true);
        }
    }

    /// Forget every change; `full` asks for a full image in the next delta.
    pub(crate) fn restart(&mut self, full: bool) {
        self.ops.clear();
        self.written.clear();
        self.full = full;
    }

    /// The ops, then the live row of each slot written in place.
    pub(crate) fn dirt(&self, slots: &[Option<Row>]) -> TableDirt {
        if self.full {
            return TableDirt::Full;
        }
        if self.ops.is_empty() && self.written.is_empty() {
            return TableDirt::Clean;
        }
        let written = (0..self.written.len() * 64).filter_map(|slot| {
            let set = self.written[slot / 64] >> (slot % 64) & 1 == 1;
            let row = slots.get(slot)?.as_ref().filter(|_| set)?.clone();
            let rid = slot as RowId;
            Some(SlotOp::Update { rid, row })
        });
        TableDirt::Ops(self.ops.iter().cloned().chain(written).collect())
    }
}

impl Table {
    /// Re-execute one journaled op during delta replay through the normal
    /// mutators; an `Insert` taking another slot means a wrong base image.
    pub fn apply_slot_op(&mut self, op: &SlotOp) -> Result<()> {
        match op {
            SlotOp::Insert { rid, row } => {
                let got = self.insert(row.clone())?;
                if got != *rid {
                    let msg = format!("replayed insert took slot {got}, not {rid}");
                    return Err(Error::Codec(msg));
                }
            }
            SlotOp::Delete { rid } => drop(self.delete(*rid)?),
            SlotOp::Update { rid, row } => drop(self.update(*rid, row.clone())?),
            SlotOp::Restore { rid, row } => self.restore(*rid, row.clone())?,
            SlotOp::Truncate => self.truncate(),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sstore_common::{Column, DataType, Schema, Value};

    fn row(id: i64, name: &str) -> Row {
        vec![Value::Int(id), Value::Text(name.into())].into()
    }

    fn ops(t: &Table) -> Vec<SlotOp> {
        match t.dirt() {
            TableDirt::Ops(ops) => ops,
            other => panic!("expected ops, got {other:?}"),
        }
    }

    /// An in-place write is journaled once per slot, as a trailing update
    /// carrying the live row, and the journal holds no handle of the row,
    /// so the next write finds it unshared.
    #[test]
    fn in_place_writes_journal_their_slot_once_and_share_nothing() {
        let cols = vec![
            Column::new("id", DataType::Int),
            Column::new("name", DataType::Text),
        ];
        let mut t = Table::new("t", Schema::new(cols, &["id"]).unwrap());
        t.insert(row(1, "a")).unwrap();
        t.insert(row(2, "b")).unwrap();
        t.set_journaling(true);
        for name in ["x", "y", "z"] {
            t.set_cells(1, &mut [(1, Value::Text(name.into()))])
                .unwrap();
            assert!(t.get(1).unwrap().is_unique());
        }
        t.set_cells(0, &mut [(1, Value::Text("w".into()))]).unwrap();
        t.insert(row(3, "c")).unwrap();
        let (w, z) = (row(1, "w"), row(2, "z"));
        assert_eq!(
            ops(&t),
            [
                SlotOp::Insert {
                    rid: 2,
                    row: row(3, "c")
                },
                SlotOp::Update { rid: 0, row: w },
                SlotOp::Update {
                    rid: 1,
                    row: z.clone()
                },
            ]
        );
        // A written slot that is free at the cut gets no update.
        t.delete(0).unwrap();
        assert_eq!(
            ops(&t)[1..],
            [SlotOp::Delete { rid: 0 }, SlotOp::Update { rid: 1, row: z }]
        );
        t.clear_journal();
        assert!(matches!(t.dirt(), TableDirt::Clean));
    }
}

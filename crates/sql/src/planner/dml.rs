//! INSERT, UPDATE and DELETE.

use super::bind::{check, coercible, Binder, Layout, Slots};
use super::select::{choose_access_path, plan_select};
use crate::ast::{self, InsertSource};
use crate::plan::{AccessPath, PhysicalPlan, PlannedStmt};
use sstore_common::{DataType, Error, Result};
use sstore_storage::Database;

pub(super) fn plan_insert(i: &ast::Insert, db: &Database) -> Result<PlannedStmt> {
    let table = db.resolve(&i.table)?;
    let meta = db
        .catalog()
        .meta(table)
        .ok_or_else(|| Error::NotFound(format!("table `{}`", i.table)))?;
    let visible = &meta.visible_schema;

    // Which visible columns does the source provide, in source order?
    let provided: Vec<usize> = if i.columns.is_empty() {
        (0..visible.arity()).collect()
    } else {
        i.columns
            .iter()
            .map(|c| {
                visible
                    .column_index(c)
                    .ok_or_else(|| Error::NotFound(format!("column `{c}` in `{}`", i.table)))
            })
            .collect::<Result<_>>()?
    };
    {
        let mut seen = provided.clone();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != provided.len() {
            return Err(Error::Parse("duplicate column in INSERT list".into()));
        }
    }

    let mut slots = Slots::default();
    let targets: Vec<(DataType, String)> = provided
        .iter()
        .map(|&p| &visible.columns()[p])
        .map(|c| (c.ty, format!("column `{}`", c.name)))
        .collect();
    let source = match &i.source {
        InsertSource::Values(rows) => {
            let empty = Layout::default();
            let mut binder = Binder::over(&empty, db, &mut slots);
            let mut bound_rows = Vec::with_capacity(rows.len());
            for row in rows {
                if row.len() != provided.len() {
                    return Err(Error::Parse(format!(
                        "INSERT row has {} values but {} columns",
                        row.len(),
                        provided.len()
                    )));
                }
                let mut bound = Vec::with_capacity(row.len());
                for (e, (ty, what)) in row.iter().zip(&targets) {
                    bound.push(binder.stored(e, *ty, what)?);
                }
                bound_rows.push(bound);
            }
            PhysicalPlan::Values { rows: bound_rows }
        }
        InsertSource::Select(sel) => {
            let (plan, _, types) = plan_select(sel, db, &mut slots)?;
            if types.len() != provided.len() {
                return Err(Error::Parse(format!(
                    "INSERT SELECT produces {} columns but {} expected",
                    types.len(),
                    provided.len()
                )));
            }
            for (t, (ty, what)) in types.into_iter().zip(&targets) {
                t.map_or(Ok(()), |t| check(t, coercible(*ty), what))?;
            }
            plan
        }
    };

    // mapping[visible_pos] = source offset
    let mapping: Vec<Option<usize>> = (0..visible.arity())
        .map(|vp| provided.iter().position(|&p| p == vp))
        .collect();

    Ok(PlannedStmt::Insert {
        table,
        source,
        mapping,
        subqueries: slots.subs,
        params: slots.params,
    })
}

pub(super) fn plan_update(u: &ast::Update, db: &Database) -> Result<PlannedStmt> {
    let table = db.resolve(&u.table)?;
    let layout = Layout::from_table(db, table, &u.table)?;
    let meta = db
        .catalog()
        .meta(table)
        .ok_or_else(|| Error::NotFound(format!("table `{}`", u.table)))?;
    let visible_arity = meta.visible_schema.arity();

    let mut slots = Slots::default();
    let mut binder = Binder::over(&layout, db, &mut slots);
    let mut sets = Vec::with_capacity(u.sets.len());
    for (col, e) in &u.sets {
        let pos = layout.resolve(None, col)?;
        if pos >= visible_arity {
            return Err(Error::Scope(format!("cannot update hidden column `{col}`")));
        }
        let what = format!("column `{col}`");
        sets.push((pos, binder.stored(e, layout.ty(pos), &what)?));
    }
    let (path, pred) = match &u.where_pred {
        Some(p) => choose_access_path(table, p, &layout, db, &mut slots)?,
        None => (AccessPath::Full, None),
    };
    Ok(PlannedStmt::Update {
        table,
        path,
        pred,
        sets,
        subqueries: slots.subs,
        params: slots.params,
    })
}

pub(super) fn plan_delete(d: &ast::Delete, db: &Database) -> Result<PlannedStmt> {
    let table = db.resolve(&d.table)?;
    let layout = Layout::from_table(db, table, &d.table)?;
    let mut slots = Slots::default();
    let (path, pred) = match &d.where_pred {
        Some(p) => choose_access_path(table, p, &layout, db, &mut slots)?,
        None => (AccessPath::Full, None),
    };
    Ok(PlannedStmt::Delete {
        table,
        path,
        pred,
        subqueries: slots.subs,
        params: slots.params,
    })
}

//! # sstore-sql
//!
//! The SQL subset used inside S-Store stored procedures — the equivalent of
//! the "SQL queries embedded in Java-based control code" that H-Store
//! procedures are made of (paper §2).
//!
//! Pipeline: [`lexer`] → [`parser`] (producing the [`ast`]) → [`planner`]
//! (name resolution + logical plan) → [`exec`] (statement execution, with
//! every SELECT plan run by the one walker in [`vexec`]).
//!
//! Execution is parameterized by [`exec::ExecContext`]: reads go straight to
//! the storage layer, while every mutation is routed through the context so
//! the execution engine can record undo, maintain stream/window lifecycle
//! state, and fire EE triggers without this crate knowing about any of it.

pub mod ast;
pub mod exec;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod planner;
pub mod vexec;

pub use parser::parse;
pub use planner::plan_statement;
pub use vexec::ExecPath;

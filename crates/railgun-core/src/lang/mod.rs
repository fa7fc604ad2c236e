//! Railgun's SQL-like query language (paper §3.4, Figure 4).
//!
//! Each statement selects one or more aggregations over a single stream,
//! with an optional filter, optional group-by, and a mandatory window
//! expression. Stream joins are intentionally unsupported — the paper
//! performs joins in an enrichment stage before the streaming engine.

pub mod ast;
pub mod builder;
pub mod lexer;
pub mod parser;

pub use ast::{AggFunc, AggSpec, PExpr, Query, WindowKind, WindowSpec};
pub use builder::{days, field, hours, lit, millis, mins, secs, Agg, Filter, QueryBuilder, Window};
pub use parser::parse_query;

//! Abstract syntax of Railgun's query language (paper Figure 4).
//!
//! ```text
//! SELECT AggExpression FROM streamName
//!   [WHERE filterExpression]
//!   [GROUP BY fields]
//!   OVER WindowExpression
//! ```

use railgun_types::{RailgunError, Result, Schema, TimeDelta};

use crate::expr::{ArithOp, CmpOp, Expr};

/// The aggregation functions of Figure 4, plus the sketch-backed
/// approximate family (`countDistinct … approx`, `topK`, `percentile`).
///
/// Numeric parameters are carried as integer basis points so the enum
/// stays `Copy + Eq + Hash` (plan-leaf sharing keys on it): `err_bp` is
/// the relative error × 10⁴ (`200` = 2%), `rank_bp` the percentile
/// rank × 10² (`9900` = p99). Valid ranges are enforced when the query
/// is planned or rendered to text: `err_bp ∈ 1..=5000`, `k ≥ 1`,
/// `rank_bp ∈ 1..=9999`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    StdDev,
    Max,
    Min,
    Last,
    Prev,
    CountDistinct,
    /// HLL-backed `countDistinct(f) approx <err>`.
    ApproxCountDistinct { err_bp: u32 },
    /// Space-saving heavy hitters `topK(f, k)`.
    TopK { k: u32 },
    /// Quantile-sketch `percentile(f, p)`.
    Percentile { rank_bp: u32 },
}

impl AggFunc {
    /// Canonical base name (as written in queries, without parameters).
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::StdDev => "stdDev",
            AggFunc::Max => "max",
            AggFunc::Min => "min",
            AggFunc::Last => "last",
            AggFunc::Prev => "prev",
            AggFunc::CountDistinct => "countDistinct",
            AggFunc::ApproxCountDistinct { .. } => "countDistinct",
            AggFunc::TopK { .. } => "topK",
            AggFunc::Percentile { .. } => "percentile",
        }
    }

    /// True for the approximate family, whose state is a sketch blob in
    /// the aux CF; its row slot holds only its parameters.
    pub fn is_sketch(self) -> bool {
        matches!(
            self,
            AggFunc::ApproxCountDistinct { .. } | AggFunc::TopK { .. } | AggFunc::Percentile { .. }
        )
    }

    /// Validate parameter ranges (see type-level docs). The fluent
    /// builder encodes out-of-range inputs as sentinel values; this is
    /// where they are rejected with a proper error.
    pub fn check_params(self) -> Result<()> {
        match self {
            AggFunc::ApproxCountDistinct { err_bp } if !(1..=5000).contains(&err_bp) => {
                Err(RailgunError::InvalidArgument(format!(
                    "approx error must be in (0, 0.5], got {} ({err_bp} bp)",
                    f64::from(err_bp) / 10_000.0
                )))
            }
            AggFunc::TopK { k: 0 } => Err(RailgunError::InvalidArgument(
                "topK needs k >= 1".into(),
            )),
            AggFunc::Percentile { rank_bp } if !(1..=9999).contains(&rank_bp) => {
                Err(RailgunError::InvalidArgument(format!(
                    "percentile rank must be in (0, 100), got {}",
                    f64::from(rank_bp) / 100.0
                )))
            }
            _ => Ok(()),
        }
    }
}

/// One `Aggregation(field)` item in the SELECT list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggSpec {
    pub func: AggFunc,
    /// `None` encodes `count(*)`.
    pub field: Option<String>,
}

impl AggSpec {
    /// Display name, e.g. `sum(amount)` — rendered exactly as the
    /// grammar parses it, including approximate-family parameters
    /// (`countDistinct(addr) approx 0.02`, `topK(merchant, 10)`,
    /// `percentile(amount, 99.9)`).
    pub fn display(&self) -> String {
        let f = self.field.as_deref().unwrap_or("*");
        match self.func {
            AggFunc::ApproxCountDistinct { err_bp } => {
                format!("countDistinct({f}) approx {}", f64::from(err_bp) / 10_000.0)
            }
            AggFunc::TopK { k } => format!("topK({f}, {k})"),
            AggFunc::Percentile { rank_bp } => {
                if rank_bp % 100 == 0 {
                    format!("percentile({f}, {})", rank_bp / 100)
                } else {
                    format!("percentile({f}, {})", f64::from(rank_bp) / 100.0)
                }
            }
            func => format!("{}({f})", func.name()),
        }
    }
}

/// Window shape (Figure 4's `TimeWindowExpr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowKind {
    /// Real-time sliding window: evaluated right after every event.
    Sliding(TimeDelta),
    /// Fixed, non-overlapping buckets.
    Tumbling(TimeDelta),
    /// Events never expire.
    Infinite,
}

/// A window expression, optionally `delayed by` an offset (§3.4 — useful
/// for bot-attack detection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowSpec {
    pub kind: WindowKind,
    pub delay: TimeDelta,
}

impl WindowSpec {
    pub fn sliding(size: TimeDelta) -> Self {
        WindowSpec {
            kind: WindowKind::Sliding(size),
            delay: TimeDelta::ZERO,
        }
    }

    pub fn tumbling(size: TimeDelta) -> Self {
        WindowSpec {
            kind: WindowKind::Tumbling(size),
            delay: TimeDelta::ZERO,
        }
    }

    pub fn infinite() -> Self {
        WindowSpec {
            kind: WindowKind::Infinite,
            delay: TimeDelta::ZERO,
        }
    }

    pub fn delayed_by(mut self, delay: TimeDelta) -> Self {
        self.delay = delay;
        self
    }

    /// Human-readable form, e.g. `sliding 5min delayed by 1min`.
    pub fn display(&self) -> String {
        let base = match self.kind {
            WindowKind::Sliding(ws) => format!("sliding {ws}"),
            WindowKind::Tumbling(ws) => format!("tumbling {ws}"),
            WindowKind::Infinite => "infinite".to_owned(),
        };
        if self.delay.is_positive() {
            format!("{base} delayed by {}", self.delay)
        } else {
            base
        }
    }
}

/// An unresolved filter expression (field names, not indexes).
#[derive(Debug, Clone, PartialEq)]
pub enum PExpr {
    Lit(railgun_types::Value),
    Field(String),
    Cmp(CmpOp, Box<PExpr>, Box<PExpr>),
    Arith(ArithOp, Box<PExpr>, Box<PExpr>),
    And(Box<PExpr>, Box<PExpr>),
    Or(Box<PExpr>, Box<PExpr>),
    Not(Box<PExpr>),
    IsNull(Box<PExpr>),
    IsNotNull(Box<PExpr>),
}

impl PExpr {
    /// Resolve field names against `schema`, producing a compiled [`Expr`].
    pub fn resolve(&self, schema: &Schema) -> Result<Expr> {
        Ok(match self {
            PExpr::Lit(v) => Expr::Lit(v.clone()),
            PExpr::Field(name) => Expr::field(schema, name)?,
            PExpr::Cmp(op, a, b) => Expr::Cmp(
                *op,
                Box::new(a.resolve(schema)?),
                Box::new(b.resolve(schema)?),
            ),
            PExpr::Arith(op, a, b) => Expr::Arith(
                *op,
                Box::new(a.resolve(schema)?),
                Box::new(b.resolve(schema)?),
            ),
            PExpr::And(a, b) => Expr::And(
                Box::new(a.resolve(schema)?),
                Box::new(b.resolve(schema)?),
            ),
            PExpr::Or(a, b) => Expr::Or(
                Box::new(a.resolve(schema)?),
                Box::new(b.resolve(schema)?),
            ),
            PExpr::Not(a) => Expr::Not(Box::new(a.resolve(schema)?)),
            PExpr::IsNull(a) => Expr::IsNull(Box::new(a.resolve(schema)?)),
            PExpr::IsNotNull(a) => {
                Expr::Not(Box::new(Expr::IsNull(Box::new(a.resolve(schema)?))))
            }
        })
    }
}

/// A parsed query statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub select: Vec<AggSpec>,
    pub stream: String,
    pub filter: Option<PExpr>,
    pub group_by: Vec<String>,
    pub window: WindowSpec,
}

impl Query {
    /// Render this query back to its textual form (Figure 4 syntax).
    ///
    /// This is the bridge between the typed builder and the wire: a
    /// builder-constructed query travels the ops topic as text and is
    /// parsed by every node, exactly like a hand-written statement. The
    /// contract `parse_query(q.to_text()) == q` is pinned by tests (see
    /// DESIGN.md § "Client API").
    ///
    /// Errors with [`RailgunError::InvalidArgument`] for queries the
    /// textual grammar cannot express: non-identifier field/stream names,
    /// non-finite float literals, `i64::MIN`, or string literals
    /// containing both quote characters.
    pub fn to_text(&self) -> Result<String> {
        let mut out = String::with_capacity(128);
        out.push_str("SELECT ");
        if self.select.is_empty() {
            return Err(RailgunError::InvalidArgument(
                "query selects no aggregations".into(),
            ));
        }
        for (i, agg) in self.select.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            if let Some(f) = &agg.field {
                check_ident(f)?;
            }
            agg.func.check_params()?;
            out.push_str(&agg.display());
        }
        check_ident(&self.stream)?;
        out.push_str(" FROM ");
        out.push_str(&self.stream);
        if let Some(filter) = &self.filter {
            out.push_str(" WHERE ");
            unparse_expr(filter, &mut out)?;
        }
        if !self.group_by.is_empty() {
            out.push_str(" GROUP BY ");
            for (i, f) in self.group_by.iter().enumerate() {
                check_ident(f)?;
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(f);
            }
        }
        out.push_str(" OVER ");
        match self.window.kind {
            WindowKind::Sliding(ws) => {
                out.push_str("sliding ");
                unparse_duration(ws, &mut out)?;
            }
            WindowKind::Tumbling(ws) => {
                out.push_str("tumbling ");
                unparse_duration(ws, &mut out)?;
            }
            WindowKind::Infinite => out.push_str("infinite"),
        }
        if self.window.delay.is_positive() {
            out.push_str(" delayed by ");
            unparse_duration(self.window.delay, &mut out)?;
        }
        Ok(out)
    }

    /// Render this query to text and re-parse it, erroring unless the
    /// roundtrip reproduces `self` exactly. This is the release-mode
    /// backstop for the builder↔parser equivalence contract: the wire
    /// carries text, so a query whose textual form parses to anything
    /// else must never reach the ops topic.
    pub fn check_text_roundtrip(&self) -> Result<String> {
        let text = self.to_text()?;
        let reparsed = crate::lang::parse_query(&text)?;
        if &reparsed != self {
            return Err(RailgunError::InvalidArgument(format!(
                "query does not survive its textual form `{text}`: \
                 reparsed to a different statement"
            )));
        }
        Ok(text)
    }

    /// Display name of the `index`-th SELECT item as replies carry it,
    /// e.g. `sum(amount) over sliding 5min` — the single source of the
    /// reply-name format (plan metric refs and session handles both use
    /// it).
    pub fn metric_name(&self, index: usize) -> Option<String> {
        self.select
            .get(index)
            .map(|agg| format!("{} over {}", agg.display(), self.window.display()))
    }
}

/// True iff `name` lexes as a single identifier token.
fn is_ident(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

fn check_ident(name: &str) -> Result<()> {
    if is_ident(name) {
        Ok(())
    } else {
        Err(RailgunError::InvalidArgument(format!(
            "`{name}` is not a valid identifier (must match [A-Za-z_][A-Za-z0-9_.]*)"
        )))
    }
}

/// Unparse a duration as raw milliseconds — always re-parseable,
/// independent of how the display formatter would pick units.
fn unparse_duration(d: TimeDelta, out: &mut String) -> Result<()> {
    let ms = d.as_millis();
    if ms <= 0 {
        return Err(RailgunError::InvalidArgument(format!(
            "window durations must be positive, got {ms} ms"
        )));
    }
    use std::fmt::Write;
    let _ = write!(out, "{ms} ms");
    Ok(())
}

fn unparse_value(v: &railgun_types::Value, out: &mut String) -> Result<()> {
    use railgun_types::Value;
    use std::fmt::Write;
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => {
            // `-n` is unparsed as a unary minus on the positive literal,
            // which the lexer cannot represent for i64::MIN.
            if *n == i64::MIN {
                return Err(RailgunError::InvalidArgument(
                    "i64::MIN literal is not expressible in query text".into(),
                ));
            }
            let _ = write!(out, "{n}");
        }
        Value::Float(f) => {
            if !f.is_finite() {
                return Err(RailgunError::InvalidArgument(format!(
                    "non-finite float literal {f} is not expressible in query text"
                )));
            }
            if *f == f.trunc() {
                // Keep the decimal point so it lexes back as a float.
                let _ = write!(out, "{f:.1}");
            } else {
                let _ = write!(out, "{f}");
            }
        }
        Value::Str(s) => {
            let quote = if !s.contains('\'') {
                '\''
            } else if !s.contains('"') {
                '"'
            } else {
                return Err(RailgunError::InvalidArgument(format!(
                    "string literal {s:?} contains both quote characters"
                )));
            };
            out.push(quote);
            out.push_str(s);
            out.push(quote);
        }
    }
    Ok(())
}

/// Unparse a filter expression, fully parenthesized so precedence never
/// has to be reconstructed.
fn unparse_expr(e: &PExpr, out: &mut String) -> Result<()> {
    use crate::expr::{ArithOp, CmpOp};
    match e {
        PExpr::Lit(v) => unparse_value(v, out)?,
        PExpr::Field(name) => {
            check_ident(name)?;
            out.push_str(name);
        }
        PExpr::Cmp(op, a, b) => {
            let sym = match op {
                CmpOp::Eq => "=",
                CmpOp::Ne => "!=",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            out.push('(');
            unparse_expr(a, out)?;
            out.push(' ');
            out.push_str(sym);
            out.push(' ');
            unparse_expr(b, out)?;
            out.push(')');
        }
        PExpr::Arith(op, a, b) => {
            let sym = match op {
                ArithOp::Add => "+",
                ArithOp::Sub => "-",
                ArithOp::Mul => "*",
                ArithOp::Div => "/",
            };
            out.push('(');
            unparse_expr(a, out)?;
            out.push(' ');
            out.push_str(sym);
            out.push(' ');
            unparse_expr(b, out)?;
            out.push(')');
        }
        PExpr::And(a, b) => {
            out.push('(');
            unparse_expr(a, out)?;
            out.push_str(" AND ");
            unparse_expr(b, out)?;
            out.push(')');
        }
        PExpr::Or(a, b) => {
            out.push('(');
            unparse_expr(a, out)?;
            out.push_str(" OR ");
            unparse_expr(b, out)?;
            out.push(')');
        }
        PExpr::Not(a) => {
            // Parenthesized as a unit: the parser's NOT binds looser than
            // comparison, so a bare `NOT x = true` would reparse as
            // `NOT (x = true)` when this node sits under a comparison.
            out.push_str("(NOT ");
            unparse_expr(a, out)?;
            out.push(')');
        }
        PExpr::IsNull(a) => {
            out.push('(');
            unparse_expr(a, out)?;
            out.push_str(" IS NULL)");
        }
        PExpr::IsNotNull(a) => {
            out.push('(');
            unparse_expr(a, out)?;
            out.push_str(" IS NOT NULL)");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_display() {
        assert_eq!(
            AggSpec {
                func: AggFunc::Sum,
                field: Some("amount".into())
            }
            .display(),
            "sum(amount)"
        );
        assert_eq!(
            AggSpec {
                func: AggFunc::Count,
                field: None
            }
            .display(),
            "count(*)"
        );
    }

    #[test]
    fn approx_family_display() {
        let spec = |func| AggSpec {
            func,
            field: Some("addr".into()),
        };
        assert_eq!(
            spec(AggFunc::ApproxCountDistinct { err_bp: 200 }).display(),
            "countDistinct(addr) approx 0.02"
        );
        assert_eq!(spec(AggFunc::TopK { k: 10 }).display(), "topK(addr, 10)");
        assert_eq!(
            spec(AggFunc::Percentile { rank_bp: 9900 }).display(),
            "percentile(addr, 99)"
        );
        assert_eq!(
            spec(AggFunc::Percentile { rank_bp: 9990 }).display(),
            "percentile(addr, 99.9)"
        );
    }

    #[test]
    fn param_validation() {
        assert!(AggFunc::ApproxCountDistinct { err_bp: 0 }.check_params().is_err());
        assert!(AggFunc::ApproxCountDistinct { err_bp: 5001 }.check_params().is_err());
        assert!(AggFunc::ApproxCountDistinct { err_bp: 200 }.check_params().is_ok());
        assert!(AggFunc::TopK { k: 0 }.check_params().is_err());
        assert!(AggFunc::TopK { k: 1 }.check_params().is_ok());
        assert!(AggFunc::Percentile { rank_bp: 0 }.check_params().is_err());
        assert!(AggFunc::Percentile { rank_bp: 10000 }.check_params().is_err());
        assert!(AggFunc::Percentile { rank_bp: 5000 }.check_params().is_ok());
    }

    #[test]
    fn window_display() {
        assert_eq!(
            WindowSpec::sliding(TimeDelta::from_minutes(5)).display(),
            "sliding 5min"
        );
        assert_eq!(
            WindowSpec::tumbling(TimeDelta::from_hours(1))
                .delayed_by(TimeDelta::from_minutes(2))
                .display(),
            "tumbling 1h delayed by 2min"
        );
        assert_eq!(WindowSpec::infinite().display(), "infinite");
    }

    #[test]
    fn pexpr_resolution() {
        use railgun_types::{FieldType, Value};
        let schema = Schema::from_pairs(&[("x", FieldType::Int)]).unwrap();
        let p = PExpr::Cmp(
            CmpOp::Gt,
            Box::new(PExpr::Field("x".into())),
            Box::new(PExpr::Lit(Value::Int(3))),
        );
        let e = p.resolve(&schema).unwrap();
        assert!(e.matches(&[Value::Int(4)]));
        assert!(!e.matches(&[Value::Int(2)]));
        let bad = PExpr::Field("missing".into());
        assert!(bad.resolve(&schema).is_err());
    }

    #[test]
    fn is_not_null_resolves_to_negation() {
        use railgun_types::{FieldType, Value};
        let schema = Schema::from_pairs(&[("x", FieldType::Int)]).unwrap();
        let p = PExpr::IsNotNull(Box::new(PExpr::Field("x".into())));
        let e = p.resolve(&schema).unwrap();
        assert!(e.matches(&[Value::Int(1)]));
        assert!(!e.matches(&[Value::Null]));
    }
}

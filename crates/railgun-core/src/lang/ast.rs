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
/// is parsed or planned: `err_bp ∈ 1..=5000`, `k ≥ 1`,
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

    /// Validate parameter ranges (see type-level docs) of a query the
    /// parser did not make.
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

//! Typed, programmatic construction of Figure-4 query text.
//!
//! The builder writes the statement a client would type, and
//! [`QueryBuilder::build`] hands it to [`parse_query`]: the parser is the
//! only code that makes a [`Query`], so both front doors compile to the
//! same task plans (pinned by `tests/query_lifecycle.rs`):
//!
//! ```
//! use railgun_core::lang::{mins, Agg, Query, Window};
//!
//! let q = Query::select(Agg::sum("amount"))
//!     .select(Agg::count())
//!     .from("payments")
//!     .group_by(["cardId"])
//!     .over(Window::sliding(mins(5)))
//!     .build()
//!     .unwrap();
//! assert_eq!(
//!     q,
//!     railgun_core::lang::parse_query(
//!         "SELECT sum(amount), count(*) FROM payments \
//!          GROUP BY cardId OVER sliding 5 min"
//!     ).unwrap()
//! );
//! ```
//!
//! Filters are built from [`field`] and [`lit`] with fluent combinators
//! into fully parenthesized text:
//!
//! ```
//! use railgun_core::lang::{field, mins, Agg, Query, Window};
//!
//! let q = Query::select(Agg::count())
//!     .from("payments")
//!     .filter(field("amount").gt(100).and(field("country").eq_to("PT")))
//!     .group_by(["cardId"])
//!     .over(Window::sliding(mins(5)).delayed_by(mins(1)))
//!     .build()
//!     .unwrap();
//! assert!(q.filter.is_some());
//! ```
//!
//! Outside input cannot write grammar: every name must lex as one
//! identifier token, and a string literal is quoted with the quote
//! character it does not contain (one holding both is refused).

use std::fmt::Write;

use railgun_types::{RailgunError, Result, TimeDelta, Value};

use crate::lang::ast::{AggFunc, AggSpec, Query, WindowKind, WindowSpec};
use crate::lang::parse_query;

/// Window expressions, by their paper name. `Window::sliding(mins(5))`
/// reads like Figure 4; the alias is the same type the AST stores.
pub type Window = WindowSpec;

/// `n` milliseconds.
pub fn millis(n: i64) -> TimeDelta {
    TimeDelta::from_millis(n)
}

/// `n` seconds.
pub fn secs(n: i64) -> TimeDelta {
    TimeDelta::from_secs(n)
}

/// `n` minutes.
pub fn mins(n: i64) -> TimeDelta {
    TimeDelta::from_minutes(n)
}

/// `n` hours.
pub fn hours(n: i64) -> TimeDelta {
    TimeDelta::from_hours(n)
}

/// `n` days.
pub fn days(n: i64) -> TimeDelta {
    TimeDelta::from_days(n)
}

/// Constructors for the aggregation functions of Figure 4.
///
/// Each returns the [`AggSpec`] the parser would produce for the same
/// SELECT item.
pub struct Agg;

impl Agg {
    /// `count(*)`.
    pub fn count() -> AggSpec {
        AggSpec {
            func: AggFunc::Count,
            field: None,
        }
    }

    /// `count(field)`.
    pub fn count_field(field: impl Into<String>) -> AggSpec {
        AggSpec {
            func: AggFunc::Count,
            field: Some(field.into()),
        }
    }

    /// `sum(field)`.
    pub fn sum(field: impl Into<String>) -> AggSpec {
        AggSpec {
            func: AggFunc::Sum,
            field: Some(field.into()),
        }
    }

    /// `avg(field)`.
    pub fn avg(field: impl Into<String>) -> AggSpec {
        AggSpec {
            func: AggFunc::Avg,
            field: Some(field.into()),
        }
    }

    /// `stdDev(field)` (sample standard deviation).
    pub fn std_dev(field: impl Into<String>) -> AggSpec {
        AggSpec {
            func: AggFunc::StdDev,
            field: Some(field.into()),
        }
    }

    /// `max(field)`.
    pub fn max(field: impl Into<String>) -> AggSpec {
        AggSpec {
            func: AggFunc::Max,
            field: Some(field.into()),
        }
    }

    /// `min(field)`.
    pub fn min(field: impl Into<String>) -> AggSpec {
        AggSpec {
            func: AggFunc::Min,
            field: Some(field.into()),
        }
    }

    /// `last(field)`.
    pub fn last(field: impl Into<String>) -> AggSpec {
        AggSpec {
            func: AggFunc::Last,
            field: Some(field.into()),
        }
    }

    /// `prev(field)`.
    pub fn prev(field: impl Into<String>) -> AggSpec {
        AggSpec {
            func: AggFunc::Prev,
            field: Some(field.into()),
        }
    }

    /// `countDistinct(field)`.
    pub fn count_distinct(field: impl Into<String>) -> AggSpec {
        AggSpec {
            func: AggFunc::CountDistinct,
            field: Some(field.into()),
        }
    }

    /// `topK(field, k)` — sketch-backed heavy hitters. The metric value
    /// is the deterministic `value=count,…` string, heaviest first.
    pub fn top_k(field: impl Into<String>, k: u32) -> AggSpec {
        AggSpec {
            func: AggFunc::TopK { k },
            field: Some(field.into()),
        }
    }

    /// `percentile(field, rank)` with `rank` in percent (e.g. `99.9`) —
    /// sketch-backed quantile estimate. Out-of-range or sub-basis-point
    /// ranks are written as rank 0, which [`QueryBuilder::build`]'s
    /// parse refuses.
    pub fn percentile(field: impl Into<String>, rank: f64) -> AggSpec {
        let bp = rank * 100.0;
        let rank_bp = if bp.is_finite() && bp.round() >= 1.0 && bp.round() <= 9999.0
            && (bp - bp.round()).abs() <= 1e-6
        {
            bp.round() as u32
        } else {
            0 // sentinel: the parser refuses `percentile(f, 0)`
        };
        AggSpec {
            func: AggFunc::Percentile { rank_bp },
            field: Some(field.into()),
        }
    }
}

impl AggSpec {
    /// Turn exact `countDistinct` into the HLL-backed approximate form:
    /// `countDistinct(field) approx err`, with `err` the relative error
    /// (e.g. `0.02` for 2%), valid in `(0, 0.5]` at basis-point
    /// granularity. Invalid errors — or `approx` on any other
    /// aggregation — are written as `approx 0`, which
    /// [`QueryBuilder::build`]'s parse refuses.
    pub fn approx(mut self, err: f64) -> AggSpec {
        let bp = err * 10_000.0;
        let err_bp = if bp.is_finite() && bp.round() >= 1.0 && bp.round() <= 5000.0
            && (bp - bp.round()).abs() <= 1e-6
        {
            bp.round() as u32
        } else {
            0 // sentinel: the parser refuses `approx 0`
        };
        self.func = AggFunc::ApproxCountDistinct {
            err_bp: if self.func == AggFunc::CountDistinct { err_bp } else { 0 },
        };
        self
    }
}

/// A filter expression under construction: its fully parenthesized
/// text (so precedence never has to be reconstructed), or the first
/// error met building it, reported at [`QueryBuilder::build`].
#[derive(Debug, Clone)]
pub struct Filter(std::result::Result<String, String>);

/// A field reference in a filter expression: `field("amount").gt(100)`.
pub fn field(name: impl Into<String>) -> Filter {
    let name = name.into();
    Filter(match name.to_ascii_lowercase().as_str() {
        "true" | "false" | "null" => Err(format!("field `{name}` would read as a literal")),
        _ => check_ident(&name).map(|_| name.clone()),
    })
}

/// A literal in a filter expression. Usually implicit — comparison
/// combinators accept `impl Into<Filter>`, and `i64`/`f64`/`bool`/`&str`
/// all convert — but available for explicitness.
pub fn lit(value: impl Into<Value>) -> Filter {
    Filter(match value.into() {
        Value::Float(f) if !f.is_finite() => Err(format!("float literal {f} is not finite")),
        // Keep the decimal point so it lexes back as a float.
        Value::Float(f) if f.fract() == 0.0 => Ok(format!("{f:.1}")),
        Value::Str(s) => match (s.contains('\''), s.contains('"')) {
            (false, _) => Ok(format!("'{s}'")),
            (true, false) => Ok(format!("\"{s}\"")),
            (true, true) => Err(format!("string literal {s:?} contains both quote characters")),
        },
        Value::Float(f) => Ok(f.to_string()),
        // The parser refuses `i64::MIN`, whose magnitude no literal holds.
        Value::Int(n) => Ok(n.to_string()),
        Value::Bool(b) => Ok(b.to_string()),
        Value::Null => Ok("null".into()),
    })
}

macro_rules! filter_from_literal {
    ($($t:ty),*) => {$(
        impl From<$t> for Filter {
            fn from(v: $t) -> Self {
                lit(v)
            }
        }
    )*};
}

filter_from_literal!(i64, f64, bool, &str, String, Value);

impl From<i32> for Filter {
    fn from(v: i32) -> Self {
        lit(i64::from(v))
    }
}

impl Filter {
    fn binary(self, op: &str, rhs: impl Into<Filter>) -> Filter {
        let rhs = rhs.into();
        Filter(self.0.and_then(|a| rhs.0.map(|b| format!("({a} {op} {b})"))))
    }

    fn wrap(self, prefix: &str, suffix: &str) -> Filter {
        Filter(self.0.map(|a| format!("({prefix}{a}{suffix})")))
    }

    /// `self = rhs` (named to avoid clashing with [`PartialEq::eq`]).
    pub fn eq_to(self, rhs: impl Into<Filter>) -> Filter {
        self.binary("=", rhs)
    }

    /// `self != rhs`.
    pub fn ne_to(self, rhs: impl Into<Filter>) -> Filter {
        self.binary("!=", rhs)
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: impl Into<Filter>) -> Filter {
        self.binary("<", rhs)
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: impl Into<Filter>) -> Filter {
        self.binary("<=", rhs)
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: impl Into<Filter>) -> Filter {
        self.binary(">", rhs)
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: impl Into<Filter>) -> Filter {
        self.binary(">=", rhs)
    }

    /// `self AND rhs`.
    pub fn and(self, rhs: impl Into<Filter>) -> Filter {
        self.binary("AND", rhs)
    }

    /// `self OR rhs`.
    pub fn or(self, rhs: impl Into<Filter>) -> Filter {
        self.binary("OR", rhs)
    }

    /// `NOT self`, parenthesized as a unit: the parser's NOT binds looser
    /// than comparison.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Filter {
        self.wrap("NOT ", "")
    }

    /// `self IS NULL`.
    pub fn is_null(self) -> Filter {
        self.wrap("", " IS NULL")
    }

    /// `self IS NOT NULL`.
    pub fn is_not_null(self) -> Filter {
        self.wrap("", " IS NOT NULL")
    }
}

/// Arithmetic on filter expressions uses the real operators:
/// `field("amount") + field("fee")`, `field("retries") * 2`.
impl<R: Into<Filter>> std::ops::Add<R> for Filter {
    type Output = Filter;
    fn add(self, rhs: R) -> Filter {
        self.binary("+", rhs)
    }
}

impl<R: Into<Filter>> std::ops::Sub<R> for Filter {
    type Output = Filter;
    fn sub(self, rhs: R) -> Filter {
        self.binary("-", rhs)
    }
}

impl<R: Into<Filter>> std::ops::Mul<R> for Filter {
    type Output = Filter;
    fn mul(self, rhs: R) -> Filter {
        self.binary("*", rhs)
    }
}

impl<R: Into<Filter>> std::ops::Div<R> for Filter {
    type Output = Filter;
    fn div(self, rhs: R) -> Filter {
        self.binary("/", rhs)
    }
}

/// `name` itself if it lexes as one identifier token, else an error.
fn check_ident(name: &str) -> std::result::Result<&str, String> {
    let mut chars = name.chars();
    let ident = matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.');
    match ident {
        true => Ok(name),
        false => Err(format!(
            "`{name}` is not a valid identifier (must match [A-Za-z_][A-Za-z0-9_.]*)"
        )),
    }
}

impl Query {
    /// Start building a query from its first SELECT item.
    pub fn select(agg: AggSpec) -> QueryBuilder {
        QueryBuilder {
            select: vec![agg],
            stream: None,
            filter: None,
            group_by: Vec::new(),
            window: None,
            slo: None,
        }
    }
}

/// Fluent builder of Figure-4 query text — see the [module docs](self)
/// for the full shape. [`QueryBuilder::text`] writes the statement and
/// [`QueryBuilder::build`] parses it.
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    select: Vec<AggSpec>,
    stream: Option<String>,
    filter: Option<Filter>,
    group_by: Vec<String>,
    window: Option<WindowSpec>,
    /// Optional latency budget (SLO) — not part of the statement,
    /// consumed by `Session::register` to arm per-query breach tracking.
    slo: Option<TimeDelta>,
}

impl QueryBuilder {
    /// Add another SELECT item.
    pub fn select(mut self, agg: AggSpec) -> Self {
        self.select.push(agg);
        self
    }

    /// The stream the query reads (`FROM`).
    pub fn from(mut self, stream: impl Into<String>) -> Self {
        self.stream = Some(stream.into());
        self
    }

    /// The filter predicate (`WHERE`). Calling it twice ANDs the
    /// predicates.
    pub fn filter(mut self, predicate: Filter) -> Self {
        self.filter = Some(match self.filter.take() {
            Some(existing) => existing.and(predicate),
            None => predicate,
        });
        self
    }

    /// The grouping fields (`GROUP BY`). Extends any previous call.
    pub fn group_by<I, S>(mut self, fields: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.group_by.extend(fields.into_iter().map(Into::into));
        self
    }

    /// The window expression (`OVER`).
    pub fn over(mut self, window: WindowSpec) -> Self {
        self.window = Some(window);
        self
    }

    /// Declare a latency budget (SLO) for this query: when the builder is
    /// registered through `Session::register`, completions slower than
    /// `budget` are counted as breaches in the cluster's
    /// [`MetricsSnapshot`](crate::metrics::MetricsSnapshot), and the
    /// front-ends escalate `Backpressure` under overload (see the
    /// `metrics` module's documented policy).
    ///
    /// The budget is *operational* metadata: it is not part of the
    /// statement [`QueryBuilder::text`] writes, so two registrations of
    /// the same statement with different budgets compute identical
    /// metrics. Registering the text yourself drops it; arm it then with
    /// `Cluster::set_query_slo`.
    pub fn with_slo(mut self, budget: TimeDelta) -> Self {
        self.slo = Some(budget);
        self
    }

    /// The declared latency budget, if any.
    pub fn slo(&self) -> Option<TimeDelta> {
        self.slo
    }

    /// The Figure-4 statement this builder describes — what travels the
    /// ops topic. Errors if `.from` or `.over` is missing, a name is not
    /// one identifier token, or a filter literal cannot be written; what
    /// the text says is the parser's to judge at [`QueryBuilder::build`].
    pub fn text(&self) -> Result<String> {
        let invalid = |msg: String| RailgunError::InvalidArgument(format!("query builder: {msg}"));
        let stream = self.stream.as_deref().ok_or_else(|| invalid("missing `.from(stream)`".into()))?;
        let window = self.window.ok_or_else(|| invalid("missing `.over(window)`".into()))?;
        let mut out = String::from("SELECT ");
        for (i, agg) in self.select.iter().enumerate() {
            if let Some(f) = &agg.field {
                check_ident(f).map_err(invalid)?;
            }
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}{}", agg.display());
        }
        let _ = write!(out, " FROM {}", check_ident(stream).map_err(invalid)?);
        if let Some(Filter(filter)) = &self.filter {
            let _ = write!(out, " WHERE {}", filter.as_deref().map_err(|e| invalid(e.clone()))?);
        }
        for (i, f) in self.group_by.iter().enumerate() {
            let sep = if i > 0 { ", " } else { " GROUP BY " };
            let _ = write!(out, "{sep}{}", check_ident(f).map_err(invalid)?);
        }
        // Durations as raw milliseconds, and a delay whenever it is not
        // zero: the parser refuses a duration that is not positive.
        let _ = match window.kind {
            WindowKind::Sliding(ws) => write!(out, " OVER sliding {} ms", ws.as_millis()),
            WindowKind::Tumbling(ws) => write!(out, " OVER tumbling {} ms", ws.as_millis()),
            WindowKind::Infinite => write!(out, " OVER infinite"),
        };
        if window.delay != TimeDelta::ZERO {
            let _ = write!(out, " delayed by {} ms", window.delay.as_millis());
        }
        Ok(out)
    }

    /// Parse [`QueryBuilder::text`] into a [`Query`]: the parser judges
    /// parameters and durations here exactly as it does a hand-written
    /// statement.
    ///
    /// A latency budget declared with [`QueryBuilder::with_slo`] is not
    /// part of the returned [`Query`]; pass the builder to
    /// `Session::register` for the SLO to be armed.
    pub fn build(&self) -> Result<Query> {
        parse_query(&self.text()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::lang::{parse_query, PExpr};

    #[test]
    fn builder_matches_parser_q1() {
        let built = Query::select(Agg::sum("amount"))
            .select(Agg::count())
            .from("payments")
            .group_by(["cardId"])
            .over(Window::sliding(mins(5)))
            .build()
            .unwrap();
        let parsed = parse_query(
            "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn builder_matches_parser_with_filter_and_delay() {
        let built = Query::select(Agg::count())
            .from("payments")
            .filter(
                field("amount")
                    .gt(100)
                    .and(field("country").eq_to("PT"))
                    .or(field("retries").le(2).not()),
            )
            .group_by(["cardId"])
            .over(Window::sliding(secs(30)).delayed_by(mins(2)))
            .build()
            .unwrap();
        let parsed = parse_query(
            "SELECT count(*) FROM payments \
             WHERE amount > 100 AND country = 'PT' OR NOT retries <= 2 \
             GROUP BY cardId OVER sliding 30 s delayed by 2 min",
        )
        .unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn builder_matches_parser_approx_family() {
        let built = Query::select(Agg::count_distinct("addr").approx(0.02))
            .select(Agg::top_k("merchant", 10))
            .select(Agg::percentile("amount", 99.9))
            .from("payments")
            .group_by(["cardId"])
            .over(Window::sliding(mins(5)))
            .build()
            .unwrap();
        let parsed = parse_query(
            "SELECT countDistinct(addr) approx 0.02, topK(merchant, 10), \
             percentile(amount, 99.9) FROM payments GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        assert_eq!(built, parsed);
        // Plan identity is pinned byte-for-byte on the Debug rendering,
        // as for the exact family.
        assert_eq!(format!("{built:?}"), format!("{parsed:?}"));
    }

    fn of(agg: AggSpec) -> QueryBuilder {
        Query::select(agg).from("s").over(Window::infinite())
    }

    fn assert_refused(refused: Vec<(&str, QueryBuilder)>) {
        for (case, builder) in refused {
            assert!(builder.build().is_err(), "{case}: {:?}", builder.text());
        }
    }

    #[test]
    fn invalid_approx_params_rejected_at_build() {
        assert_refused(vec![
            ("approx 0", of(Agg::count_distinct("x").approx(0.0))),
            ("approx -0.1", of(Agg::count_distinct("x").approx(-0.1))),
            ("approx 0.6", of(Agg::count_distinct("x").approx(0.6))),
            ("approx NaN", of(Agg::count_distinct("x").approx(f64::NAN))),
            ("approx sub-bp", of(Agg::count_distinct("x").approx(0.000_01))),
            ("approx on sum", of(Agg::sum("x").approx(0.02))),
            ("percentile 0", of(Agg::percentile("x", 0.0))),
            ("percentile -1", of(Agg::percentile("x", -1.0))),
            ("percentile 100", of(Agg::percentile("x", 100.0))),
            ("percentile sub-bp", of(Agg::percentile("x", 99.999))),
            ("topK 0", of(Agg::top_k("x", 0))),
        ]);
    }

    #[test]
    fn incomplete_builders_rejected() {
        assert_refused(vec![
            ("missing from", Query::select(Agg::count()).over(Window::infinite())),
            ("missing over", Query::select(Agg::count()).from("s")),
        ]);
    }

    /// Every input the grammar cannot carry fails at `build()`, and
    /// what the builder writes is never read as more grammar than it
    /// built.
    #[test]
    fn inexpressible_queries_rejected_at_build() {
        let q = || of(Agg::count());
        let refused: Vec<(&str, QueryBuilder)> = vec![
            ("stream name", q().from("a b")),
            ("filter field", q().filter(field("a OR b").gt(1))),
            ("field read as a literal", q().filter(field("true").eq_to(true))),
            ("group-by field", q().group_by(["x y"])),
            ("aggregation field", of(Agg::sum("a) FROM t --"))),
            ("NaN", q().filter(field("x").gt(f64::NAN))),
            ("infinity", q().filter(field("x").lt(f64::INFINITY))),
            ("i64::MIN", q().filter(field("x").gt(i64::MIN))),
            ("both quotes", q().filter(field("x").eq_to("it's \"quoted\""))),
            ("zero window", q().over(Window::sliding(millis(0)))),
            ("negative window", q().over(Window::tumbling(secs(-1)))),
            ("negative delay", q().over(Window::sliding(secs(1)).delayed_by(millis(-5)))),
        ];
        assert_refused(refused);

        // A string holding one quote character is quoted with the other.
        let built = q().filter(field("note").eq_to("a' OR note = 'b")).build().unwrap();
        assert_eq!(
            built.filter,
            Some(PExpr::Cmp(
                CmpOp::Eq,
                Box::new(PExpr::Field("note".into())),
                Box::new(PExpr::Lit(Value::Str("a' OR note = 'b".into()))),
            ))
        );
        // A NOT under a comparison stays under it.
        let built = q().filter(field("x").not().eq_to(true)).build().unwrap();
        assert_eq!(
            built.filter,
            Some(PExpr::Cmp(
                CmpOp::Eq,
                Box::new(PExpr::Not(Box::new(PExpr::Field("x".into())))),
                Box::new(PExpr::Lit(Value::Bool(true))),
            ))
        );
    }

    #[test]
    fn double_filter_ands() {
        let q = Query::select(Agg::count())
            .from("s")
            .filter(field("a").gt(1))
            .filter(field("b").lt(2))
            .group_by(["k"])
            .over(Window::infinite())
            .build()
            .unwrap();
        assert!(matches!(q.filter, Some(PExpr::And(_, _))));
    }
}

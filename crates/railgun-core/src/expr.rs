//! Filter expression language.
//!
//! The paper uses jexl (a Java expression library) for `WHERE` filters
//! (§3.4). This module is the native substitute (DESIGN.md substitution
//! #6): a small, typed expression evaluator over event fields supporting
//! comparisons, boolean logic, arithmetic, and NULL checks.
//!
//! Expressions are compiled against a [`Schema`] once (field names resolve
//! to positional indexes), then evaluated per event with no allocation on
//! the hot path.

use railgun_types::{RailgunError, Result, Schema, Value};

/// Binary comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// A compiled filter expression.
///
/// `Expr` trees are built by the query parser or programmatically; field
/// references hold resolved indexes so evaluation is a positional lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal constant.
    Lit(Value),
    /// Field reference (resolved index, kept name for display).
    Field { index: usize, name: String },
    /// Comparison; NULL operands make comparisons false (SQL-ish).
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic over numeric operands; NULL propagates.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Logical conjunction (short-circuit).
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction (short-circuit).
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// `field IS NULL`.
    IsNull(Box<Expr>),
}

impl Expr {
    /// Build a field reference, resolving `name` against `schema`.
    pub fn field(schema: &Schema, name: &str) -> Result<Expr> {
        Ok(Expr::Field {
            index: schema.require(name)?,
            name: name.to_owned(),
        })
    }

    /// Evaluate to a [`Value`].
    pub fn eval(&self, values: &[Value]) -> Value {
        match self {
            Expr::Lit(v) => v.clone(),
            Expr::Field { index, .. } => values.get(*index).cloned().unwrap_or(Value::Null),
            Expr::Cmp(op, a, b) => {
                let (a, b) = (a.eval(values), b.eval(values));
                if a.is_null() || b.is_null() {
                    return Value::Bool(false);
                }
                let ord = a.total_cmp(&b);
                let result = match op {
                    CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                    CmpOp::Ne => ord != std::cmp::Ordering::Equal,
                    CmpOp::Lt => ord == std::cmp::Ordering::Less,
                    CmpOp::Le => ord != std::cmp::Ordering::Greater,
                    CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                    CmpOp::Ge => ord != std::cmp::Ordering::Less,
                };
                Value::Bool(result)
            }
            Expr::Arith(op, a, b) => {
                let (a, b) = (a.eval(values), b.eval(values));
                let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
                    return Value::Null;
                };
                let out = match op {
                    ArithOp::Add => x + y,
                    ArithOp::Sub => x - y,
                    ArithOp::Mul => x * y,
                    ArithOp::Div => {
                        if y == 0.0 {
                            return Value::Null;
                        }
                        x / y
                    }
                };
                // Preserve integer typing when both sides are integers and
                // the operation is exact.
                if let (Value::Int(xi), Value::Int(yi)) = (&a, &b) {
                    match op {
                        ArithOp::Add => return Value::Int(xi + yi),
                        ArithOp::Sub => return Value::Int(xi - yi),
                        ArithOp::Mul => return Value::Int(xi * yi),
                        ArithOp::Div => {}
                    }
                }
                Value::Float(out)
            }
            Expr::And(a, b) => {
                if !a.eval(values).is_truthy() {
                    return Value::Bool(false);
                }
                Value::Bool(b.eval(values).is_truthy())
            }
            Expr::Or(a, b) => {
                if a.eval(values).is_truthy() {
                    return Value::Bool(true);
                }
                Value::Bool(b.eval(values).is_truthy())
            }
            Expr::Not(a) => Value::Bool(!a.eval(values).is_truthy()),
            Expr::IsNull(a) => Value::Bool(a.eval(values).is_null()),
        }
    }

    /// Evaluate as a filter predicate.
    pub fn matches(&self, values: &[Value]) -> bool {
        self.eval(values).is_truthy()
    }

    /// Append the schema position of every field this expression reads.
    pub fn field_indexes(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Lit(_) => {}
            Expr::Field { index, .. } => out.push(*index),
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.field_indexes(out);
                b.field_indexes(out);
            }
            Expr::Not(a) | Expr::IsNull(a) => a.field_indexes(out),
        }
    }

    /// Validate field indexes against a schema (used when plans are rebuilt
    /// after schema evolution).
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        match self {
            Expr::Lit(_) => Ok(()),
            Expr::Field { index, name } => {
                if schema.index_of(name) == Some(*index) {
                    Ok(())
                } else {
                    Err(RailgunError::Expr(format!(
                        "field `{name}` no longer at index {index}"
                    )))
                }
            }
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.validate(schema)?;
                b.validate(schema)
            }
            Expr::Not(a) | Expr::IsNull(a) => a.validate(schema),
        }
    }

    /// A canonical textual form used for plan-node sharing (two filters
    /// share a node iff their canonical forms are identical).
    pub fn canonical(&self) -> String {
        match self {
            Expr::Lit(v) => format!("lit({v:?})"),
            Expr::Field { index, .. } => format!("f{index}"),
            Expr::Cmp(op, a, b) => format!("cmp({op:?},{},{})", a.canonical(), b.canonical()),
            Expr::Arith(op, a, b) => {
                format!("arith({op:?},{},{})", a.canonical(), b.canonical())
            }
            Expr::And(a, b) => format!("and({},{})", a.canonical(), b.canonical()),
            Expr::Or(a, b) => format!("or({},{})", a.canonical(), b.canonical()),
            Expr::Not(a) => format!("not({})", a.canonical()),
            Expr::IsNull(a) => format!("isnull({})", a.canonical()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use railgun_types::FieldType;

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("amount", FieldType::Float),
            ("country", FieldType::Str),
            ("retries", FieldType::Int),
        ])
        .unwrap()
    }

    fn lit(v: impl Into<Value>) -> Box<Expr> {
        Box::new(Expr::Lit(v.into()))
    }

    fn field(name: &str) -> Box<Expr> {
        Box::new(Expr::field(&schema(), name).unwrap())
    }

    #[test]
    fn comparisons() {
        let vals = vec![Value::Float(120.0), Value::Str("PT".into()), Value::Int(2)];
        let gt = Expr::Cmp(CmpOp::Gt, field("amount"), lit(100.0));
        assert!(gt.matches(&vals));
        let eq = Expr::Cmp(CmpOp::Eq, field("country"), lit("PT"));
        assert!(eq.matches(&vals));
        let le = Expr::Cmp(CmpOp::Le, field("retries"), lit(1i64));
        assert!(!le.matches(&vals));
        // Cross-type numeric compare: Int field vs Float literal.
        let ge = Expr::Cmp(CmpOp::Ge, field("retries"), lit(2.0));
        assert!(ge.matches(&vals));
    }

    #[test]
    fn null_comparisons_are_false() {
        let vals = vec![Value::Null, Value::Null, Value::Null];
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
            let e = Expr::Cmp(op, field("amount"), lit(1.0));
            assert!(!e.matches(&vals), "{op:?} on NULL must be false");
        }
        let isnull = Expr::IsNull(field("amount"));
        assert!(isnull.matches(&vals));
    }

    #[test]
    fn boolean_logic_short_circuits() {
        let vals = vec![Value::Float(50.0), Value::Str("PT".into()), Value::Int(0)];
        let and = Expr::And(
            Box::new(Expr::Cmp(CmpOp::Gt, field("amount"), lit(10.0))),
            Box::new(Expr::Cmp(CmpOp::Eq, field("country"), lit("PT"))),
        );
        assert!(and.matches(&vals));
        let or = Expr::Or(
            Box::new(Expr::Cmp(CmpOp::Gt, field("amount"), lit(1000.0))),
            Box::new(Expr::Cmp(CmpOp::Eq, field("country"), lit("PT"))),
        );
        assert!(or.matches(&vals));
        let not = Expr::Not(Box::new(or));
        assert!(!not.matches(&vals));
    }

    #[test]
    fn arithmetic_and_division_by_zero() {
        let vals = vec![Value::Float(50.0), Value::Null, Value::Int(4)];
        let twice = Expr::Arith(ArithOp::Mul, field("amount"), lit(2.0));
        assert_eq!(twice.eval(&vals), Value::Float(100.0));
        let int_add = Expr::Arith(ArithOp::Add, field("retries"), lit(1i64));
        assert_eq!(int_add.eval(&vals), Value::Int(5));
        let div0 = Expr::Arith(ArithOp::Div, field("amount"), lit(0.0));
        assert_eq!(div0.eval(&vals), Value::Null);
        let null_prop = Expr::Arith(ArithOp::Add, field("country"), lit(1.0));
        assert_eq!(null_prop.eval(&vals), Value::Null);
    }

    #[test]
    fn unknown_field_fails_at_compile() {
        assert!(Expr::field(&schema(), "nope").is_err());
    }

    #[test]
    fn canonical_form_distinguishes_and_matches() {
        let a = Expr::Cmp(CmpOp::Gt, field("amount"), lit(10.0));
        let b = Expr::Cmp(CmpOp::Gt, field("amount"), lit(10.0));
        let c = Expr::Cmp(CmpOp::Ge, field("amount"), lit(10.0));
        assert_eq!(a.canonical(), b.canonical());
        assert_ne!(a.canonical(), c.canonical());
    }

    #[test]
    fn validate_detects_schema_drift() {
        let e = Expr::field(&schema(), "amount").unwrap();
        assert!(e.validate(&schema()).is_ok());
        let moved = Schema::from_pairs(&[
            ("country", FieldType::Str),
            ("amount", FieldType::Float),
        ])
        .unwrap();
        assert!(e.validate(&moved).is_err());
    }
}

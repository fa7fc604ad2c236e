//! Event schemas.
//!
//! A [`Schema`] declares the ordered list of fields an event carries.
//! Rows describe themselves (every value carries its type), so reservoir
//! chunks still decode after a schema evolves (paper §4.1.1).

use crate::event::Event;
use crate::value::Value;
use crate::{RailgunError, Result};

/// Identifier of a schema version, as a reservoir chunk frame records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SchemaId(pub u32);

/// Declared type of a schema field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    Bool,
    Int,
    Float,
    Str,
}

impl FieldType {
    /// True iff `v` is NULL or matches this declared type.
    pub fn admits(&self, v: &Value) -> bool {
        self.admits_type(match v {
            Value::Null => None,
            Value::Bool(_) => Some(FieldType::Bool),
            Value::Int(_) => Some(FieldType::Int),
            Value::Float(_) => Some(FieldType::Float),
            Value::Str(_) => Some(FieldType::Str),
        })
    }

    /// The rule behind [`FieldType::admits`]: NULL (`None`) goes anywhere,
    /// anything else only where its own type is declared.
    fn admits_type(&self, of_value: Option<FieldType>) -> bool {
        of_value.is_none_or(|t| t == *self)
    }
}

/// One named, typed field in a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    pub name: String,
    pub ty: FieldType,
}

impl FieldDef {
    pub fn new(name: impl Into<String>, ty: FieldType) -> Self {
        FieldDef { name: name.into(), ty }
    }
}

/// An ordered set of named, typed fields.
///
/// Field order is significant: events store values positionally and the
/// chunk format encodes columns in schema order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<FieldDef>,
}

impl Schema {
    /// Build a schema from field definitions. Field names must be unique.
    pub fn new(fields: Vec<FieldDef>) -> Result<Self> {
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].iter().any(|g| g.name == f.name) {
                return Err(RailgunError::Schema(format!(
                    "duplicate field name `{}`",
                    f.name
                )));
            }
        }
        Ok(Schema { fields })
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, FieldType)]) -> Result<Self> {
        Schema::new(
            pairs
                .iter()
                .map(|(n, t)| FieldDef::new(*n, *t))
                .collect(),
        )
    }

    /// The ordered field definitions.
    #[inline]
    pub fn fields(&self) -> &[FieldDef] {
        &self.fields
    }

    /// Number of fields.
    #[inline]
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True iff the schema has no fields.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the field named `name`, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Index of the field named `name`, or a schema error naming the field.
    pub fn require(&self, name: &str) -> Result<usize> {
        self.index_of(name)
            .ok_or_else(|| RailgunError::Schema(format!("unknown field `{name}`")))
    }

    /// Validate that `values` is positionally compatible with this schema.
    pub fn check_values(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.fields.len() {
            return Err(RailgunError::Schema(format!(
                "expected {} values, got {}",
                self.fields.len(),
                values.len()
            )));
        }
        for (f, v) in self.fields.iter().zip(values) {
            if !f.ty.admits(v) {
                return Err(RailgunError::Schema(format!(
                    "field `{}` declared {:?} but value is {v:?}",
                    f.name, f.ty
                )));
            }
        }
        Ok(())
    }

    /// [`Schema::check_values`] over an event's row: the same arity and
    /// type rules, read off the value tags without building a value. (A
    /// row that does not fit is handed to `check_values` for the error.)
    pub fn check_row(&self, event: &Event) -> Result<()> {
        let fits = event.arity() == self.fields.len()
            && self
                .fields
                .iter()
                .zip(event.raw_values())
                .all(|(f, v)| f.ty.admits_type(v.field_type()));
        if fits {
            Ok(())
        } else {
            self.check_values(event.values())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payments() -> Schema {
        Schema::from_pairs(&[
            ("cardId", FieldType::Str),
            ("merchantId", FieldType::Str),
            ("amount", FieldType::Float),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_duplicate_names() {
        let err = Schema::from_pairs(&[("a", FieldType::Int), ("a", FieldType::Str)]);
        assert!(err.is_err());
    }

    #[test]
    fn index_lookup() {
        let s = payments();
        assert_eq!(s.index_of("amount"), Some(2));
        assert_eq!(s.index_of("nope"), None);
        assert!(s.require("cardId").is_ok());
        assert!(s.require("nope").is_err());
    }

    #[test]
    fn value_validation() {
        let s = payments();
        assert!(s
            .check_values(&[
                Value::Str("c1".into()),
                Value::Str("m1".into()),
                Value::Float(9.5)
            ])
            .is_ok());
        // wrong arity
        assert!(s.check_values(&[Value::Null]).is_err());
        // wrong type
        assert!(s
            .check_values(&[Value::Int(1), Value::Str("m".into()), Value::Float(1.0)])
            .is_err());
        // NULL admitted anywhere
        assert!(s
            .check_values(&[Value::Null, Value::Null, Value::Null])
            .is_ok());
    }

    #[test]
    fn row_validation_matches_value_validation() {
        use crate::{EventId, Timestamp};
        let s = payments();
        let row = |values: Vec<Value>| {
            s.check_row(&Event::new(EventId(0), Timestamp::from_millis(0), values))
        };
        assert!(row(vec!["c1".into(), "m1".into(), 9.5.into()]).is_ok());
        assert!(row(vec![Value::Null, Value::Null, Value::Null]).is_ok());
        let arity = row(vec![Value::Null]).unwrap_err();
        assert_eq!(
            arity.to_string(),
            s.check_values(&[Value::Null]).unwrap_err().to_string()
        );
        let ty = row(vec![Value::Int(1), "m".into(), 1.0.into()]).unwrap_err();
        assert!(ty.to_string().contains("field `cardId` declared Str"), "{ty}");
    }
}

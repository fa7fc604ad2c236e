//! State-store key encoding.
//!
//! The paper keys the store by "a particular metric entity in a plan"
//! (§4.1.3). Every aggregator under one group-by node sees exactly the
//! same events for exactly the same entity, so here the default CF holds
//! **one row per (group-by node, tumbling bucket, entity)** carrying the
//! states of all the group's leaves (see `crate::agg` for the row codec).
//! Keys are prefix-ordered by the 4-byte **group prefix**, so per-group
//! scans (slot stripping, diagnostics) are range scans and a dead group is
//! one prefix for the compaction filter.
//!
//! Auxiliary data (exact `countDistinct` counters, sketch blobs) stays per
//! leaf in the aux CF: its keys embed the same key bytes with the first
//! four replaced by the **leaf prefix** ([`set_prefix`]).

use railgun_types::encode::{get_ivarint, get_uvarint, get_value, put_ivarint, put_uvarint, put_value};
use railgun_types::{RailgunError, Result, Timestamp, Value};

/// Encode a state key.
///
/// * `group` — plan group-by node id (big-endian for prefix ordering);
/// * `bucket` — tumbling-window start (aligned), when applicable;
/// * `entity` — group-by values in group-field order.
pub fn state_key(group: u32, bucket: Option<Timestamp>, entity: &[Value]) -> Vec<u8> {
    let mut key = Vec::with_capacity(16 + entity.len() * 12);
    state_key_into(&mut key, group, bucket, entity.iter());
    key
}

/// [`state_key`] into a reused buffer, taking the entity values by
/// reference (the per-event path builds keys straight from the event).
pub fn state_key_into<'a>(
    key: &mut Vec<u8>,
    group: u32,
    bucket: Option<Timestamp>,
    entity: impl ExactSizeIterator<Item = &'a Value>,
) {
    key.clear();
    key.extend_from_slice(&group.to_be_bytes());
    match bucket {
        Some(b) => {
            key.push(1);
            put_ivarint(key, b.as_millis());
        }
        None => key.push(0),
    }
    put_uvarint(key, entity.len() as u64);
    for v in entity {
        put_value(key, v);
    }
}

/// The 4-byte prefix shared by every key of a group-by node (default CF)
/// or, for the state keys embedded in aux-CF keys, of a leaf.
pub fn id_prefix(id: u32) -> [u8; 4] {
    id.to_be_bytes()
}

/// Overwrite the 4-byte prefix of an encoded state key: how a leaf's aux
/// key is derived from its group's row key without re-encoding the entity.
pub fn set_prefix(key: &mut [u8], id: u32) {
    key[..4].copy_from_slice(&id.to_be_bytes());
}

/// Decode a state key back into its parts (diagnostics/tests).
pub fn decode_state_key(mut key: &[u8]) -> Result<(u32, Option<Timestamp>, Vec<Value>)> {
    use bytes::Buf;
    if key.len() < 5 {
        return Err(RailgunError::Corruption("state key too short".into()));
    }
    let id = u32::from_be_bytes(key[..4].try_into().expect("4b"));
    key.advance(4);
    let bucket = match key.get_u8() {
        0 => None,
        1 => Some(Timestamp::from_millis(get_ivarint(&mut key)?)),
        other => {
            return Err(RailgunError::Corruption(format!(
                "bad bucket tag {other}"
            )))
        }
    };
    let n = get_uvarint(&mut key)? as usize;
    let mut entity = Vec::with_capacity(n);
    for _ in 0..n {
        entity.push(get_value(&mut key)?);
    }
    Ok((id, bucket, entity))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let entity = vec![Value::Str("card-1".into()), Value::Int(7)];
        let key = state_key(42, Some(Timestamp::from_millis(60_000)), &entity);
        let (leaf, bucket, ent) = decode_state_key(&key).unwrap();
        assert_eq!(leaf, 42);
        assert_eq!(bucket, Some(Timestamp::from_millis(60_000)));
        assert_eq!(ent, entity);
    }

    #[test]
    fn no_bucket_roundtrip() {
        let key = state_key(1, None, &[Value::Str("m".into())]);
        let (leaf, bucket, ent) = decode_state_key(&key).unwrap();
        assert_eq!(leaf, 1);
        assert_eq!(bucket, None);
        assert_eq!(ent, vec![Value::Str("m".into())]);
    }

    #[test]
    fn group_prefix_orders_keys() {
        let k1 = state_key(1, None, &[Value::Int(999)]);
        let k2 = state_key(2, None, &[Value::Int(0)]);
        assert!(k1 < k2, "group id dominates ordering");
        assert!(k1.starts_with(&id_prefix(1)));
    }

    #[test]
    fn set_prefix_derives_the_leaf_key() {
        let entity = [Value::Str("card-1".into())];
        let mut key = state_key(3, Some(Timestamp::from_millis(60_000)), &entity);
        set_prefix(&mut key, 17);
        assert_eq!(key, state_key(17, Some(Timestamp::from_millis(60_000)), &entity));
    }

    #[test]
    fn distinct_entities_distinct_keys() {
        let a = state_key(1, None, &[Value::Str("a".into())]);
        let b = state_key(1, None, &[Value::Str("b".into())]);
        let ab = state_key(1, None, &[Value::Str("a".into()), Value::Str("b".into())]);
        assert_ne!(a, b);
        assert_ne!(a, ab);
    }

    #[test]
    fn buckets_separate_states() {
        let e = [Value::Str("c".into())];
        let b1 = state_key(1, Some(Timestamp::from_millis(0)), &e);
        let b2 = state_key(1, Some(Timestamp::from_millis(60_000)), &e);
        assert_ne!(b1, b2);
    }
}

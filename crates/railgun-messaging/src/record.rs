//! Wire-level record types.

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;

/// A (topic, partition) pair — Railgun's minimal unit of work (§4).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TopicPartition {
    pub topic: String,
    pub partition: u32,
}

impl TopicPartition {
    pub fn new(topic: impl Into<String>, partition: u32) -> Self {
        TopicPartition {
            topic: topic.into(),
            partition,
        }
    }
}

impl fmt::Display for TopicPartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.topic, self.partition)
    }
}

/// A record as stored in a partition log.
///
/// The payload is a [`Bytes`] view — typically a zero-copy slice of a
/// batch frame encoded once at the producer — so cloning a record on
/// fetch bumps a reference count instead of copying payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Position in the partition log; consumers poll by offset.
    pub offset: u64,
    /// Partitioning key (e.g. the partitioner entity id, §4).
    pub key: Vec<u8>,
    /// Opaque payload (Railgun serializes events/replies here).
    pub payload: Bytes,
}

/// A record as delivered to a consumer, with its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The topic's name, shared by every message the consumer fetches
    /// from one assigned partition (a reference count, not a copy).
    pub topic: Arc<str>,
    pub partition: u32,
    pub offset: u64,
    pub key: Vec<u8>,
    pub payload: Bytes,
}

impl Message {
    /// The (topic, partition) this message came from.
    pub fn topic_partition(&self) -> TopicPartition {
        TopicPartition::new(&*self.topic, self.partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_partition_display_and_ordering() {
        let a = TopicPartition::new("card", 0);
        let b = TopicPartition::new("card", 1);
        let c = TopicPartition::new("merchant", 0);
        assert_eq!(a.to_string(), "card/0");
        assert!(a < b && b < c);
    }

    #[test]
    fn message_back_to_topic_partition() {
        let m = Message {
            topic: "t".into(),
            partition: 3,
            offset: 9,
            key: vec![1],
            payload: vec![2].into(),
        };
        assert_eq!(m.topic_partition(), TopicPartition::new("t", 3));
    }
}

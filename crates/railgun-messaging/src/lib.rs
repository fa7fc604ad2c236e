//! # railgun-messaging — the Kafka-substitute messaging layer
//!
//! Railgun's messaging layer (paper §3.3) serves three purposes: inter-node
//! communication (events in, aggregation replies out), failure detection
//! (consumer heartbeats), and recovery (offset-addressed replay). The paper
//! uses Apache Kafka; this crate is an in-process substitute implementing
//! exactly the abstractions Railgun relies on — see DESIGN.md,
//! substitution #1:
//!
//! * **partitioned topics** over append-only, replayable logs ([`log`]);
//! * **producers** with stable key-hash partitioning ([`producer`]);
//! * **pull-based consumers** with per-consumer offsets and seek
//!   ([`consumer`]) — a group commits no offsets: Railgun keeps a task's
//!   position in its checkpoint record and seeks there after a rebalance;
//! * **consumer groups** with heartbeats, session timeouts, generations and
//!   pluggable assignment strategies ([`assignment`], [`bus`]) — the hook
//!   Railgun's custom sticky strategy (in `railgun-core`) plugs into;
//! * **manual assignment** for replica consumers that must follow the same
//!   partitions as the active consumer.
//!
//! Time is logical and driven by the harness ([`MessageBus::advance_to`])
//! by default, which makes failure-detection tests and discrete-event
//! simulations deterministic; the threaded runtime builds its bus with
//! [`BusClock::Auto`] so heartbeats and session expiry follow wall time
//! with no external driver. Consumers can also **block** instead of
//! spinning: [`Consumer::poll_blocking`] parks on the bus's internal
//! wakeup path (a version counter + condvar signaled by every produce,
//! assignment change and expiry) until something observable happens.
//! Broker network latency is *not* modeled here — the `railgun-sim`
//! crate owns latency models and injects them where the benches measure
//! end-to-end time.
//!
//! ```
//! use railgun_messaging::{Consumer, MessageBus, Producer, StickyStrategy, TopicPartition};
//! use std::sync::Arc;
//!
//! let bus = MessageBus::with_defaults();
//! bus.create_topic("payments-card", 4, 1).unwrap();
//!
//! let producer = Producer::new(bus.clone());
//! producer.send("payments-card", b"card-42", b"event-bytes".to_vec()).unwrap();
//!
//! let mut consumer = Consumer::new(bus);
//! consumer.subscribe("railgun-active", &["payments-card"], vec![],
//!                    Arc::new(StickyStrategy)).unwrap();
//! let polled = consumer.poll(64).unwrap();
//! assert_eq!(polled.rebalanced.map(|a| a.len()), Some(4)); // sole member owns all
//! assert_eq!(polled.messages.len(), 1);
//! ```

pub mod assignment;
pub mod bus;
pub mod consumer;
pub mod log;
pub mod producer;
pub mod record;

pub use assignment::{
    moved_partitions, AssignmentContext, AssignmentStrategy, MemberId, MemberInfo,
    RoundRobinStrategy, StickyStrategy,
};
pub use bus::{BusClock, BusConfig, BusStats, MessageBus};
pub use consumer::{Consumer, PollResult};
pub use producer::{partition_for_key, BatchEntry, Producer};
pub use record::{Message, Record, TopicPartition};

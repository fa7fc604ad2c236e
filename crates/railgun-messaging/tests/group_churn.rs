//! Property tests for the consumer-group coordinator: under arbitrary
//! membership churn, the Kafka guarantees Railgun depends on (§3.3) must
//! hold at every generation.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use railgun_messaging::{
    Consumer, MessageBus, Producer, RoundRobinStrategy, StickyStrategy, TopicPartition,
};

/// A scripted churn step.
#[derive(Debug, Clone)]
enum Step {
    Join,
    Leave(usize),
    Produce(u16),
    PollAll,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            3 => Just(Step::Join),
            2 => (0usize..8).prop_map(Step::Leave),
            3 => any::<u16>().prop_map(Step::Produce),
            3 => Just(Step::PollAll),
        ],
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After any churn sequence: every partition has exactly one owner
    /// among live members, and every produced record is consumed **at
    /// least once** across the group (no loss). Duplicate delivery across
    /// a rebalance is legal — Kafka is at-least-once, and Railgun layers
    /// id-based dedup on top (§3.3); the test asserts the coverage set.
    /// The group commits no offsets, so a newly assigned partition is
    /// read again from offset 0.
    #[test]
    fn group_assignment_stays_complete_and_exclusive(
        steps in arb_steps(),
        partitions in 1u32..8,
        sticky in any::<bool>(),
    ) {
        let bus = MessageBus::with_defaults();
        bus.create_topic("t", partitions, 1).unwrap();
        let producer = Producer::new(bus.clone());
        let mut consumers: Vec<Consumer> = Vec::new();
        let strategy = || -> Arc<dyn railgun_messaging::AssignmentStrategy> {
            if sticky { Arc::new(StickyStrategy) } else { Arc::new(RoundRobinStrategy) }
        };
        // Start with one member.
        let mut c = Consumer::new(bus.clone());
        c.subscribe("g", &["t"], vec![], strategy()).unwrap();
        consumers.push(c);
        let mut produced: Vec<(TopicPartition, u64)> = Vec::new();
        let mut consumed: HashSet<(TopicPartition, u64)> = HashSet::new();

        let drain = |consumers: &mut Vec<Consumer>,
                         consumed: &mut HashSet<(TopicPartition, u64)>| {
            // Poll in rounds so everybody sees its new assignment first.
            for _ in 0..3 {
                for c in consumers.iter_mut() {
                    if let Ok(polled) = c.poll(1024) {
                        for m in &polled.messages {
                            consumed.insert((m.topic_partition(), m.offset));
                        }
                    }
                }
            }
        };

        for step in steps {
            match step {
                Step::Join => {
                    if consumers.len() < 8 {
                        let mut c = Consumer::new(bus.clone());
                        c.subscribe("g", &["t"], vec![], strategy()).unwrap();
                        consumers.push(c);
                    }
                }
                Step::Leave(i) => {
                    if consumers.len() > 1 {
                        let idx = i % consumers.len();
                        let mut gone = consumers.remove(idx);
                        // Drain before leaving: what it polled counts as
                        // consumed.
                        if let Ok(polled) = gone.poll(1024) {
                            for m in &polled.messages {
                                consumed.insert((m.topic_partition(), m.offset));
                            }
                        }
                        gone.unsubscribe();
                    }
                }
                Step::Produce(k) => {
                    let (tp, offset) = producer
                        .send("t", &k.to_le_bytes(), vec![1, 2, 3])
                        .unwrap();
                    produced.push((tp, offset));
                }
                Step::PollAll => drain(&mut consumers, &mut consumed),
            }
            // Invariant: the group's assignment covers every partition
            // exactly once across live members.
            let assignment = bus.group_assignment("g");
            let mut seen: HashSet<TopicPartition> = HashSet::new();
            for tps in assignment.values() {
                for tp in tps {
                    prop_assert!(seen.insert(tp.clone()), "{tp} owned twice");
                }
            }
            prop_assert_eq!(
                seen.len() as u32,
                partitions,
                "every partition must be owned"
            );
        }
        // Final drain: every produced record must have been delivered to
        // the group at least once (no loss).
        drain(&mut consumers, &mut consumed);
        drain(&mut consumers, &mut consumed);
        for rec in &produced {
            prop_assert!(consumed.contains(rec), "lost record {rec:?}");
        }
    }
}

//! Consumers: group-managed or manually-assigned offset readers.
//!
//! Group-managed consumers (`subscribe`) participate in the coordinator's
//! rebalance protocol: polling heartbeats, and the first poll after a new
//! generation surfaces the new assignment so the engine can react (Railgun
//! recovers/reassigns task processors at exactly that point, §4.2). A
//! newly assigned partition is read from offset 0 until the consumer
//! seeks: the group keeps no committed offsets, a task's position lives
//! in its checkpoint record.
//! Manually-assigned consumers (`assign`) read whatever they are told —
//! replica task consumers use this so several processors can follow the
//! same (topic, partition) (§3.3).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use railgun_types::{RailgunError, Result};

use crate::assignment::{AssignmentStrategy, MemberId, MemberInfo};
use crate::bus::{GroupMember, GroupState, MessageBus};
use crate::record::{Message, TopicPartition};

/// Result of one poll.
#[derive(Debug, Default)]
pub struct PollResult {
    /// Present when the group moved to a new generation since the last
    /// poll: the consumer's new assignment.
    pub rebalanced: Option<Vec<TopicPartition>>,
    /// Messages fetched this round.
    pub messages: Vec<Message>,
}

enum Mode {
    Unattached,
    Group { name: String },
    Manual,
}

/// A polling consumer.
pub struct Consumer {
    bus: MessageBus,
    id: MemberId,
    mode: Mode,
    /// The assigned partitions in fetch order, each with the next offset
    /// to fetch: the one record `assign`, `seek`, a rebalance and every
    /// poll read and write.
    assigned: Vec<Assigned>,
    /// Bus version observed by the last poll — the anchor
    /// [`Consumer::poll_blocking`] parks against so a produce between poll
    /// and park can never be missed.
    last_poll_version: u64,
}

impl Consumer {
    /// Create an unattached consumer; call [`Consumer::subscribe`] or
    /// [`Consumer::assign`] before polling.
    pub fn new(bus: MessageBus) -> Self {
        let id = {
            let mut inner = bus.inner.lock();
            let id = inner.next_member_id;
            inner.next_member_id += 1;
            id
        };
        Consumer {
            bus,
            id,
            mode: Mode::Unattached,
            assigned: Vec::new(),
            last_poll_version: 0,
        }
    }

    /// This consumer's member id.
    pub fn member_id(&self) -> MemberId {
        self.id
    }

    /// Join consumer group `group` subscribed to `topics`.
    ///
    /// `metadata` travels to the group's assignment strategy (Railgun puts
    /// node/processor locality there). `strategy` is installed if the group
    /// does not exist yet; later joiners inherit the group's strategy. A
    /// member that subscribes again (to a new topic list) keeps its
    /// assignment, which the strategy sees as the member's previous one.
    pub fn subscribe(
        &mut self,
        group: &str,
        topics: &[&str],
        metadata: Vec<u8>,
        strategy: std::sync::Arc<dyn AssignmentStrategy>,
    ) -> Result<()> {
        let mut inner = self.bus.inner.lock();
        let now = inner.now_ms;
        let g = inner
            .groups
            .entry(group.to_owned())
            .or_insert_with(|| GroupState {
                members: HashMap::new(),
                strategy,
                generation: 0,
                needs_rebalance: false,
            });
        let m = g.members.entry(self.id).or_insert_with(|| GroupMember {
            info: MemberInfo {
                id: self.id,
                metadata: Vec::new(),
                previous: Vec::new(),
            },
            last_heartbeat_ms: now,
            topics: Vec::new(),
            assignment: Vec::new(),
            seen_generation: 0,
        });
        m.info.metadata = metadata;
        m.last_heartbeat_ms = now;
        m.topics = topics.iter().map(|s| (*s).to_owned()).collect();
        g.needs_rebalance = true;
        MessageBus::run_pending_rebalances(&mut inner);
        MessageBus::bump(&mut inner);
        drop(inner);
        self.bus.wakeup.notify_all();
        self.mode = Mode::Group {
            name: group.to_owned(),
        };
        self.assigned.clear();
        Ok(())
    }

    /// Leave the group gracefully (triggers an immediate rebalance).
    pub fn unsubscribe(&mut self) {
        if let Mode::Group { name } = &self.mode {
            let mut inner = self.bus.inner.lock();
            if let Some(g) = inner.groups.get_mut(name) {
                if g.members.remove(&self.id).is_some() {
                    g.needs_rebalance = true;
                }
            }
            MessageBus::run_pending_rebalances(&mut inner);
            MessageBus::bump(&mut inner);
            drop(inner);
            self.bus.wakeup.notify_all();
        }
        self.mode = Mode::Unattached;
        self.assigned.clear();
    }

    /// Manually assign partitions (no group management).
    /// Partitions kept across calls keep their position; new ones start
    /// at offset 0.
    pub fn assign(&mut self, partitions: Vec<TopicPartition>) {
        self.mode = Mode::Manual;
        reassign(&mut self.assigned, partitions);
    }

    /// Reposition consumption of the assigned partition `tp` to `offset`.
    pub fn seek(&mut self, tp: &TopicPartition, offset: u64) {
        if let Some(a) = self.assigned.iter_mut().find(|a| a.tp == *tp) {
            a.next = offset;
        }
    }

    /// Current consumption position of `tp`, if it is assigned.
    pub fn position(&self, tp: &TopicPartition) -> Option<u64> {
        position_in(&self.assigned, tp)
    }

    /// Poll for messages (up to `max_records`), heartbeat, and pick up any
    /// new assignment generation.
    pub fn poll(&mut self, max_records: usize) -> Result<PollResult> {
        let mut result = PollResult::default();
        result.rebalanced = self.poll_into(max_records, &mut result.messages)?;
        Ok(result)
    }

    /// Like [`Consumer::poll`], but appends fetched messages to `out`
    /// (which the caller typically reuses across polls) instead of
    /// allocating a fresh `Vec` on every call — the processor-unit pump
    /// loop's hot path. Returns the new assignment if the group moved to a
    /// new generation since the last poll.
    pub fn poll_into(
        &mut self,
        max_records: usize,
        out: &mut Vec<Message>,
    ) -> Result<Option<Vec<TopicPartition>>> {
        let mut rebalanced = None;
        let mut inner = self.bus.inner.lock();
        // If refresh expels someone, parked peers are woken after the lock
        // drops (every exit path below funnels through that notify).
        let expired = MessageBus::refresh_clock_locked(&mut inner);
        let now = inner.now_ms;
        let outcome = 'poll: {
            if let Mode::Group { name } = &self.mode {
                let Some(g) = inner.groups.get_mut(name) else {
                    break 'poll Err(RailgunError::Messaging(format!(
                        "group `{name}` vanished"
                    )));
                };
                let generation = g.generation;
                let Some(m) = g.members.get_mut(&self.id) else {
                    // Expelled (heartbeat timeout). Rejoin with empty state.
                    break 'poll Err(RailgunError::Messaging(format!(
                        "consumer {} expelled from group `{name}`",
                        self.id
                    )));
                };
                m.last_heartbeat_ms = now;
                if m.seen_generation != generation {
                    m.seen_generation = generation;
                    let assignment = m.assignment.clone();
                    // Keep positions of retained partitions; new ones start
                    // at 0 until the owner seeks.
                    reassign(&mut self.assigned, assignment.clone());
                    rebalanced = Some(assignment);
                }
            }
            // Fetch round-robin across assigned partitions.
            let mut remaining = max_records;
            for a in &mut self.assigned {
                if remaining == 0 {
                    break;
                }
                let Some(log) = inner
                    .topics
                    .get(&a.tp.topic)
                    .and_then(|t| t.partitions.get(a.tp.partition as usize))
                else {
                    continue;
                };
                let records = log.read_from(a.next, remaining);
                let Some(last) = records.last() else {
                    continue;
                };
                a.next = last.offset + 1;
                remaining -= records.len();
                out.extend(records.iter().map(|r| Message {
                    topic: Arc::clone(&a.topic),
                    partition: a.tp.partition,
                    offset: r.offset,
                    key: r.key.clone(),
                    payload: r.payload.clone(),
                }));
            }
            inner.stats.records_consumed += (max_records - remaining) as u64;
            self.last_poll_version = inner.version;
            Ok(rebalanced)
        };
        drop(inner);
        if expired {
            self.bus.wakeup.notify_all();
        }
        outcome
    }

    /// Poll, parking on the bus wakeup path when nothing is available:
    /// returns as soon as messages or a new assignment arrive, or with an
    /// empty result after `timeout`. While parked the consumer still wakes
    /// at a heartbeat interval (a quarter of the session timeout) so group
    /// membership cannot lapse, and under [`crate::BusClock::Auto`] those
    /// wakes also drive session expiry.
    pub fn poll_blocking(&mut self, max_records: usize, timeout: Duration) -> Result<PollResult> {
        let deadline = Instant::now() + timeout;
        let heartbeat = Duration::from_millis(
            (self.bus.session_timeout_ms() / 4).clamp(1, 1_000),
        );
        loop {
            let result = self.poll(max_records)?;
            if !result.messages.is_empty() || result.rebalanced.is_some() {
                return Ok(result);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(result);
            }
            let wait = (deadline - now).min(heartbeat);
            self.bus.wait_for_activity(self.last_poll_version, wait);
        }
    }
}

/// One assigned partition.
struct Assigned {
    tp: TopicPartition,
    /// The topic's name, shared by every message fetched from `tp`.
    topic: Arc<str>,
    /// The next offset to fetch.
    next: u64,
}

/// Position of `tp` in an assignment table.
fn position_in(assigned: &[Assigned], tp: &TopicPartition) -> Option<u64> {
    assigned.iter().find(|a| a.tp == *tp).map(|a| a.next)
}

/// Replace an assignment table with `partitions` (in their order): a
/// partition already assigned keeps its position, a new one starts at 0.
fn reassign(assigned: &mut Vec<Assigned>, partitions: Vec<TopicPartition>) {
    *assigned = partitions
        .into_iter()
        .map(|tp| Assigned {
            next: position_in(assigned, &tp).unwrap_or(0),
            topic: Arc::from(tp.topic.as_str()),
            tp,
        })
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{RoundRobinStrategy, StickyStrategy};
    use crate::producer::Producer;
    use std::sync::Arc;

    fn bus_with_topic(parts: u32) -> (MessageBus, Producer) {
        let bus = MessageBus::with_defaults();
        bus.create_topic("events", parts, 1).unwrap();
        let p = Producer::new(bus.clone());
        (bus, p)
    }

    #[test]
    fn manual_assignment_reads_from_zero() {
        let (bus, p) = bus_with_topic(1);
        for i in 0..5u8 {
            p.send("events", b"k", vec![i]).unwrap();
        }
        let mut c = Consumer::new(bus);
        c.assign(vec![TopicPartition::new("events", 0)]);
        let r = c.poll(100).unwrap();
        assert_eq!(r.messages.len(), 5);
        assert!(r.rebalanced.is_none());
        // Subsequent poll sees nothing new.
        assert!(c.poll(100).unwrap().messages.is_empty());
    }

    #[test]
    fn poll_respects_max_records() {
        let (bus, p) = bus_with_topic(1);
        for i in 0..10u8 {
            p.send("events", b"k", vec![i]).unwrap();
        }
        let mut c = Consumer::new(bus);
        c.assign(vec![TopicPartition::new("events", 0)]);
        assert_eq!(c.poll(4).unwrap().messages.len(), 4);
        assert_eq!(c.poll(100).unwrap().messages.len(), 6);
    }

    #[test]
    fn seek_replays_history() {
        let (bus, p) = bus_with_topic(1);
        for i in 0..5u8 {
            p.send("events", b"k", vec![i]).unwrap();
        }
        let mut c = Consumer::new(bus);
        let tp = TopicPartition::new("events", 0);
        c.assign(vec![tp.clone()]);
        assert_eq!(c.poll(100).unwrap().messages.len(), 5);
        c.seek(&tp, 2);
        let r = c.poll(100).unwrap();
        assert_eq!(r.messages.len(), 3);
        assert_eq!(r.messages[0].offset, 2);
    }

    #[test]
    fn group_splits_partitions_exclusively() {
        let (bus, p) = bus_with_topic(4);
        for i in 0..100u32 {
            p.send("events", format!("k{i}").as_bytes(), vec![]).unwrap();
        }
        let mut c1 = Consumer::new(bus.clone());
        let mut c2 = Consumer::new(bus.clone());
        c1.subscribe("g", &["events"], vec![], Arc::new(RoundRobinStrategy))
            .unwrap();
        c2.subscribe("g", &["events"], vec![], Arc::new(RoundRobinStrategy))
            .unwrap();
        let r1 = c1.poll(1000).unwrap();
        let r2 = c2.poll(1000).unwrap();
        let a1 = r1.rebalanced.unwrap();
        let a2 = r2.rebalanced.unwrap();
        assert_eq!(a1.len() + a2.len(), 4);
        assert!(a1.iter().all(|tp| !a2.contains(tp)), "no overlap allowed");
        assert_eq!(r1.messages.len() + r2.messages.len(), 100);
    }

    #[test]
    fn member_leave_triggers_rebalance_and_takeover() {
        let (bus, p) = bus_with_topic(2);
        let mut c1 = Consumer::new(bus.clone());
        let mut c2 = Consumer::new(bus.clone());
        c1.subscribe("g", &["events"], vec![], Arc::new(StickyStrategy))
            .unwrap();
        c2.subscribe("g", &["events"], vec![], Arc::new(StickyStrategy))
            .unwrap();
        c1.poll(10).unwrap();
        c2.poll(10).unwrap();
        let gen_before = bus.group_generation("g");
        c2.unsubscribe();
        for i in 0..10u8 {
            p.send("events", &[i], vec![i]).unwrap();
        }
        let r1 = c1.poll(100).unwrap();
        assert!(bus.group_generation("g") > gen_before);
        assert_eq!(r1.rebalanced.as_ref().map(Vec::len), Some(2));
        assert_eq!(r1.messages.len(), 10, "survivor consumes everything");
    }

    #[test]
    fn heartbeat_timeout_expels_member() {
        let bus = MessageBus::new(crate::bus::BusConfig {
            session_timeout_ms: 1_000,
            ..Default::default()
        });
        bus.create_topic("events", 2, 1).unwrap();
        let mut c1 = Consumer::new(bus.clone());
        let mut c2 = Consumer::new(bus.clone());
        c1.subscribe("g", &["events"], vec![], Arc::new(StickyStrategy))
            .unwrap();
        c2.subscribe("g", &["events"], vec![], Arc::new(StickyStrategy))
            .unwrap();
        c1.poll(1).unwrap();
        c2.poll(1).unwrap();
        // c2 goes silent; c1 keeps heartbeating.
        bus.advance_to(600);
        c1.poll(1).unwrap();
        bus.advance_to(1_400); // c2's last heartbeat (t=0) is now stale
        let r1 = c1.poll(10).unwrap();
        assert_eq!(
            r1.rebalanced.map(|a| a.len()),
            Some(2),
            "survivor owns all partitions after expulsion"
        );
        // The dead consumer's next poll errors (it was expelled).
        assert!(c2.poll(10).is_err());
    }

    #[test]
    fn replicas_follow_same_partition_in_different_groups() {
        // Paper §3.3: replica consumers use distinct groups so multiple
        // processors can consume the same (topic, partition) — here modeled
        // with manual assignment, plus one active group consumer.
        let (bus, p) = bus_with_topic(1);
        let tp = TopicPartition::new("events", 0);
        let mut active = Consumer::new(bus.clone());
        active
            .subscribe("railgun-active", &["events"], vec![], Arc::new(StickyStrategy))
            .unwrap();
        let mut replica1 = Consumer::new(bus.clone());
        replica1.assign(vec![tp.clone()]);
        let mut replica2 = Consumer::new(bus.clone());
        replica2.assign(vec![tp.clone()]);
        for i in 0..5u8 {
            p.send("events", b"k", vec![i]).unwrap();
        }
        let a = active.poll(100).unwrap().messages;
        let r1 = replica1.poll(100).unwrap().messages;
        let r2 = replica2.poll(100).unwrap().messages;
        assert_eq!(a.len(), 5);
        // All copies see the same records in the same order (consistency of
        // replicas, §4.2).
        assert_eq!(a, r1);
        assert_eq!(r1, r2);
    }

    #[test]
    fn unattached_consumer_polls_nothing() {
        let (bus, p) = bus_with_topic(1);
        p.send("events", b"k", vec![1]).unwrap();
        let mut c = Consumer::new(bus);
        assert!(c.poll(10).unwrap().messages.is_empty());
    }

    #[test]
    fn poll_into_reuses_scratch_and_matches_poll() {
        let (bus, p) = bus_with_topic(2);
        for i in 0..10u8 {
            p.send("events", &[i], vec![i]).unwrap();
        }
        let mut c = Consumer::new(bus.clone());
        c.assign(vec![
            TopicPartition::new("events", 0),
            TopicPartition::new("events", 1),
        ]);
        let mut scratch = Vec::new();
        assert!(c.poll_into(4, &mut scratch).unwrap().is_none());
        assert_eq!(scratch.len(), 4);
        let cap = scratch.capacity();
        scratch.clear();
        assert!(c.poll_into(100, &mut scratch).unwrap().is_none());
        assert_eq!(scratch.len(), 6, "resumes where the first poll stopped");
        assert!(scratch.capacity() >= cap, "buffer reused, not reallocated away");
        scratch.clear();
        c.poll_into(100, &mut scratch).unwrap();
        assert!(scratch.is_empty());
    }

    #[test]
    fn poll_blocking_wakes_on_produce() {
        let (bus, p) = bus_with_topic(1);
        let mut c = Consumer::new(bus.clone());
        c.assign(vec![TopicPartition::new("events", 0)]);
        assert!(c.poll(10).unwrap().messages.is_empty());
        let producer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            p.send("events", b"k", vec![7]).unwrap();
        });
        let start = std::time::Instant::now();
        let r = c
            .poll_blocking(10, std::time::Duration::from_secs(10))
            .unwrap();
        producer.join().unwrap();
        assert_eq!(r.messages.len(), 1);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "woken by the produce, not the timeout"
        );
    }

    #[test]
    fn poll_blocking_times_out_empty() {
        let (bus, _p) = bus_with_topic(1);
        let mut c = Consumer::new(bus);
        c.assign(vec![TopicPartition::new("events", 0)]);
        let start = std::time::Instant::now();
        let r = c
            .poll_blocking(10, std::time::Duration::from_millis(25))
            .unwrap();
        assert!(r.messages.is_empty());
        assert!(start.elapsed() >= std::time::Duration::from_millis(20));
    }

    #[test]
    fn poll_blocking_returns_on_rebalance() {
        let (bus, _p) = bus_with_topic(2);
        let mut c1 = Consumer::new(bus.clone());
        c1.subscribe("g", &["events"], vec![], Arc::new(StickyStrategy))
            .unwrap();
        c1.poll(1).unwrap();
        let joiner = {
            let bus = bus.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                let mut c2 = Consumer::new(bus);
                c2.subscribe("g", &["events"], vec![], Arc::new(StickyStrategy))
                    .unwrap();
                c2
            })
        };
        let r = c1
            .poll_blocking(10, std::time::Duration::from_secs(10))
            .unwrap();
        let _c2 = joiner.join().unwrap();
        assert!(r.rebalanced.is_some(), "woken by the generation change");
    }
}

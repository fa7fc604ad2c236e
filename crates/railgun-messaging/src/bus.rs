//! The in-process message bus: topics, partitions, and group coordination.
//!
//! This is the reproduction's stand-in for a Kafka broker cluster (§3.3,
//! DESIGN.md substitution #1). It provides exactly the abstractions Railgun
//! exploits:
//!
//! * partitioned topics with **pull-based, offset-addressed consumption**
//!   (rewind & replay for recovery);
//! * **key-hash routing** so one entity always lands in one partition;
//! * **consumer groups** with heartbeats, liveness expiry, generations and
//!   a pluggable assignment strategy — exactly one active consumer per
//!   (topic, partition) per group. A group records who holds each
//!   partition (the strategy sees it as each member's previous
//!   assignment), not how far its owner has read: a group commits no
//!   offsets, and a newly assigned partition is read from offset 0 until
//!   its owner seeks (Railgun seeks each task to its checkpoint's offset);
//! * **manual assignment** outside any group (used by replica consumers,
//!   which by design all subscribe to the same partitions, §4.2).
//!
//! Time is logical by default: the harness advances the bus clock
//! explicitly with [`MessageBus::advance_to`], which makes failure
//! detection deterministic in tests and lets the simulation drive
//! everything from virtual time. The threaded runtime instead builds the
//! bus with [`BusClock::Auto`], where the clock follows wall time so
//! heartbeats and session expiry work without an external driver. The
//! mode is fixed when the bus is built.
//!
//! The bus also carries a blocking wakeup path for worker threads: every
//! mutation that could unblock a consumer (produce, assignment change,
//! topic change, member expiry) bumps an internal version counter and
//! signals a [`std::sync::Condvar`], so parked workers
//! ([`crate::Consumer::poll_blocking`], [`MessageBus::wait_for_activity`])
//! wake immediately instead of spinning.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use railgun_types::{RailgunError, Result};

use crate::assignment::{
    AssignmentContext, AssignmentStrategy, MemberId, MemberInfo,
};
use crate::log::PartitionLog;
use crate::record::TopicPartition;

/// How the bus clock advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BusClock {
    /// Logical time, driven explicitly by [`MessageBus::advance_to`]
    /// (deterministic tests, discrete-event simulation).
    #[default]
    Manual,
    /// Wall-clock time: `now_ms` follows a monotonic `Instant` anchored
    /// when the bus was built, and every clock read runs heartbeat
    /// expiry. Used by the threaded runtime where no harness pumps time.
    Auto,
}

/// Bus-wide configuration.
#[derive(Debug, Clone)]
pub struct BusConfig {
    /// Expel a group member if it has not heartbeated for this long.
    pub session_timeout_ms: u64,
    /// Clock mode of the bus, for its whole life.
    pub clock: BusClock,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig {
            session_timeout_ms: 10_000,
            clock: BusClock::Manual,
        }
    }
}

/// Counters for benches and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    pub records_produced: u64,
    pub bytes_produced: u64,
    pub records_consumed: u64,
    /// Multi-record [`crate::Producer::send_batch`] calls — each covered
    /// N records with one lock acquisition and one wakeup.
    pub batches_produced: u64,
    pub rebalances: u64,
}

pub(crate) struct TopicState {
    pub partitions: Vec<PartitionLog>,
    /// Declared replication factor — recorded for fidelity with the paper's
    /// deployment (replication 3 in production, 1 in the small benches);
    /// the in-process broker does not lose data so it is informational.
    pub replication: u32,
}

pub(crate) struct GroupMember {
    pub info: MemberInfo,
    pub last_heartbeat_ms: u64,
    pub topics: Vec<String>,
    /// Assignment for the current generation.
    pub assignment: Vec<TopicPartition>,
    /// Generation the member has acknowledged (via poll).
    pub seen_generation: u64,
}

pub(crate) struct GroupState {
    pub members: HashMap<MemberId, GroupMember>,
    pub strategy: Arc<dyn AssignmentStrategy>,
    pub generation: u64,
    pub needs_rebalance: bool,
}

pub(crate) struct BusInner {
    pub topics: HashMap<String, TopicState>,
    pub groups: HashMap<String, GroupState>,
    pub now_ms: u64,
    pub next_member_id: MemberId,
    pub stats: BusStats,
    pub config: BusConfig,
    /// Bumped on every mutation that could unblock a consumer; waiters
    /// compare against the value they observed to avoid missed wakeups.
    pub version: u64,
    /// Under [`BusClock::Auto`], when the bus was built: `now_ms` is the
    /// wall time elapsed since.
    pub auto_epoch: Option<Instant>,
}

/// Handle to the shared in-process bus. Cheap to clone.
#[derive(Clone)]
pub struct MessageBus {
    pub(crate) inner: Arc<Mutex<BusInner>>,
    /// Signaled (with `inner`'s mutex) whenever `inner.version` changes.
    pub(crate) wakeup: Arc<std::sync::Condvar>,
}

impl MessageBus {
    /// Create a bus with the given configuration.
    pub fn new(config: BusConfig) -> Self {
        let auto_epoch = (config.clock == BusClock::Auto).then(Instant::now);
        MessageBus {
            inner: Arc::new(Mutex::new(BusInner {
                topics: HashMap::new(),
                groups: HashMap::new(),
                now_ms: 0,
                next_member_id: 1,
                stats: BusStats::default(),
                config,
                version: 0,
                auto_epoch,
            })),
            wakeup: Arc::new(std::sync::Condvar::new()),
        }
    }

    /// Create a bus with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(BusConfig::default())
    }

    /// Create `partitions` partitions under `topic`.
    pub fn create_topic(&self, topic: &str, partitions: u32, replication: u32) -> Result<()> {
        let mut inner = self.inner.lock();
        if inner.topics.contains_key(topic) {
            return Err(RailgunError::InvalidArgument(format!(
                "topic `{topic}` already exists"
            )));
        }
        if partitions == 0 {
            return Err(RailgunError::InvalidArgument(
                "topics need at least one partition".into(),
            ));
        }
        inner.topics.insert(
            topic.to_owned(),
            TopicState {
                partitions: (0..partitions).map(|_| PartitionLog::new()).collect(),
                replication,
            },
        );
        // Topic changes trigger rebalances for groups subscribed to it —
        // run them now rather than leaving the flag for the next
        // membership event, so subscribed consumers see the new
        // partitions on their very next poll (rebalance-detection latency
        // is part of the elastic-membership downtime budget).
        for g in inner.groups.values_mut() {
            if g.members.values().any(|m| m.topics.iter().any(|t| t == topic)) {
                g.needs_rebalance = true;
            }
        }
        Self::run_pending_rebalances(&mut inner);
        Self::bump(&mut inner);
        drop(inner);
        self.wakeup.notify_all();
        Ok(())
    }

    /// Delete a topic (streams removed by the client, §3.1).
    pub fn delete_topic(&self, topic: &str) -> Result<()> {
        let mut inner = self.inner.lock();
        inner
            .topics
            .remove(topic)
            .ok_or_else(|| RailgunError::NotFound(format!("topic `{topic}`")))?;
        for g in inner.groups.values_mut() {
            g.needs_rebalance = true;
        }
        // As with create_topic: rebalance immediately so stale assignments
        // to the deleted topic do not linger until the next join/leave.
        Self::run_pending_rebalances(&mut inner);
        Self::bump(&mut inner);
        drop(inner);
        self.wakeup.notify_all();
        Ok(())
    }

    /// Names of all topics.
    pub fn topics(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.lock().topics.keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of partitions of `topic`.
    pub fn partition_count(&self, topic: &str) -> Result<u32> {
        let inner = self.inner.lock();
        inner
            .topics
            .get(topic)
            .map(|t| t.partitions.len() as u32)
            .ok_or_else(|| RailgunError::NotFound(format!("topic `{topic}`")))
    }

    /// Declared replication factor of `topic` (§3.3 — informational in the
    /// in-process broker, which does not lose data).
    pub fn replication_factor(&self, topic: &str) -> Result<u32> {
        let inner = self.inner.lock();
        inner
            .topics
            .get(topic)
            .map(|t| t.replication)
            .ok_or_else(|| RailgunError::NotFound(format!("topic `{topic}`")))
    }

    /// Advance the logical clock; expels members whose heartbeats expired
    /// and recomputes assignments for affected groups.
    ///
    /// The clock is **monotonic**: a `now_ms` at or before the current
    /// time is ignored, so a misbehaving driver can never rewind liveness
    /// deadlines (a member heartbeated at t=100 must not be judged against
    /// a clock that moved back to t=50).
    pub fn advance_to(&self, now_ms: u64) {
        let mut inner = self.inner.lock();
        if now_ms <= inner.now_ms {
            return;
        }
        let expired = Self::advance_locked(&mut inner, now_ms);
        if expired {
            // Assignment changed — wake parked consumers so they pick up
            // the new generation promptly.
            Self::bump(&mut inner);
            drop(inner);
            self.wakeup.notify_all();
        }
    }

    /// Move the (already-validated, strictly larger) clock forward and run
    /// heartbeat expiry. Returns true iff any member was expelled.
    pub(crate) fn advance_locked(inner: &mut BusInner, now_ms: u64) -> bool {
        debug_assert!(now_ms > inner.now_ms);
        inner.now_ms = now_ms;
        let timeout = inner.config.session_timeout_ms;
        let mut any_expired = false;
        for g in inner.groups.values_mut() {
            let before = g.members.len();
            g.members
                .retain(|_, m| now_ms.saturating_sub(m.last_heartbeat_ms) <= timeout);
            if g.members.len() != before {
                g.needs_rebalance = true;
                any_expired = true;
            }
        }
        if any_expired {
            Self::run_pending_rebalances(inner);
        }
        any_expired
    }

    /// In [`BusClock::Auto`], pull `now_ms` up to wall time (monotonic) and
    /// run heartbeat expiry; no-op under [`BusClock::Manual`]. Returns true
    /// iff any member was expelled (callers should then notify waiters).
    pub(crate) fn refresh_clock_locked(inner: &mut BusInner) -> bool {
        let Some(epoch) = inner.auto_epoch else {
            return false;
        };
        let wall_ms = epoch.elapsed().as_millis() as u64;
        if wall_ms > inner.now_ms {
            let expired = Self::advance_locked(inner, wall_ms);
            if expired {
                Self::bump(inner);
            }
            expired
        } else {
            false
        }
    }

    /// Bump the bus version (call with the lock held before waking).
    pub(crate) fn bump(inner: &mut BusInner) {
        inner.version = inner.version.wrapping_add(1);
    }

    /// Configured session timeout.
    pub fn session_timeout_ms(&self) -> u64 {
        self.inner.lock().config.session_timeout_ms
    }

    /// Current bus version: changes whenever anything a consumer could
    /// observe changed (produce, assignment, topics, expiry).
    pub fn version(&self) -> u64 {
        let mut inner = self.inner.lock();
        let expired = Self::refresh_clock_locked(&mut inner);
        let v = inner.version;
        drop(inner);
        if expired {
            self.wakeup.notify_all();
        }
        v
    }

    /// Bump the version and wake every parked consumer (used by runtimes
    /// to broadcast a stop signal through the blocking poll path).
    pub fn wake_all(&self) {
        let mut inner = self.inner.lock();
        Self::bump(&mut inner);
        drop(inner);
        self.wakeup.notify_all();
    }

    /// Park the caller until the bus version moves past `seen` or `timeout`
    /// elapses; returns the current version. Spurious wakeups are possible
    /// (callers re-poll regardless). In [`BusClock::Auto`] the clock is
    /// refreshed on both edges so expiry keeps running while workers park.
    pub fn wait_for_activity(&self, seen: u64, timeout: Duration) -> u64 {
        let mut inner = self.inner.lock();
        let mut expired = Self::refresh_clock_locked(&mut inner);
        let mut v = inner.version;
        if v == seen && !expired {
            let (mut guard, _timed_out) = match self.wakeup.wait_timeout(inner, timeout) {
                Ok(pair) => pair,
                Err(poisoned) => poisoned.into_inner(),
            };
            expired = Self::refresh_clock_locked(&mut guard);
            v = guard.version;
            drop(guard);
        } else {
            drop(inner);
        }
        if expired {
            self.wakeup.notify_all();
        }
        v
    }

    /// Current logical time (refreshed first under [`BusClock::Auto`]).
    pub fn now_ms(&self) -> u64 {
        let mut inner = self.inner.lock();
        let expired = Self::refresh_clock_locked(&mut inner);
        let now = inner.now_ms;
        drop(inner);
        if expired {
            self.wakeup.notify_all();
        }
        now
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> BusStats {
        self.inner.lock().stats
    }

    /// The current generation of `group` (0 if unknown).
    pub fn group_generation(&self, group: &str) -> u64 {
        self.inner
            .lock()
            .groups
            .get(group)
            .map(|g| g.generation)
            .unwrap_or(0)
    }

    /// The full current assignment of `group`, by member.
    pub fn group_assignment(&self, group: &str) -> HashMap<MemberId, Vec<TopicPartition>> {
        self.inner
            .lock()
            .groups
            .get(group)
            .map(|g| {
                g.members
                    .iter()
                    .map(|(id, m)| (*id, m.assignment.clone()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Truncate a partition's log below `offset` (retention management).
    pub fn truncate_partition(&self, tp: &TopicPartition, offset: u64) -> Result<()> {
        let mut inner = self.inner.lock();
        let topic = inner
            .topics
            .get_mut(&tp.topic)
            .ok_or_else(|| RailgunError::NotFound(format!("topic `{}`", tp.topic)))?;
        let log = topic
            .partitions
            .get_mut(tp.partition as usize)
            .ok_or_else(|| RailgunError::NotFound(format!("partition {tp}")))?;
        log.truncate_before(offset);
        Ok(())
    }

    /// End offset (next to be written) of a partition.
    pub fn end_offset(&self, tp: &TopicPartition) -> Result<u64> {
        let inner = self.inner.lock();
        let topic = inner
            .topics
            .get(&tp.topic)
            .ok_or_else(|| RailgunError::NotFound(format!("topic `{}`", tp.topic)))?;
        topic
            .partitions
            .get(tp.partition as usize)
            .map(PartitionLog::end_offset)
            .ok_or_else(|| RailgunError::NotFound(format!("partition {tp}")))
    }

    /// Recompute assignments for every group flagged for rebalance.
    pub(crate) fn run_pending_rebalances(inner: &mut BusInner) {
        // Collect topic partition lists first (borrow split).
        let topic_parts: HashMap<String, u32> = inner
            .topics
            .iter()
            .map(|(name, t)| (name.clone(), t.partitions.len() as u32))
            .collect();
        for g in inner.groups.values_mut() {
            if !g.needs_rebalance {
                continue;
            }
            g.needs_rebalance = false;
            g.generation += 1;
            inner.stats.rebalances += 1;
            // Union of subscribed topics across members.
            let mut partitions: Vec<TopicPartition> = Vec::new();
            let mut topics: Vec<&String> = g
                .members
                .values()
                .flat_map(|m| m.topics.iter())
                .collect();
            topics.sort();
            topics.dedup();
            for t in topics {
                if let Some(&n) = topic_parts.get(t.as_str()) {
                    for p in 0..n {
                        partitions.push(TopicPartition::new(t.clone(), p));
                    }
                }
            }
            partitions.sort();
            let mut members: Vec<MemberInfo> = g
                .members
                .values()
                .map(|m| MemberInfo {
                    id: m.info.id,
                    metadata: m.info.metadata.clone(),
                    previous: m.assignment.clone(),
                })
                .collect();
            members.sort_by_key(|m| m.id);
            let ctx = AssignmentContext {
                members,
                partitions: partitions.clone(),
            };
            let assignment = g.strategy.assign(&ctx);
            // Verify the strategy's contract: each partition exactly once.
            let mut seen = std::collections::HashSet::new();
            let valid = assignment
                .values()
                .flatten()
                .all(|tp| seen.insert(tp.clone()))
                && seen.len() == partitions.len();
            debug_assert!(valid, "strategy produced an invalid assignment");
            for m in g.members.values_mut() {
                m.assignment = assignment.get(&m.info.id).cloned().unwrap_or_default();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_lifecycle() {
        let bus = MessageBus::with_defaults();
        bus.create_topic("card", 4, 1).unwrap();
        assert!(bus.create_topic("card", 4, 1).is_err());
        assert!(bus.create_topic("bad", 0, 1).is_err());
        assert_eq!(bus.partition_count("card").unwrap(), 4);
        assert_eq!(bus.replication_factor("card").unwrap(), 1);
        assert_eq!(bus.topics(), vec!["card".to_string()]);
        bus.delete_topic("card").unwrap();
        assert!(bus.delete_topic("card").is_err());
        assert!(bus.partition_count("card").is_err());
    }

    #[test]
    fn clock_is_monotonic() {
        let bus = MessageBus::with_defaults();
        bus.advance_to(100);
        bus.advance_to(50); // ignored
        assert_eq!(bus.now_ms(), 100);
    }

    #[test]
    fn regressing_clock_does_not_rewind_liveness_deadlines() {
        // A clock driven backwards must not expel members whose heartbeats
        // are fresh relative to the *real* (monotonic) clock, nor extend
        // the life of stale ones.
        use crate::assignment::StickyStrategy;
        use crate::consumer::Consumer;
        let bus = MessageBus::new(BusConfig {
            session_timeout_ms: 1_000,
            ..BusConfig::default()
        });
        bus.create_topic("t", 2, 1).unwrap();
        let mut c1 = Consumer::new(bus.clone());
        let mut c2 = Consumer::new(bus.clone());
        c1.subscribe("g", &["t"], vec![], std::sync::Arc::new(StickyStrategy))
            .unwrap();
        c2.subscribe("g", &["t"], vec![], std::sync::Arc::new(StickyStrategy))
            .unwrap();
        bus.advance_to(800);
        c1.poll(1).unwrap(); // c1 fresh at t=800; c2 last heartbeated at t=0
        bus.advance_to(100); // regress: ignored, deadlines unchanged
        assert_eq!(bus.now_ms(), 800);
        assert_eq!(bus.group_assignment("g").len(), 2, "nobody expelled yet");
        // t=1200: c2 (last heartbeat 0) is stale, c1 (800) is alive. Were
        // the regress honored, now-last_heartbeat would underflow/clamp and
        // c2 would survive.
        bus.advance_to(1_200);
        let members = bus.group_assignment("g");
        assert_eq!(members.len(), 1, "stale member expelled");
        assert!(members.contains_key(&c1.member_id()));
    }

    #[test]
    fn version_changes_on_produce_and_topic_changes() {
        let bus = MessageBus::with_defaults();
        let v0 = bus.version();
        bus.create_topic("t", 1, 1).unwrap();
        let v1 = bus.version();
        assert_ne!(v0, v1);
        let producer = crate::producer::Producer::new(bus.clone());
        producer.send("t", b"k", b"v".to_vec()).unwrap();
        let v2 = bus.version();
        assert_ne!(v1, v2);
        bus.delete_topic("t").unwrap();
        assert_ne!(v2, bus.version());
    }

    #[test]
    fn wait_for_activity_wakes_on_produce() {
        let bus = MessageBus::with_defaults();
        bus.create_topic("t", 1, 1).unwrap();
        let seen = bus.version();
        let waiter = {
            let bus = bus.clone();
            std::thread::spawn(move || {
                let start = Instant::now();
                bus.wait_for_activity(seen, Duration::from_secs(10));
                start.elapsed()
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        crate::producer::Producer::new(bus.clone())
            .send("t", b"k", b"v".to_vec())
            .unwrap();
        let waited = waiter.join().unwrap();
        assert!(
            waited < Duration::from_secs(5),
            "waiter should be woken by the produce, waited {waited:?}"
        );
    }

    #[test]
    fn wait_for_activity_respects_timeout() {
        let bus = MessageBus::with_defaults();
        let seen = bus.version();
        let start = Instant::now();
        let v = bus.wait_for_activity(seen, Duration::from_millis(20));
        assert!(start.elapsed() >= Duration::from_millis(10));
        assert_eq!(v, seen, "nothing happened");
    }

    #[test]
    fn auto_clock_advances_and_expels_without_advance_to() {
        use crate::assignment::StickyStrategy;
        use crate::consumer::Consumer;
        let bus = MessageBus::new(BusConfig {
            session_timeout_ms: 40,
            clock: BusClock::Auto,
        });
        bus.create_topic("t", 2, 1).unwrap();
        let mut c1 = Consumer::new(bus.clone());
        let mut c2 = Consumer::new(bus.clone());
        c1.subscribe("g", &["t"], vec![], std::sync::Arc::new(StickyStrategy))
            .unwrap();
        c2.subscribe("g", &["t"], vec![], std::sync::Arc::new(StickyStrategy))
            .unwrap();
        c1.poll(1).unwrap();
        c2.poll(1).unwrap();
        let t0 = bus.now_ms();
        // c2 goes silent; keep c1 heartbeating past the session timeout.
        // One of these polls observes the expiry-driven rebalance.
        let mut takeover = None;
        for _ in 0..8 {
            std::thread::sleep(Duration::from_millis(10));
            if let Some(a) = c1.poll(1).unwrap().rebalanced {
                takeover = Some(a);
            }
        }
        assert!(bus.now_ms() > t0, "auto clock advances on its own");
        assert_eq!(
            takeover.map(|a| a.len()),
            Some(2),
            "silent member expelled by wall-clock expiry; survivor owns all"
        );
        assert!(c2.poll(1).is_err(), "expelled consumer errors");
    }

    #[test]
    fn end_offset_and_truncate() {
        let bus = MessageBus::with_defaults();
        bus.create_topic("t", 1, 1).unwrap();
        let tp = TopicPartition::new("t", 0);
        assert_eq!(bus.end_offset(&tp).unwrap(), 0);
        let producer = crate::producer::Producer::new(bus.clone());
        producer.send("t", b"k", b"v".to_vec()).unwrap();
        producer.send("t", b"k", b"v".to_vec()).unwrap();
        assert_eq!(bus.end_offset(&tp).unwrap(), 2);
        bus.truncate_partition(&tp, 1).unwrap();
        assert_eq!(bus.end_offset(&tp).unwrap(), 2);
    }
}

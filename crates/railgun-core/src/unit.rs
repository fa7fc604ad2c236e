//! Processor units: Algorithm 1 of the paper.
//!
//! A processor unit owns a set of task processors, all driven by **one
//! logical thread** to avoid context switching and synchronization (§3.2).
//! Each pump iteration (one trip around Algorithm 1's loop):
//!
//! 1. processes operational requests (stream/metric registration),
//! 2. polls the **active** consumer (group-managed, the shared
//!    `railgun-active` group),
//! 3. polls the **replica** consumer (manually assigned),
//! 4. routes every message to its task processor,
//! 5. replies to the reply topic — for active tasks only.
//!
//! The unit is deliberately pump-driven (no internal thread): tests and
//! the simulation drive [`ProcessorUnit::pump`] deterministically, while
//! the threaded runtime (`runtime` module) wraps the same pump in
//! [`ProcessorUnit::run_loop`] — one OS thread per unit, parked on the
//! bus's wakeup path when idle (the paper's one-logical-thread-per-unit
//! discipline, §3.2).

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use railgun_messaging::{BatchEntry, Consumer, Message, MessageBus, Producer, TopicPartition};
use railgun_types::encode::BatchFrameBuilder;
use railgun_types::{RailgunError, Result, Schema};

use crate::api::{
    decode_checkpoint, decode_op, encode_checkpoint, parse_topic_name, read_event_request,
    CheckpointRecord, OpRequest, QueryId, CHECKPOINT_TOPIC, OPS_TOPIC,
};
use crate::lang::{parse_query, Query};
use crate::rebalance::{ProcessorIdentity, RailgunStrategy};
use crate::task::{RestoreOutcome, TaskConfig, TaskProcessor};

/// Static configuration of one processor unit.
#[derive(Debug, Clone)]
pub struct UnitConfig {
    pub node: u32,
    pub unit: u32,
    /// Root directory for this unit's task data.
    pub data_dir: PathBuf,
    pub task: TaskConfig,
    /// Max records fetched per consumer per pump.
    pub max_poll: usize,
    /// Checkpoint each task every N processed events (0 disables). The
    /// reservoir and state store are checkpointed together and the (task,
    /// offset) record is published to the checkpoint topic (§4.1.3).
    pub checkpoint_every: u64,
    /// Telemetry: active-consumer poll duration, one sample per pump
    /// (off by default — disabled recorders never read the clock).
    pub poll_recorder: railgun_types::Recorder,
    /// Telemetry: per-run task processing duration — one sample per run
    /// of consecutive same-task messages (off by default).
    pub process_recorder: railgun_types::Recorder,
    /// Telemetry: events per processed run (always on — see
    /// `MetricsSnapshot::batching`).
    pub batch_size: railgun_types::Recorder,
    /// Telemetry: events processed in runs of ≥ 2 (always on).
    pub batched_events: railgun_types::Counter,
    /// Telemetry: gained tasks restored from a checkpoint instead of a
    /// full replay (always on — see `MetricsSnapshot::elastic`).
    pub handovers: railgun_types::Counter,
    /// Telemetry: tail events a handover still had to replay (always on).
    pub tail_replayed: railgun_types::Counter,
    /// Telemetry: handovers that found a checkpoint record but degraded
    /// to full replay because the image failed validation (always on).
    pub handover_fallbacks: railgun_types::Counter,
}

/// What happened during one pump; all zero (the default) means idle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpReport {
    pub ops_applied: usize,
    pub active_events: usize,
    pub replica_events: usize,
    pub rebalanced: bool,
    pub checkpoints: usize,
    /// Undecodable checkpoint-topic records skipped while refreshing the
    /// peer-record cache (read at a rebalance).
    pub bad_checkpoint_records: usize,
    /// Op-topic records skipped because they did not decode, or carried
    /// a query text that does not parse.
    pub bad_op_records: usize,
    /// Event-topic records skipped because they are not event requests;
    /// the task's offset still moves past them.
    pub bad_event_records: usize,
}

#[derive(Debug, Clone)]
struct StreamMeta {
    schema: Schema,
    partitioners: Vec<String>,
}

/// Whether a task's replies are published (§4.2: replicas stay silent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Active,
    Replica,
}

/// Everything a unit tracks about one task it holds.
struct TaskSlot {
    tp: TopicPartition,
    processor: TaskProcessor,
    /// Next offset to process (so promotions replica→active keep their
    /// position instead of replaying).
    next_offset: u64,
    /// Events processed since the task's last checkpoint image.
    since_checkpoint: u64,
    role: Role,
}

/// One processor unit (Algorithm 1).
pub struct ProcessorUnit {
    cfg: UnitConfig,
    bus: MessageBus,
    producer: Producer,
    active: Consumer,
    replica: Consumer,
    ops: Consumer,
    /// Tails the checkpoint topic so a rebalance can hand gained tasks a
    /// recent state image instead of a full replay (§4.2 elasticity).
    ckpt: Consumer,
    strategy: Arc<RailgunStrategy>,
    streams: HashMap<String, StreamMeta>,
    /// Registered queries in op-log order, keyed by their stable ids.
    queries: Vec<(QueryId, Query)>,
    /// One slot per task held, active or replica (a handful per unit, so
    /// lookups scan).
    slots: Vec<TaskSlot>,
    /// The partitions of the [`Role::Active`] slots, as the group handed
    /// them out — kept only as the slice [`ProcessorUnit::active_tasks`]
    /// returns.
    active_assignment: Vec<TopicPartition>,
    checkpoint_seq: u64,
    /// Image directories this unit wrote per task, oldest first; all but
    /// the newest [`CHECKPOINTS_KEPT`] are deleted once superseded.
    checkpoint_dirs: HashMap<TopicPartition, VecDeque<PathBuf>>,
    /// Latest checkpoint record seen per task (poll order is offset
    /// order, so the last record read wins). Consulted when a rebalance
    /// gains a task: restore from here, replay only the tail.
    checkpoints: HashMap<TopicPartition, CheckpointRecord>,
    /// Reusable poll scratch — the pump fetches into this instead of
    /// allocating a fresh `Vec` per consumer per iteration.
    scratch: Vec<Message>,
    /// Replies staged per reply topic during a pump, each written by its
    /// task straight into that topic's shared frame and flushed as one
    /// batch ([`ProcessorUnit::flush_replies`]). Slots persist across
    /// pumps so their buffers are reused.
    reply_stage: Vec<(String, BatchFrameBuilder)>,
    /// Where a replica task writes the reply nobody reads: it is still
    /// computed, so a replica's sketch leaves are read — and age — exactly
    /// as the active's are.
    replica_reply: Vec<u8>,
    /// Reusable scratch for building `send_batch` entries at flush.
    reply_entries: Vec<BatchEntry>,
}

/// Consumer group shared by every active consumer (§3.3).
pub const ACTIVE_GROUP: &str = "railgun-active";

/// Checkpoint images kept per task. One would do for a peer that reads
/// the newest record; the second covers a peer that cached the record
/// before and restores while the next image is being published. A peer
/// with an older record still finds its image gone and degrades to a full
/// replay ([`TaskProcessor::restore_or_replay`]).
const CHECKPOINTS_KEPT: usize = 2;

impl ProcessorUnit {
    /// Create a unit and join the active consumer group for all event
    /// topics of all (current and future) streams.
    pub fn new(bus: &MessageBus, cfg: UnitConfig, strategy: Arc<RailgunStrategy>) -> Result<Self> {
        let producer = Producer::new(bus.clone());
        let active = Consumer::new(bus.clone());
        let replica = Consumer::new(bus.clone());
        let mut ops = Consumer::new(bus.clone());
        ops.assign(vec![TopicPartition::new(OPS_TOPIC, 0)]);
        // The checkpoint topic may not exist yet (the front-end creates
        // it); a manually assigned consumer simply skips missing topics.
        let mut ckpt = Consumer::new(bus.clone());
        ckpt.assign(vec![TopicPartition::new(CHECKPOINT_TOPIC, 0)]);
        Ok(ProcessorUnit {
            cfg,
            bus: bus.clone(),
            producer,
            active,
            replica,
            ops,
            ckpt,
            strategy,
            streams: HashMap::new(),
            queries: Vec::new(),
            slots: Vec::new(),
            active_assignment: Vec::new(),
            checkpoint_seq: 0,
            checkpoint_dirs: HashMap::new(),
            checkpoints: HashMap::new(),
            scratch: Vec::new(),
            reply_stage: Vec::new(),
            replica_reply: Vec::new(),
            reply_entries: Vec::new(),
        })
    }

    /// This unit's identity (metadata for the assignment strategy).
    pub fn identity(&self) -> ProcessorIdentity {
        ProcessorIdentity {
            node: self.cfg.node,
            unit: self.cfg.unit,
        }
    }

    /// (Re)subscribe the active consumer to all known event topics.
    fn resubscribe(&mut self) -> Result<()> {
        let topics: Vec<String> = self
            .streams
            .iter()
            .flat_map(|(stream, meta)| {
                meta.partitioners
                    .iter()
                    .map(move |p| crate::api::topic_name(stream, p))
            })
            .collect();
        if topics.is_empty() {
            return Ok(());
        }
        let refs: Vec<&str> = topics.iter().map(String::as_str).collect();
        self.active.subscribe(
            ACTIVE_GROUP,
            &refs,
            self.identity().encode(),
            Arc::clone(&self.strategy) as Arc<dyn railgun_messaging::AssignmentStrategy>,
        )
    }

    /// One trip around Algorithm 1's loop.
    pub fn pump(&mut self) -> Result<PumpReport> {
        let mut report = PumpReport::default();
        // The scratch buffer is moved out for the duration of the pump so
        // it can be filled while `self` methods are called; it returns at
        // the end (error paths simply rebuild capacity on the next pump).
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();

        // 1. Operational requests. A record the unit cannot read is
        // skipped: the consumer is already past the whole poll, so
        // stopping at it would lose every op behind it.
        self.ops.poll_into(self.cfg.max_poll, &mut buf)?;
        for msg in buf.drain(..) {
            let applied =
                decode_op(&msg.payload).map_or(Ok(false), |op| self.apply_op(op, &mut report))?;
            report.ops_applied += usize::from(applied);
            report.bad_op_records += usize::from(!applied);
        }

        // 2. Active tasks.
        let poll_timer = self.cfg.poll_recorder.start();
        let polled = self.active.poll_into(self.cfg.max_poll, &mut buf);
        self.cfg.poll_recorder.finish(poll_timer);
        let rebalanced = match polled {
            Ok(r) => r,
            Err(RailgunError::Messaging(_)) => {
                // Expelled after a heartbeat lapse — rejoin the group (the
                // same recovery a Kafka client performs on session expiry).
                self.resubscribe()?;
                return Ok(report);
            }
            Err(e) => return Err(e),
        };
        if let Some(assignment) = rebalanced {
            report.rebalanced = true;
            // Messages fetched in the same poll may predate the seek —
            // drop them; the repositioned consumer re-reads next pump.
            buf.clear();
            // Pull the newest checkpoint records first: a draining peer
            // flushes its images right before the rebalance that moves its
            // tasks here, and those are exactly the ones to restore from.
            report.bad_checkpoint_records = self.refresh_checkpoints(&mut buf)?;
            self.on_rebalance(assignment)?;
        } else {
            report.bad_event_records += self.process_runs(&buf)?;
            report.active_events += buf.len();
            buf.clear();
        }
        // Replies of every active run in this pump go out now, one batch
        // (one bus hop, one wakeup) per reply topic.
        self.flush_replies()?;

        // 3. Replica tasks (no replies, §4.2).
        if self.slots.iter().any(|s| s.role == Role::Replica) {
            self.replica.poll_into(self.cfg.max_poll, &mut buf)?;
            report.bad_event_records += self.process_runs(&buf)?;
            report.replica_events += buf.len();
            buf.clear();
        }
        self.scratch = buf;

        // 4. Periodic synchronized checkpoints (§4.1.3).
        if self.cfg.checkpoint_every > 0 {
            report.checkpoints += self.checkpoint_due(self.cfg.checkpoint_every)?;
        }
        Ok(report)
    }

    /// Drive the pump until `stop` is raised: the body of one worker
    /// thread in the threaded runtime. After an idle pump (no ops, no
    /// events, no rebalance) the thread parks on the bus wakeup path
    /// instead of spinning; it still wakes at a heartbeat interval so
    /// group membership cannot lapse while parked. The bus version is
    /// sampled *before* the pump, so anything produced mid-pump re-runs
    /// the loop immediately instead of being missed.
    pub fn run_loop(&mut self, stop: &AtomicBool) -> Result<()> {
        let heartbeat =
            Duration::from_millis((self.bus.session_timeout_ms() / 4).clamp(1, 500));
        while !stop.load(Ordering::Acquire) {
            let seen = self.bus.version();
            if self.pump()? == PumpReport::default() {
                self.bus.wait_for_activity(seen, heartbeat);
            }
        }
        Ok(())
    }

    /// Checkpoint every task with at least `min_events` processed since
    /// its last image: write the image, publish its (task, offset, path)
    /// record to the checkpoint topic — the one record of where the task
    /// resumes — and delete the task's images the new one supersedes.
    /// Returns the number of images written.
    fn checkpoint_due(&mut self, min_events: u64) -> Result<usize> {
        let mut done = 0;
        for slot in &mut self.slots {
            if slot.since_checkpoint < min_events {
                continue;
            }
            let tp = &slot.tp;
            self.checkpoint_seq += 1;
            let dir = self.cfg.data_dir.join(format!(
                "ckpt/node{}-unit{}/{}-{}-{}",
                self.cfg.node, self.cfg.unit, tp.topic, tp.partition, self.checkpoint_seq
            ));
            slot.processor.checkpoint(&dir)?;
            let record = CheckpointRecord {
                topic: tp.topic.clone(),
                partition: tp.partition,
                node: self.cfg.node,
                unit: self.cfg.unit,
                next_offset: slot.next_offset,
                path: dir.to_string_lossy().into_owned(),
            };
            match self.producer.send(
                CHECKPOINT_TOPIC,
                tp.to_string().as_bytes(),
                encode_checkpoint(&record),
            ) {
                // Minimal setups (a unit on a bus no front-end has set up)
                // have no checkpoint topic: the image is still written,
                // there is just nobody to tell.
                Ok(_) | Err(RailgunError::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
            slot.since_checkpoint = 0;
            let dirs = self.checkpoint_dirs.entry(tp.clone()).or_default();
            dirs.push_back(dir);
            while dirs.len() > CHECKPOINTS_KEPT {
                remove_dir_if_present(&dirs.pop_front().expect("len checked"))?;
            }
            done += 1;
        }
        Ok(done)
    }

    /// Flush a final checkpoint of every task with progress past its last
    /// image: the unit half of the scheduled-drain protocol. The images
    /// published here are what the surviving units restore from, so the
    /// handover tail is only what arrives mid-drain. Forced — works even
    /// when periodic checkpoints are disabled. The caller
    /// ([`Node::drain_units`](crate::node::Node::drain_units)) flushes
    /// **every** unit before any unit leaves the group, so the rebalance
    /// a departure triggers never hands a survivor a stale image.
    /// Returns the number of images flushed.
    pub fn drain(&mut self) -> Result<usize> {
        self.checkpoint_due(1)
    }

    /// Drain the checkpoint topic into the per-task record cache (the
    /// consumer keeps its position, so each call reads only new records),
    /// polling through the caller's empty scratch `buf`. A record that
    /// does not decode is skipped; returns how many were.
    fn refresh_checkpoints(&mut self, buf: &mut Vec<Message>) -> Result<usize> {
        let mut skipped = 0;
        loop {
            self.ckpt.poll_into(self.cfg.max_poll.max(64), buf)?;
            if buf.is_empty() {
                return Ok(skipped);
            }
            for msg in buf.drain(..) {
                match decode_checkpoint(&msg.payload) {
                    Ok(rec) => {
                        let tp = TopicPartition::new(rec.topic.clone(), rec.partition);
                        self.checkpoints.insert(tp, rec);
                    }
                    Err(_) => skipped += 1,
                }
            }
        }
    }

    /// Apply one op; `false` if it registers a query whose text does not
    /// parse (nothing is applied then).
    fn apply_op(&mut self, op: OpRequest, report: &mut PumpReport) -> Result<bool> {
        match op {
            OpRequest::CreateStream {
                stream,
                schema,
                partitioners,
                ..
            } => {
                self.streams.insert(
                    stream,
                    StreamMeta {
                        schema,
                        partitioners,
                    },
                );
                self.resubscribe()?;
            }
            OpRequest::DeleteStream { stream } => {
                self.streams.remove(&stream);
                let not_of_stream = |tp: &TopicPartition| {
                    parse_topic_name(&tp.topic).map(|(s, _)| s) != Some(stream.as_str())
                };
                // Tasks (with their offsets, directories and checkpoints)
                // and registered queries die with the stream — a recreated
                // stream of the same name starts a fresh log with no
                // metrics. Records already published are read first, or
                // the next rebalance would read them and restore a task
                // of the recreated stream from the deleted one's image.
                report.bad_checkpoint_records += self.refresh_checkpoints(&mut Vec::new())?;
                self.checkpoints.retain(|tp, _| not_of_stream(tp));
                for (_, dirs) in self.checkpoint_dirs.extract_if(|tp, _| !not_of_stream(tp)) {
                    dirs.iter().try_for_each(|dir| remove_dir_if_present(dir))?;
                }
                let gone: Vec<TaskSlot> = self
                    .slots
                    .extract_if(.., |slot| !not_of_stream(&slot.tp))
                    .collect();
                for slot in gone {
                    let dir = self.task_dir(&slot.tp);
                    drop(slot); // closes the task's files
                    remove_dir_if_present(&dir)?;
                }
                self.active_assignment.retain(not_of_stream);
                self.queries.retain(|(_, q)| q.stream != stream);
                self.resubscribe()?;
            }
            OpRequest::RegisterQuery { id, query_text } => {
                if self.queries.iter().any(|(qid, _)| *qid == id) {
                    return Ok(true); // op-log replay: already registered
                }
                let Ok(query) = parse_query(&query_text) else {
                    return Ok(false);
                };
                let topic = self.query_topic(&query)?;
                for slot in self.slots.iter_mut().filter(|s| s.tp.topic == topic) {
                    slot.processor.attach_query(id, &query)?;
                }
                self.queries.push((id, query));
            }
            OpRequest::UnregisterQuery { id } => {
                self.queries.retain(|(qid, _)| *qid != id);
                for slot in &mut self.slots {
                    // No-op on tasks the query never touched.
                    slot.processor.unregister_query(id)?;
                }
            }
        }
        Ok(true)
    }

    /// The event topic a query's metrics are computed on
    /// ([`crate::api::query_topic`] over the query's stream).
    fn query_topic(&self, query: &Query) -> Result<String> {
        let meta = self.streams.get(&query.stream).ok_or_else(|| {
            RailgunError::NotFound(format!("stream `{}`", query.stream))
        })?;
        crate::api::query_topic(query, &meta.partitioners)
    }

    fn on_rebalance(&mut self, assignment: Vec<TopicPartition>) -> Result<()> {
        self.active_assignment = assignment;
        // Ask the strategy for this member's replica plan.
        let replicas = self.strategy.replica_assignment(self.active.member_id());
        // Drop the slots of lost tasks; their on-disk data is wiped on
        // re-gain (fresh replay or handover).
        let active = &self.active_assignment;
        self.slots
            .retain(|s| active.contains(&s.tp) || replicas.contains(&s.tp));
        // Give every kept task its role (a promotion keeps its position)
        // and open the newly gained ones. Active goes last, so it wins
        // should a plan ever list a task twice.
        let wanted = replicas
            .iter()
            .map(|tp| (tp, Role::Replica))
            .chain(active.iter().map(|tp| (tp, Role::Active)));
        for (tp, role) in wanted {
            match self.slots.iter_mut().find(|s| s.tp == *tp) {
                Some(slot) => slot.role = role,
                None => {
                    let (processor, next_offset) = self.open_task(tp)?;
                    self.slots.push(TaskSlot {
                        tp: tp.clone(),
                        processor,
                        next_offset,
                        since_checkpoint: 0,
                        role,
                    });
                }
            }
        }
        // Seek both consumers to each task's next offset (fresh tasks
        // start at 0 and replay).
        self.replica.assign(replicas);
        for slot in &self.slots {
            match slot.role {
                Role::Active => self.active.seek(&slot.tp, slot.next_offset),
                Role::Replica => self.replica.seek(&slot.tp, slot.next_offset),
            }
        }
        Ok(())
    }

    /// On-disk home of one task's live state (wiped on re-gain).
    fn task_dir(&self, tp: &TopicPartition) -> PathBuf {
        self.cfg.data_dir.join(format!(
            "node{}-unit{}/{}-{}",
            self.cfg.node, self.cfg.unit, tp.topic, tp.partition
        ))
    }

    /// Schema of the stream a task's topic belongs to.
    fn task_schema(&self, tp: &TopicPartition) -> Result<Schema> {
        let (stream, _) = parse_topic_name(&tp.topic).ok_or_else(|| {
            RailgunError::Engine(format!("malformed topic name `{}`", tp.topic))
        })?;
        self.streams
            .get(stream)
            .map(|meta| meta.schema.clone())
            .ok_or_else(|| RailgunError::NotFound(format!("stream `{stream}`")))
    }

    /// Build the processor for a task gained in a rebalance and say which
    /// offset to consume it from — the one way a task comes to life in a
    /// unit. The task's directory is wiped first: leftovers of an earlier
    /// tenancy are never recovered, the topic is.
    ///
    /// With a cached checkpoint record the task comes back through
    /// [`TaskProcessor::restore_or_replay`] with this unit's queries on
    /// its topic: restored from the image, it replays only the tail past
    /// the record's `next_offset` (a handover); rejected, it replays from
    /// 0 (a handover fallback). A cold boot with no record at all (the
    /// normal first start, counted as neither) opens an empty task with
    /// the queries attached and replays from 0.
    fn open_task(&self, tp: &TopicPartition) -> Result<(TaskProcessor, u64)> {
        let schema = self.task_schema(tp)?;
        let dir = self.task_dir(tp);
        let mut queries = Vec::new();
        for (id, q) in &self.queries {
            if self.query_topic(q)? == tp.topic {
                queries.push((*id, q));
            }
        }
        remove_dir_if_present(&dir)?;
        let config = self.cfg.task.clone();
        let Some(rec) = self.checkpoints.get(tp) else {
            let mut task = TaskProcessor::open(&dir, &tp.topic, tp.partition, schema, config)?;
            for (id, q) in queries {
                task.attach_query(id, q)?;
            }
            return Ok((task, 0));
        };
        let (task, outcome) =
            TaskProcessor::restore_or_replay(Path::new(&rec.path), &dir, schema, config, &queries)?;
        match outcome {
            RestoreOutcome::FromCheckpoint => {
                self.cfg.handovers.incr();
                let end = self.bus.end_offset(tp).unwrap_or(rec.next_offset);
                self.cfg.tail_replayed.add(end.saturating_sub(rec.next_offset));
                Ok((task, rec.next_offset))
            }
            RestoreOutcome::FullReplay => {
                self.cfg.handover_fallbacks.incr();
                Ok((task, 0))
            }
        }
    }

    /// Group one poll's messages into runs of consecutive same-task
    /// records and process each run in a single pass. Per-partition order
    /// is exactly the poll order, so this is byte-identical to the old
    /// message-at-a-time loop. Returns how many records were skipped.
    fn process_runs(&mut self, buf: &[Message]) -> Result<usize> {
        let mut skipped = 0;
        for run in buf.chunk_by(|a, b| a.partition == b.partition && a.topic == b.topic) {
            let timer = self.cfg.process_recorder.start();
            let outcome = self.process_run(run);
            self.cfg.process_recorder.finish(timer);
            skipped += outcome?;
        }
        Ok(skipped)
    }

    /// Process one non-empty run of consecutive messages of one task: the
    /// task's slot is looked up and its offset and checkpoint counter
    /// updated once per run, and an active task writes each reply as a
    /// record of its reply topic's frame (flushed by
    /// [`ProcessorUnit::flush_replies`]); a reply that fails part-way
    /// leaves no record. A record that is not an event request is skipped,
    /// not the run behind it; returns how many were.
    fn process_run(&mut self, msgs: &[Message]) -> Result<usize> {
        let (head, last) = (&msgs[0], &msgs[msgs.len() - 1]);
        let Some(slot) = self
            .slots
            .iter_mut()
            .find(|s| s.tp.partition == head.partition && *s.tp.topic == *head.topic)
        else {
            return Ok(0); // not ours (stale fetch across rebalance)
        };
        let (task, topic) = (&mut slot.processor, &slot.tp.topic);
        let mut skipped = 0;
        for msg in msgs {
            let Ok((request_id, reply_topic, event)) = read_event_request(&msg.payload) else {
                skipped += 1;
                continue;
            };
            let mut write = |buf: &mut Vec<u8>| {
                task.process_event_into(&event, request_id, topic, buf)
                    .map(drop)
            };
            if slot.role == Role::Replica {
                self.replica_reply.clear();
                write(&mut self.replica_reply)?;
                continue;
            }
            let stage = &mut self.reply_stage;
            let at = match stage.iter().position(|(t, _)| t == reply_topic) {
                Some(at) => at,
                None => {
                    stage.push((reply_topic.to_owned(), BatchFrameBuilder::new()));
                    stage.len() - 1
                }
            };
            stage[at].1.try_push_with(write)?;
        }
        let n = msgs.len() as u64;
        self.cfg.batch_size.record(n);
        if n >= 2 {
            self.cfg.batched_events.add(n);
        }
        slot.next_offset = last.offset + 1;
        slot.since_checkpoint += n;
        Ok(skipped)
    }

    /// Publish every staged reply: one `send_batch` per reply topic
    /// (reply topics are single-partition; keys are unused), each payload
    /// a zero-copy slice of that topic's shared frame.
    fn flush_replies(&mut self) -> Result<()> {
        for (topic, frame) in &mut self.reply_stage {
            if frame.is_empty() {
                continue;
            }
            let frame = frame.finish();
            self.reply_entries.extend(frame.iter().map(|payload| BatchEntry {
                partition: 0,
                key: Vec::new(),
                payload,
            }));
            if let Err(e) = self.producer.send_batch(topic, &mut self.reply_entries) {
                self.reply_entries.clear();
                return Err(e);
            }
        }
        Ok(())
    }

    /// Registered queries, in op-log order (diagnostics).
    pub fn queries(&self) -> &[(QueryId, Query)] {
        &self.queries
    }

    /// Current active tasks.
    pub fn active_tasks(&self) -> &[TopicPartition] {
        &self.active_assignment
    }

    /// Access a task processor (diagnostics/benches).
    pub fn task(&self, tp: &TopicPartition) -> Option<&TaskProcessor> {
        self.slots
            .iter()
            .find(|s| s.tp == *tp)
            .map(|s| &s.processor)
    }

    /// Leave the consumer group gracefully.
    pub fn shutdown(&mut self) {
        self.active.unsubscribe();
        self.replica.assign(Vec::new());
    }
}

/// `remove_dir_all` that tolerates the directory not being there — the
/// only failure a wipe may swallow.
fn remove_dir_if_present(dir: &Path) -> Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::{BatchPolicy, FrontEnd};
    use crate::metrics::EngineTelemetry;
    use crate::task::temp_task_dir;
    use railgun_types::{FieldType, Timestamp, Value};

    /// One front-end and one unit on a fresh bus, a one-partition stream
    /// with a query on it, and `events` events processed.
    fn pumped_unit(tag: &str, events: i64) -> (MessageBus, FrontEnd, ProcessorUnit) {
        let bus = MessageBus::with_defaults();
        let hub = Arc::new(EngineTelemetry::new(false));
        let mut frontend =
            FrontEnd::new(&bus, 0, 1024, BatchPolicy::default(), Arc::clone(&hub)).unwrap();
        let mut unit = ProcessorUnit::new(
            &bus,
            UnitConfig {
                node: 0,
                unit: 0,
                data_dir: temp_task_dir(tag),
                task: TaskConfig::default(),
                max_poll: 256,
                checkpoint_every: 0,
                poll_recorder: hub.unit_poll_recorder(),
                process_recorder: hub.unit_process_recorder(),
                batch_size: hub.batch_size_recorder(),
                batched_events: hub.unit_batched_counter(),
                handovers: hub.handover_counter(),
                tail_replayed: hub.tail_replayed_counter(),
                handover_fallbacks: hub.handover_fallback_counter(),
            },
            Arc::new(RailgunStrategy::new(1)),
        )
        .unwrap();
        let schema =
            Schema::from_pairs(&[("cardId", FieldType::Str), ("amount", FieldType::Float)])
                .unwrap();
        frontend
            .create_stream(&bus, "payments", schema, &["cardId"], 1, 1)
            .unwrap();
        frontend
            .register_query("SELECT count(*) FROM payments GROUP BY cardId OVER sliding 5 min")
            .unwrap();
        while unit.active_tasks().is_empty() {
            unit.pump().unwrap();
        }
        for i in 0..events {
            frontend
                .send_event(
                    "payments",
                    Timestamp::from_millis(i * 1_000),
                    vec![Value::from("card-1"), Value::from(1.0)],
                )
                .unwrap();
        }
        frontend.pump().unwrap();
        assert_eq!(unit.pump().unwrap().active_events, events as usize);
        (bus, frontend, unit)
    }

    #[test]
    fn checkpoint_without_a_checkpoint_topic_still_writes_the_image() {
        // The documented minimal setup: nobody consumes checkpoint
        // records, the topic is gone — the only error a checkpoint
        // publish may swallow.
        let (bus, _frontend, mut unit) = pumped_unit("unit-ckpt-no-topic", 3);
        bus.delete_topic(CHECKPOINT_TOPIC).unwrap();
        unit.cfg.checkpoint_every = 1;
        assert_eq!(unit.pump().unwrap().checkpoints, 1);
        let dir = &unit.checkpoint_dirs.values().next().unwrap()[0];
        assert!(railgun_store::checkpoint::is_complete(
            &railgun_store::RealFs,
            &dir.join("store")
        ));
    }

    #[test]
    fn delete_stream_tolerates_an_already_deleted_topic() {
        // `NotFound` is the one topic-deletion error a stream delete may
        // swallow: the topic is gone either way.
        let (bus, mut frontend, _unit) = pumped_unit("unit-delete-stream", 0);
        bus.delete_topic("payments--cardId").unwrap();
        frontend.delete_stream(&bus, "payments").unwrap();
        assert!(frontend.stream_schema("payments").is_none());
    }

    #[test]
    fn failed_checkpoint_bookkeeping_surfaces_from_pump() {
        // The in-memory bus cannot fail a publish other than with the
        // tolerated `NotFound`, so the failure is injected where the image
        // goes: a regular file stands where the unit's `ckpt/` directory
        // would be created.
        let (_bus, _frontend, mut unit) = pumped_unit("unit-ckpt-write-fails", 3);
        std::fs::write(unit.cfg.data_dir.join("ckpt"), b"not a directory").unwrap();
        unit.cfg.checkpoint_every = 1;
        match unit.pump() {
            Err(RailgunError::Io(_)) => {}
            other => panic!("checkpoint failure must surface, got {other:?}"),
        }
        assert!(unit.checkpoint_dirs.is_empty(), "no image recorded");
    }

    #[test]
    fn undecodable_checkpoint_record_is_skipped_and_counted() {
        let (bus, mut frontend, mut unit) = pumped_unit("unit-ckpt-bad-record", 0);
        Producer::new(bus.clone())
            .send(CHECKPOINT_TOPIC, b"k", vec![0xff])
            .unwrap();
        // A second stream makes the unit resubscribe, hence rebalance,
        // hence read the checkpoint topic.
        let schema = Schema::from_pairs(&[("cardId", FieldType::Str)]).unwrap();
        frontend
            .create_stream(&bus, "refunds", schema, &["cardId"], 1, 1)
            .unwrap();
        let mut skipped = 0;
        while unit.active_tasks().len() < 2 {
            skipped += unit.pump().unwrap().bad_checkpoint_records;
        }
        assert_eq!(skipped, 1);
    }

    #[test]
    fn unreadable_ops_are_skipped_and_counted_and_the_rest_still_apply() {
        // The consumer is past the whole poll once it returns: a pump that
        // stopped at the first bad record used to lose every op behind it.
        let (bus, mut frontend, mut unit) = pumped_unit("unit-bad-op", 0);
        let producer = Producer::new(bus.clone());
        producer.send(OPS_TOPIC, b"k", vec![0xff]).unwrap();
        let unparsable = OpRequest::RegisterQuery {
            id: QueryId(99),
            query_text: "SELECT nonsense".into(),
        };
        producer
            .send(OPS_TOPIC, b"k", crate::api::encode_op(&unparsable))
            .unwrap();
        frontend
            .register_query("SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 5 min")
            .unwrap();
        let report = unit.pump().unwrap();
        assert_eq!((report.bad_op_records, report.ops_applied), (2, 1));
        assert_eq!(
            unit.queries.len(),
            2,
            "the op behind the bad ones registered"
        );
    }

    #[test]
    fn an_undecodable_event_record_is_skipped_and_counted_not_the_run_behind_it() {
        // `process_run` used to return the decode error from inside the
        // run: the event behind the bad record was never processed, its
        // request never answered, and a threaded unit's worker stopped.
        let (bus, mut frontend, mut unit) = pumped_unit("unit-bad-event", 0);
        Producer::new(bus.clone())
            .send_to_partition("payments--cardId", 0, b"k", vec![0xff, 0xff])
            .unwrap();
        let values = vec![Value::from("card-1"), Value::from(1.0)];
        let id = frontend
            .send_event("payments", Timestamp::from_millis(1_000), values)
            .unwrap();
        let report = unit.pump().unwrap();
        assert_eq!((report.bad_event_records, report.active_events), (1, 2));
        frontend.pump().unwrap();
        assert!(frontend.try_take(id).is_some(), "the event behind it is answered");
        let tp = TopicPartition::new("payments--cardId", 0);
        assert_eq!(unit.slots[0].next_offset, bus.end_offset(&tp).unwrap());
    }

    #[test]
    fn superseded_checkpoint_images_are_deleted() {
        let (_bus, mut frontend, mut unit) = pumped_unit("unit-ckpt-prune", 1);
        unit.cfg.checkpoint_every = 1;
        let mut written = Vec::new();
        for i in 1..=4 {
            assert_eq!(unit.pump().unwrap().checkpoints, 1);
            let dirs = unit.checkpoint_dirs.values().next().unwrap();
            written.push(dirs.back().unwrap().clone());
            frontend
                .send_event(
                    "payments",
                    Timestamp::from_millis(i * 1_000),
                    vec![Value::from("card-1"), Value::from(1.0)],
                )
                .unwrap();
            frontend.pump().unwrap();
        }
        let exists: Vec<bool> = written.iter().map(|d| d.exists()).collect();
        assert_eq!(exists, [false, false, true, true], "newest two images stay");
    }
}

//! The end-to-end harness: boots a threaded cluster through the public
//! `Session` / `Cluster` / `ClusterClient` API, prefills it, and drives
//! measured segments from the calling thread (the generator *is* the
//! client, so generator + one unit thread = two busy threads).

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use railgun_core::api::{CHECKPOINT_TOPIC, OPS_TOPIC};
use railgun_core::frontend::FrontEnd;
use railgun_core::{AggregationResult, ClusterClient, EngineTelemetry, QueryHandle, Session};
use railgun_messaging::{MessageBus, TopicPartition};
use railgun_types::{RailgunError, Result, Timestamp, Value};

use crate::calib::{self, Reference};
use crate::gen::{self, EventGen};
use crate::oracle::{Oracle, CHECK_TAIL};
use crate::stats;
use crate::workloads::{Load, Spec, MAX_IN_FLIGHT, SLO, STREAM};

pub type Events = Vec<(Timestamp, Vec<Value>)>;

/// The two calls the generator makes on a client of the cluster.
pub trait Client {
    fn send_async(&mut self, ts: Timestamp, values: Vec<Value>) -> Result<u64>;
    /// Block until request `id` is answered.
    fn collect(&mut self, id: u64) -> Result<Vec<AggregationResult>>;
}

impl Client for ClusterClient {
    fn send_async(&mut self, ts: Timestamp, values: Vec<Value>) -> Result<u64> {
        ClusterClient::send_async(self, STREAM, ts, values)
    }

    fn collect(&mut self, id: u64) -> Result<Vec<AggregationResult>> {
        ClusterClient::collect(self, id).map(|o| o.aggregations)
    }
}

/// A client assembled from the same public parts as `ClusterClient` (a
/// `FrontEnd` over the cluster's bus), with a telemetry hub the benchmark
/// owns. The traced run uses it so that the front-end's batch sizes land
/// in a histogram of their own instead of sharing the cluster's with the
/// unit's run lengths.
pub struct RawClient {
    frontend: FrontEnd,
    bus: MessageBus,
}

/// Front-end id of a [`RawClient`]: clear of node ids (small) and of
/// `Cluster::client` ids (from 2^20).
const RAW_CLIENT_ID: u32 = 1 << 21;

impl RawClient {
    pub fn connect(bus: &MessageBus, spec: &Spec, telemetry: Arc<EngineTelemetry>) -> Result<Self> {
        let mut frontend = FrontEnd::new(
            bus,
            RAW_CLIENT_ID,
            MAX_IN_FLIGHT,
            spec.batch_policy(),
            telemetry,
        )?;
        frontend.sync_ops()?;
        Ok(RawClient {
            frontend,
            bus: bus.clone(),
        })
    }
}

impl Client for RawClient {
    fn send_async(&mut self, ts: Timestamp, values: Vec<Value>) -> Result<u64> {
        self.frontend.send_event(STREAM, ts, values)
    }

    fn collect(&mut self, id: u64) -> Result<Vec<AggregationResult>> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let seen = self.bus.version();
            self.frontend.pump()?;
            if let Some(done) = self.frontend.try_take(id) {
                return Ok(done.aggregations);
            }
            let now = Instant::now();
            if now >= deadline {
                self.frontend.abandon(id);
                return Err(RailgunError::Engine(format!(
                    "no reply for request {id} within 10 s"
                )));
            }
            self.bus
                .wait_for_activity(seen, (deadline - now).min(Duration::from_millis(50)));
        }
    }
}

/// A fixed run of consecutive events inside a segment (about 12 ms of
/// work), followed by one reading of the reference kernel (`calib`): the
/// grain at which the machine's speed is tracked and the replicas of the
/// same work are compared. The machine's disturbances come in bursts of
/// tens of milliseconds on top of a level that drifts over minutes; a
/// piece this short mostly shares its state with the readings around it.
#[derive(Debug, Default, Clone, Copy)]
pub struct Piece {
    /// From the previous piece's last answer (or the segment's start) to
    /// this piece's last answer; the reference readings are not in it.
    pub wall_ns: u64,
    /// On-CPU time across the piece: every thread under a closed loop,
    /// every thread but the generator (which busy-waits for its schedule)
    /// under the open loop.
    pub cpu_ns: u64,
    /// Median reply latency of the piece's events.
    pub p50_ns: u64,
    /// Replies later than the SLO (failures excluded).
    pub slo_missed: u64,
    /// Mean of the reference readings right before and right after.
    pub reference_ns: f64,
}

impl Piece {
    /// `ns` of this piece at the reference machine's speed.
    pub fn at_nominal(&self, ns: u64) -> f64 {
        ns as f64 * calib::nominal_over(self.reference_ns)
    }
}

/// What one measured segment (a fixed number of events) cost.
#[derive(Debug, Default, Clone)]
pub struct Segment {
    /// Events answered.
    pub replied: u64,
    /// Sends refused or replies that never came.
    pub failed: u64,
    /// First send (or first due time) to last reply, without the time the
    /// reference readings took.
    pub wall_ns: u64,
    /// The segment cut into pieces of the driver's `piece` events.
    pub pieces: Vec<Piece>,
    /// Reply latencies, sorted.
    pub latency_ns: Vec<u64>,
    /// Open loop: how late the generator sent, at worst.
    pub gen_lag_max_ns: u64,
    /// Open loop: most events due but not yet answered.
    pub backlog_max: u64,
    /// Times the generator's own code (no blocking call inside) took over
    /// 1 ms between two clock reads: the machine stalled, or another
    /// thread held the core that long.
    pub stalls_over_1ms: u64,
}

impl Segment {
    pub fn throughput_eps(&self) -> f64 {
        self.replied as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    pub fn slo_missed(&self) -> u64 {
        self.pieces.iter().map(|p| p.slo_missed).sum()
    }
}

/// The segment's clock and its cutter: cuts the segment into pieces as its
/// events are answered, takes a reference reading between pieces, and
/// stops the clock meanwhile.
struct Cutter<'a> {
    reference: &'a mut Reference,
    /// Events per piece.
    size: usize,
    /// Whether the generator's own CPU time is left out (open loop).
    engine_only: bool,
    started: Instant,
    /// Time the reference readings took so far.
    paused_ns: u64,
    last_ns: u64,
    last_cpu_ns: u64,
    last_reading_ns: u64,
    /// Latencies of the open piece.
    open: Vec<u64>,
    open_slo_missed: u64,
}

impl<'a> Cutter<'a> {
    /// Takes the first reading, then starts the clock.
    fn start(reference: &'a mut Reference, size: usize, engine_only: bool) -> Self {
        let last_reading_ns = reference.reading();
        let mut c = Cutter {
            reference,
            size: size.max(1),
            engine_only,
            started: Instant::now(),
            paused_ns: 0,
            last_ns: 0,
            last_cpu_ns: 0,
            last_reading_ns,
            open: Vec::with_capacity(size.max(1)),
            open_slo_missed: 0,
        };
        c.last_cpu_ns = c.cpu_ns();
        c
    }

    /// Nanoseconds on the segment's clock.
    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64 - self.paused_ns
    }

    fn cpu_ns(&self) -> u64 {
        let all = stats::process_cpu_clock_ns();
        if self.engine_only {
            all.saturating_sub(stats::thread_cpu_clock_ns())
        } else {
            all
        }
    }

    /// One more event of the segment is done: answered after
    /// `latency_ns`, or failed (`None`).
    fn answered(&mut self, latency_ns: Option<u64>, seg: &mut Segment) {
        match latency_ns {
            Some(latency_ns) => {
                seg.replied += 1;
                seg.latency_ns.push(latency_ns);
                self.open_slo_missed += u64::from(latency_ns > SLO.as_nanos() as u64);
                self.open.push(latency_ns);
            }
            None => {
                seg.failed += 1;
                // Its place in the piece, so pieces stay aligned by event.
                self.open.push(u64::MAX);
            }
        }
        if self.open.len() == self.size {
            self.close(seg);
        }
    }

    /// Close the open piece, if any, and take the reading that follows it.
    fn close(&mut self, seg: &mut Segment) {
        if self.open.is_empty() {
            return;
        }
        let now_ns = self.now_ns();
        let cpu_ns = self.cpu_ns();
        let pause = Instant::now();
        let reading_ns = self.reference.reading();
        self.open.sort_unstable();
        seg.pieces.push(Piece {
            wall_ns: now_ns - self.last_ns,
            cpu_ns: cpu_ns.saturating_sub(self.last_cpu_ns),
            p50_ns: stats::percentile_sorted(&self.open, 50.0),
            slo_missed: self.open_slo_missed,
            reference_ns: (self.last_reading_ns + reading_ns) as f64 / 2.0,
        });
        self.open.clear();
        self.open_slo_missed = 0;
        self.last_reading_ns = reading_ns;
        self.last_ns = now_ns;
        self.last_cpu_ns = self.cpu_ns();
        self.paused_ns += pause.elapsed().as_nanos() as u64;
    }
}

/// Sees every reply with the index of its event.
pub type Keep<'a> = &'a mut dyn FnMut(u64, &[AggregationResult]);

/// A client and its position in the stream.
pub struct Driver<C> {
    pub client: C,
    /// Index of the next event of the stream.
    pub next_index: u64,
    /// Events per [`Piece`].
    pub piece: usize,
    pub reference: Reference,
}

impl<C: Client> Driver<C> {
    /// Run one measured segment under `load`.
    pub fn run_segment(&mut self, load: Load, events: Events, keep: Keep) -> Segment {
        let mut seg = match load {
            Load::Closed { depth } => self.closed_loop(events, depth, keep),
            Load::Open { rate_eps } => self.open_loop(events, rate_eps, keep),
        };
        seg.latency_ns.sort_unstable();
        seg
    }

    fn closed_loop(&mut self, events: Events, depth: usize, keep: Keep) -> Segment {
        let mut seg = Segment {
            latency_ns: Vec::with_capacity(events.len()),
            ..Segment::default()
        };
        let mut in_flight: InFlight = VecDeque::with_capacity(depth + 1);
        let mut cutter = Cutter::start(&mut self.reference, self.piece, false);
        for (k, (ts, values)) in events.into_iter().enumerate() {
            // A piece is a closed loop of its own: the next one starts
            // when every reply of this one is in, so the engine is idle
            // while the reference is read and no work crosses the cut.
            if k % self.piece == 0 {
                while !in_flight.is_empty() {
                    collect_oldest(
                        &mut self.client,
                        &mut in_flight,
                        &mut cutter,
                        &mut seg,
                        keep,
                    );
                }
            }
            let index = self.next_index;
            self.next_index += 1;
            let sent_ns = cutter.now_ns();
            match self.client.send_async(ts, values) {
                Ok(id) => in_flight.push_back((id, index, sent_ns)),
                Err(_) => cutter.answered(None, &mut seg),
            }
            seg.stalls_over_1ms += u64::from(cutter.now_ns() - sent_ns > 1_000_000);
            if in_flight.len() >= depth {
                collect_oldest(
                    &mut self.client,
                    &mut in_flight,
                    &mut cutter,
                    &mut seg,
                    keep,
                );
            }
        }
        while !in_flight.is_empty() {
            collect_oldest(
                &mut self.client,
                &mut in_flight,
                &mut cutter,
                &mut seg,
                keep,
            );
        }
        cutter.close(&mut seg);
        seg.wall_ns = cutter.last_ns;
        seg
    }

    /// Open loop: event `k` of the segment is due `k / rate` after the
    /// segment starts, whatever happened to the events before it. The
    /// schedule never looks at replies, and latency counts from the due
    /// time, so whatever keeps the generator from sending on time (a
    /// stall, a reply it is blocked on) is in the number.
    ///
    /// The generator shares its core with the engine (see `pin`), so it
    /// never spins while a request is out: it sends everything due, then
    /// blocks on the oldest reply, which hands the core to the unit. Only
    /// with nothing in flight does it wait for the next due time, yielding
    /// the core to whatever background work the engine has left.
    fn open_loop(&mut self, events: Events, rate_eps: f64, keep: Keep) -> Segment {
        let total = events.len() as u64;
        let schedule = Schedule::new(rate_eps);
        let mut seg = Segment {
            latency_ns: Vec::with_capacity(events.len()),
            ..Segment::default()
        };
        // Timed from the due time, not from the send.
        let mut in_flight: InFlight = VecDeque::new();
        let mut events = events.into_iter();
        let mut sent = 0u64;
        let mut answered = 0u64;
        // The schedule runs on the cutter's clock, which stands still
        // during a reference reading: no event falls due meanwhile.
        let mut cutter = Cutter::start(&mut self.reference, self.piece, true);
        while answered < total {
            let turn_ns = cutter.now_ns();
            let due = schedule.due_by(turn_ns).min(total);
            seg.backlog_max = seg.backlog_max.max(due - answered);
            while sent < due && in_flight.len() < MAX_IN_FLIGHT {
                let (ts, values) = events.next().expect("sent < total");
                let index = self.next_index;
                self.next_index += 1;
                let due_ns = schedule.due_ns(sent);
                seg.gen_lag_max_ns = seg
                    .gen_lag_max_ns
                    .max(cutter.now_ns().saturating_sub(due_ns));
                sent += 1;
                match self.client.send_async(ts, values) {
                    Ok(id) => in_flight.push_back((id, index, due_ns)),
                    Err(_) => {
                        cutter.answered(None, &mut seg);
                        answered += 1;
                    }
                }
            }
            seg.stalls_over_1ms += u64::from(cutter.now_ns() - turn_ns > 1_000_000);
            if !in_flight.is_empty() {
                collect_oldest(
                    &mut self.client,
                    &mut in_flight,
                    &mut cutter,
                    &mut seg,
                    keep,
                );
                answered += 1;
            } else {
                std::thread::yield_now();
            }
        }
        cutter.close(&mut seg);
        seg.wall_ns = cutter.last_ns;
        seg
    }
}

/// (request id, event index, ns on the segment's clock from which the
/// reply's latency counts)
type InFlight = VecDeque<(u64, u64, u64)>;

/// Block until the oldest request in flight is answered (or the cluster's
/// collect timeout gives it up).
fn collect_oldest<C: Client>(
    client: &mut C,
    in_flight: &mut InFlight,
    cutter: &mut Cutter,
    seg: &mut Segment,
    keep: Keep,
) {
    let (id, index, from_ns) = in_flight.pop_front().expect("caller checked");
    match client.collect(id) {
        Ok(aggregations) => {
            cutter.answered(Some(cutter.now_ns().saturating_sub(from_ns)), seg);
            keep(index, &aggregations);
        }
        Err(_) => cutter.answered(None, seg),
    }
}

/// A booted, prefilled engine and the client that drives it.
pub struct Engine<C> {
    pub session: Session,
    pub driver: Driver<C>,
    pub queries: Vec<QueryHandle>,
    pub data_root: PathBuf,
    /// `VmRSS` just before the cluster booted (the prefill already built).
    pub rss_before: u64,
    /// Allocated bytes before the prefill events were built.
    pub heap_before: u64,
}

/// What one set-up took.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Boot to the end of the prefill, without the reference readings.
    pub wall_ns: u64,
    /// The middle reference reading of the prefill's pieces.
    pub reference_ns: f64,
}

impl Setup {
    /// Seconds at the reference machine's speed.
    pub fn at_nominal_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9 * calib::nominal_over(self.reference_ns)
    }
}

/// Name prefix of the runtime's unit threads (`railgun-n<node>-u<unit>`).
pub const UNIT_THREADS: &str = "railgun-n";
/// Name (as the kernel truncates it) of the reservoirs' I/O threads.
pub const IO_THREADS: &str = "railgun-reservo";

impl Engine<ClusterClient> {
    /// [`Engine::setup_with`] with the cluster's own client.
    pub fn setup(spec: &Spec, gen: &EventGen, data_root: &Path) -> Result<(Self, Setup)> {
        Engine::setup_with(spec, gen, data_root, false, |session| {
            session.cluster_mut().client()
        })
    }
}

impl<C: Client> Engine<C> {
    /// Boot, create the stream, register the queries, start the unit
    /// thread, connect a client and prefill (the prefill events are built
    /// before the clock starts). Returns the engine and what that took.
    pub fn setup_with(
        spec: &Spec,
        gen: &EventGen,
        data_root: &Path,
        telemetry: bool,
        connect: impl FnOnce(&mut Session) -> Result<C>,
    ) -> Result<(Self, Setup)> {
        let heap_before = stats::heap_live_bytes();
        let prefill = gen.batch(0, spec.prefill);
        let rss_before = stats::status_bytes("VmRSS");
        std::fs::remove_dir_all(data_root).ok();
        let started = Instant::now();
        let mut session = Session::new(spec.cluster_config(data_root, telemetry))?;
        session.create_stream_with_schema(
            STREAM,
            gen::schema(spec.full_payload),
            spec.partitioners,
        )?;
        let mut queries = Vec::with_capacity(spec.queries.len());
        for q in spec.queries {
            queries.push(session.register_text(q)?);
        }
        session.cluster_mut().start()?;
        let client = connect(&mut session)?;
        let mut engine = Engine {
            session,
            driver: Driver {
                client,
                next_index: 0,
                piece: spec.piece(),
                reference: Reference::new(),
            },
            queries,
            data_root: data_root.to_path_buf(),
            rss_before,
            heap_before,
        };
        let boot_ns = started.elapsed().as_nanos() as u64;
        let seg = engine
            .driver
            .run_segment(Load::Closed { depth: 64 }, prefill, &mut |_, _| {});
        if seg.failed > 0 {
            return Err(RailgunError::Engine(format!(
                "{} of the prefill events failed",
                seg.failed
            )));
        }
        let trim = Instant::now();
        engine.trim_bus()?;
        let readings: Vec<f64> = seg.pieces.iter().map(|p| p.reference_ns).collect();
        let setup = Setup {
            wall_ns: boot_ns + seg.wall_ns + trim.elapsed().as_nanos() as u64,
            reference_ns: stats::median(&readings),
        };
        Ok((engine, setup))
    }

    /// Build the next `count` events of the stream (untimed), run them
    /// under the workload's load model, and trim the bus (untimed). With
    /// an oracle, it forgets the previous segment and is offered the
    /// replies of this one's last [`CHECK_TAIL`] events.
    pub fn next_segment(
        &mut self,
        spec: &Spec,
        gen: &EventGen,
        count: u64,
        mut oracle: Option<&mut Oracle>,
    ) -> Result<Segment> {
        let from = self.driver.next_index;
        let events = gen.batch(from, from + count);
        let keep_from = from + count.saturating_sub(CHECK_TAIL);
        if let Some(oracle) = oracle.as_deref_mut() {
            oracle.start_segment();
        }
        let segment = self
            .driver
            .run_segment(spec.load, events, &mut |index, aggregations| {
                if let Some(oracle) = oracle.as_deref_mut().filter(|_| index >= keep_from) {
                    oracle.offer(index, &gen.core(index), aggregations);
                }
            });
        self.trim_bus()?;
        Ok(segment)
    }

    /// Drop everything already consumed from the bus's in-memory logs.
    /// The bus stands in for Kafka, whose retention is not the engine's
    /// memory; without this the process's RSS would mostly measure how
    /// many events the run happened to send.
    pub fn trim_bus(&self) -> Result<()> {
        trim_bus(self.session.cluster().bus())
    }

    /// Stop the unit thread; the engine's tasks stay readable through
    /// `session.cluster().nodes()`.
    pub fn stop(&mut self) -> Result<()> {
        self.session.cluster_mut().stop()
    }

    /// Tear down and delete the data root.
    pub fn destroy(mut self) {
        let _ = self.stop();
        let root = self.data_root.clone();
        drop(self);
        std::fs::remove_dir_all(root).ok();
    }
}

/// See [`Engine::trim_bus`].
pub fn trim_bus(bus: &MessageBus) -> Result<()> {
    for topic in bus.topics() {
        if topic == OPS_TOPIC || topic == CHECKPOINT_TOPIC {
            continue;
        }
        for partition in 0..bus.partition_count(&topic)? {
            let tp = TopicPartition::new(topic.clone(), partition);
            bus.truncate_partition(&tp, bus.end_offset(&tp)?)?;
        }
    }
    Ok(())
}

/// The open-loop send schedule: due times depend on the rate alone.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    interval_ns: f64,
}

impl Schedule {
    pub fn new(rate_eps: f64) -> Self {
        Schedule {
            interval_ns: 1e9 / rate_eps,
        }
    }

    /// When event `k` is due, in ns after the segment start.
    pub fn due_ns(&self, k: u64) -> u64 {
        (k as f64 * self.interval_ns) as u64
    }

    /// How many events are due at `now_ns` (event 0 is due at 0).
    pub fn due_by(&self, now_ns: u64) -> u64 {
        (now_ns as f64 / self.interval_ns) as u64 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_depend_on_the_rate_alone() {
        let s = Schedule::new(20_000.0);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 50_000);
        assert_eq!(s.due_ns(20_000), 1_000_000_000);
        // Monotonic, evenly spaced, and a function of k only — nothing
        // about replies enters the schedule.
        for k in 0..1000u64 {
            assert_eq!(s.due_ns(k + 1) - s.due_ns(k), 50_000);
        }
    }

    #[test]
    fn due_by_counts_every_event_whose_time_has_come() {
        let s = Schedule::new(20_000.0);
        assert_eq!(s.due_by(0), 1);
        assert_eq!(s.due_by(49_999), 1);
        assert_eq!(s.due_by(50_000), 2);
        // After a 10 ms stall, 200 more events are due at once.
        assert_eq!(s.due_by(10_000_000) - s.due_by(0), 200);
        for k in 0..500u64 {
            assert!(
                s.due_by(s.due_ns(k)) > k,
                "event {k} is due at its due time"
            );
        }
    }

    /// A client that answers instantly and records when it was asked.
    struct Echo {
        next: u64,
        sends: Vec<Instant>,
    }

    impl Client for Echo {
        fn send_async(&mut self, _: Timestamp, _: Vec<Value>) -> Result<u64> {
            self.sends.push(Instant::now());
            self.next += 1;
            Ok(self.next)
        }
        fn collect(&mut self, _: u64) -> Result<Vec<AggregationResult>> {
            Ok(Vec::new())
        }
    }

    #[test]
    fn open_loop_paces_sends_and_closed_loop_does_not() {
        let events = |n: i64| -> Events {
            (0..n)
                .map(|i| (Timestamp::from_millis(i), Vec::new()))
                .collect()
        };
        let mut driver = Driver {
            client: Echo {
                next: 0,
                sends: Vec::new(),
            },
            next_index: 0,
            piece: 64,
            reference: Reference::new(),
        };
        // 200 events at 10 000 ev/s take 20 ms however fast replies come.
        let seg = driver.run_segment(
            Load::Open { rate_eps: 10_000.0 },
            events(200),
            &mut |_, _| {},
        );
        assert_eq!((seg.replied, seg.failed), (200, 0));
        assert!(seg.wall_ns >= 19_900_000, "paced: {} ns", seg.wall_ns);
        let sends = &driver.client.sends;
        assert!(sends[199] - sends[0] >= Duration::from_micros(19_800));
        let seg = driver.run_segment(Load::Closed { depth: 8 }, events(200), &mut |_, _| {});
        assert_eq!((seg.replied, driver.next_index), (200, 400));
        assert!(seg.wall_ns < 19_900_000, "unpaced: {} ns", seg.wall_ns);
    }

    #[test]
    fn a_segment_is_cut_into_pieces_with_a_reading_each_and_the_clock_skips_the_readings() {
        let mut driver = Driver {
            client: Echo {
                next: 0,
                sends: Vec::new(),
            },
            next_index: 0,
            piece: 64,
            reference: Reference::new(),
        };
        let events: Events = (0..200)
            .map(|i| (Timestamp::from_millis(i), Vec::new()))
            .collect();
        let started = Instant::now();
        let seg = driver.run_segment(Load::Closed { depth: 8 }, events, &mut |_, _| {});
        let elapsed_ns = started.elapsed().as_nanos() as u64;
        // 64 + 64 + 64 + 8 events.
        assert_eq!(seg.pieces.len(), 4);
        assert!(seg.pieces.iter().all(|p| p.reference_ns > 0.0));
        // The pieces tile the segment's clock...
        assert_eq!(
            seg.pieces.iter().map(|p| p.wall_ns).sum::<u64>(),
            seg.wall_ns
        );
        // ...which stood still during the five readings.
        let readings_ns: f64 = seg.pieces.iter().map(|p| p.reference_ns).sum();
        assert!(
            (seg.wall_ns as f64) < elapsed_ns as f64 - readings_ns,
            "{} of {elapsed_ns} ns on the clock, readings {readings_ns} ns",
            seg.wall_ns
        );
        // On a machine whose readings take twice the reference machine's,
        // a time counts half.
        let piece = Piece {
            wall_ns: 1000,
            reference_ns: 2.0 * calib::NOMINAL_NS,
            ..Piece::default()
        };
        assert_eq!(piece.at_nominal(piece.wall_ns), 500.0);
    }
}

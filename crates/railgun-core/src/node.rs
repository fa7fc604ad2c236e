//! A Railgun node: the back-end processor units of Figure 3 over the
//! shared messaging layer.
//!
//! All nodes are equal (§3: "to simplify development, all Railgun nodes
//! are equal and composed by layers"). The front-end layer is not part of
//! a node here: a front-end is a bus client with a reply topic, and which
//! node hosts it changes no byte a unit sees, so every request goes
//! through a [`crate::cluster::ClusterClient`].
//!
//! The units run in one of two execution modes (see DESIGN.md
//! § "Execution modes"):
//!
//! * **pump** (default) — units are driven inline by [`Node::pump`],
//!   deterministic, used by tests and the simulation;
//! * **threaded** — [`Node::start`] moves every unit onto its own OS
//!   thread (the paper's one-thread-per-unit discipline, §3.2);
//!   [`Node::stop`] joins the threads and hands the units back, so the
//!   node can return to pump mode with all task state intact.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use railgun_messaging::MessageBus;
use railgun_types::Result;

use crate::cluster::ClusterConfig;
use crate::metrics::EngineTelemetry;
use crate::rebalance::RailgunStrategy;
use crate::runtime::Runtime;
use crate::unit::{ProcessorUnit, PumpReport, UnitConfig};

/// The node's back-end units, in whichever execution mode is active.
enum Backend {
    /// Units driven inline by [`Node::pump`].
    Pump(Vec<ProcessorUnit>),
    /// Units owned by worker threads.
    Threaded(Runtime),
}

/// One Railgun node.
pub struct Node {
    pub id: u32,
    backend: Backend,
    bus: MessageBus,
}

impl Node {
    /// Assemble node `id` of a cluster configured by `config`, with
    /// `config.units_per_node` processor units (pump mode; call
    /// [`Node::start`] to go threaded).
    pub fn new(
        bus: &MessageBus,
        id: u32,
        config: &ClusterConfig,
        strategy: &Arc<RailgunStrategy>,
        telemetry: &EngineTelemetry,
    ) -> Result<Self> {
        let mut unit_vec = Vec::with_capacity(config.units_per_node as usize);
        for u in 0..config.units_per_node {
            unit_vec.push(ProcessorUnit::new(
                bus,
                UnitConfig {
                    node: id,
                    unit: u,
                    data_dir: config.data_root.clone(),
                    task: config.task.clone(),
                    max_poll: 256,
                    checkpoint_every: config.checkpoint_every,
                    poll_recorder: telemetry.unit_poll_recorder(),
                    process_recorder: telemetry.unit_process_recorder(),
                    batch_size: telemetry.batch_size_recorder(),
                    batched_events: telemetry.unit_batched_counter(),
                    handovers: telemetry.handover_counter(),
                    tail_replayed: telemetry.tail_replayed_counter(),
                    handover_fallbacks: telemetry.handover_fallback_counter(),
                },
                Arc::clone(strategy),
            )?);
        }
        Ok(Node {
            id,
            backend: Backend::Pump(unit_vec),
            bus: bus.clone(),
        })
    }

    /// Move every unit onto its own worker thread. Idempotent: a node that
    /// is already threaded stays untouched. If spawning fails, the node
    /// keeps (the surviving) units in pump mode and reports the error. A
    /// worker that fails raises `failed`.
    pub fn start(&mut self, failed: &Arc<AtomicBool>) -> Result<()> {
        if let Backend::Pump(units) = &mut self.backend {
            let units = std::mem::take(units);
            match Runtime::spawn(self.bus.clone(), units, Arc::clone(failed)) {
                Ok(runtime) => self.backend = Backend::Threaded(runtime),
                Err((units, e)) => {
                    self.backend = Backend::Pump(units);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Stop the worker threads (if any) and return to pump mode with the
    /// same units. Idempotent; reports any worker panic/error.
    pub fn stop(&mut self) -> Result<()> {
        match std::mem::replace(&mut self.backend, Backend::Pump(Vec::new())) {
            Backend::Pump(units) => {
                self.backend = Backend::Pump(units);
                Ok(())
            }
            Backend::Threaded(runtime) => {
                let (units, result) = runtime.stop();
                self.backend = Backend::Pump(units);
                result
            }
        }
    }

    /// True while the back-end runs on worker threads.
    pub fn is_running(&self) -> bool {
        matches!(self.backend, Backend::Threaded(_))
    }

    /// Errors once any worker thread has failed (threaded mode only).
    pub fn health(&self) -> Result<()> {
        match &self.backend {
            Backend::Pump(_) => Ok(()),
            Backend::Threaded(runtime) => runtime.health(),
        }
    }

    /// Pump every processor unit once (pump mode). In threaded mode the
    /// units are pumped by their worker threads and this does nothing.
    /// Returns true if a unit reported a non-zero count.
    pub fn pump(&mut self) -> Result<bool> {
        let mut busy = false;
        if let Backend::Pump(units) = &mut self.backend {
            for unit in units {
                busy |= unit.pump()? != PumpReport::default();
            }
        }
        Ok(busy)
    }

    /// This node's processor units (diagnostics). Empty while threaded —
    /// the units are owned by their worker threads.
    pub fn units(&self) -> &[ProcessorUnit] {
        match &self.backend {
            Backend::Pump(units) => units,
            Backend::Threaded(_) => &[],
        }
    }

    /// Drain every unit: flush a final checkpoint of each task with
    /// uncheckpointed progress, then leave the groups (the node half of
    /// the scheduled-drain protocol — see `Cluster::drain_node`). Stops
    /// worker threads first so the units are drainable inline. All units
    /// flush **before** any unit unsubscribes: the first departure
    /// triggers the rebalance that moves this node's tasks, and every
    /// image must already be published by then. Returns the number of
    /// checkpoint images flushed.
    pub fn drain_units(&mut self) -> Result<usize> {
        self.stop()?;
        let mut flushed = 0;
        if let Backend::Pump(units) = &mut self.backend {
            for unit in units.iter_mut() {
                flushed += unit.drain()?;
            }
            for unit in units.iter_mut() {
                unit.shutdown();
            }
        }
        Ok(flushed)
    }
}

//! The threaded execution runtime: one OS thread per processor unit.
//!
//! The paper meets its MAD requirements by running each processor unit on
//! its own thread over partitioned topics (§3.2, Figure 3) — one logical
//! thread per partition set, no cross-unit synchronization. This module
//! supplies that execution mode for the in-process cluster: a [`Runtime`]
//! owns the worker threads, each wrapping the unit's deterministic pump in
//! [`crate::unit::ProcessorUnit::run_loop`].
//!
//! Lifecycle:
//!
//! * **spawn** — every unit moves onto a dedicated named OS thread;
//! * **idle** — workers park on the message bus's condvar wakeup path
//!   (no spinning), waking at a heartbeat interval so group membership
//!   and `BusClock::Auto` expiry keep running;
//! * **stop** — a shared stop flag is raised and every parked worker is
//!   woken through the same path; threads finish their current pump and
//!   return their unit, so the node can fall back to deterministic pump
//!   mode (or restart) with all state intact;
//! * **panic/error propagation** — a worker that panics or returns an
//!   engine error raises the failure flag it was spawned with (one flag
//!   per cluster, shared by every node's runtime and every client) and
//!   wakes everyone; a collect checks the flag each time it has to wait
//!   instead of timing out blind, and [`Runtime::stop`] reports the
//!   collected failure messages.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use railgun_messaging::MessageBus;
use railgun_types::{RailgunError, Result};

use crate::unit::ProcessorUnit;

/// How one worker thread ended.
enum UnitExit {
    /// Clean stop: the unit is handed back for pump-mode reuse.
    Clean(Box<ProcessorUnit>),
    /// The unit's run loop returned an engine error or panicked.
    Failed(String),
}

struct Worker {
    label: String,
    handle: JoinHandle<UnitExit>,
}

/// A running fleet of per-unit worker threads.
pub struct Runtime {
    stop: Arc<AtomicBool>,
    bus: MessageBus,
    workers: Vec<Worker>,
}

impl Runtime {
    /// Move every unit onto its own OS thread and start pumping.
    ///
    /// If any thread fails to spawn (resource exhaustion), the
    /// already-started workers are stopped and the surviving units are
    /// handed back with the error so the caller can keep running them in
    /// pump mode. Only the one unit whose thread failed is lost (the std
    /// spawn API drops its closure); its group membership lapses and its
    /// tasks reassign to the survivors — the same path as a unit crash.
    /// A worker that fails raises `failed`.
    pub fn spawn(
        bus: MessageBus,
        units: Vec<ProcessorUnit>,
        failed: Arc<AtomicBool>,
    ) -> std::result::Result<Runtime, (Vec<ProcessorUnit>, RailgunError)> {
        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::with_capacity(units.len());
        let mut remaining = units.into_iter();
        while let Some(mut unit) = remaining.next() {
            let id = unit.identity();
            let label = format!("railgun-n{}-u{}", id.node, id.unit);
            let stop_flag = Arc::clone(&stop);
            let failed_flag = Arc::clone(&failed);
            let wake_bus = bus.clone();
            let spawned = std::thread::Builder::new().name(label.clone()).spawn(
                move || {
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        let r = unit.run_loop(&stop_flag);
                        (unit, r)
                    }));
                    match outcome {
                        Ok((unit, Ok(()))) => UnitExit::Clean(Box::new(unit)),
                        Ok((_, Err(e))) => {
                            failed_flag.store(true, Ordering::Release);
                            // Wake clients blocked on replies that will
                            // never come.
                            wake_bus.wake_all();
                            UnitExit::Failed(format!("unit error: {e}"))
                        }
                        Err(payload) => {
                            failed_flag.store(true, Ordering::Release);
                            wake_bus.wake_all();
                            UnitExit::Failed(format!(
                                "unit panicked: {}",
                                panic_message(&payload)
                            ))
                        }
                    }
                },
            );
            match spawned {
                Ok(handle) => workers.push(Worker { label, handle }),
                Err(e) => {
                    // Roll back the partial fleet, recovering its units
                    // plus the ones never offered to a thread.
                    let partial = Runtime { stop, bus, workers };
                    let (mut recovered, _) = partial.stop();
                    recovered.extend(remaining);
                    return Err((recovered, RailgunError::Io(e)));
                }
            }
        }
        Ok(Runtime { stop, bus, workers })
    }

    /// Raise the stop flag, wake every parked worker, join the threads and
    /// hand the units back. On failure the surviving units are still
    /// returned alongside the collected failure messages.
    pub fn stop(mut self) -> (Vec<ProcessorUnit>, Result<()>) {
        self.stop.store(true, Ordering::Release);
        self.bus.wake_all();
        let mut units = Vec::with_capacity(self.workers.len());
        let mut failures = Vec::new();
        for worker in self.workers.drain(..) {
            match worker.handle.join() {
                Ok(UnitExit::Clean(unit)) => units.push(*unit),
                Ok(UnitExit::Failed(msg)) => {
                    failures.push(format!("{}: {msg}", worker.label));
                }
                // Unreachable in practice (panics are caught in the worker)
                // but a double-panic during unwind would land here.
                Err(payload) => failures.push(format!(
                    "{}: worker thread died: {}",
                    worker.label,
                    panic_message(&payload)
                )),
            }
        }
        let result = if failures.is_empty() {
            Ok(())
        } else {
            Err(RailgunError::Engine(failures.join("; ")))
        };
        (units, result)
    }
}

impl Drop for Runtime {
    /// A runtime dropped without [`Runtime::stop`] (e.g. a cluster that is
    /// simply let go at the end of a test) must not leak live worker
    /// threads: raise the stop flag, wake the parked ones, and join.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.bus.wake_all();
        for worker in self.workers.drain(..) {
            let _ = worker.handle.join();
        }
    }
}

/// Errors once `failed` is raised: a worker spawned with it has panicked
/// or bailed with an engine error.
pub(crate) fn health(failed: &AtomicBool) -> Result<()> {
    if failed.load(Ordering::Acquire) {
        Err(RailgunError::Engine(
            "a processor unit worker thread failed; stop() has the details".into(),
        ))
    } else {
        Ok(())
    }
}

/// Best-effort human-readable panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".into()
    }
}

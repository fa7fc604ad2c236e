//! Elastic membership: the autoscaler controller of the paper's
//! Figure 10 story.
//!
//! Railgun's elasticity rests on three layers. The first two live where
//! the state is: **checkpoint-based handover** (a rebalance-gained task
//! restores the newest checkpoint image and replays only the tail —
//! `ProcessorUnit::open_task`) and **scheduled drain** (a departing
//! node flushes final checkpoints before its tasks move —
//! [`Cluster::drain_node`](crate::cluster::Cluster::drain_node)). This
//! module is the third: a **controller loop** that closes the gap from
//! observed load to reconfiguration, deciding *when* to add a node and
//! when to drain one, from nothing but a [`MetricsSnapshot`].
//!
//! ## Policy
//!
//! The controller is deliberately boring — a pair of debounced
//! threshold rules with hysteresis, no prediction:
//!
//! * **scale up** when any SLO-tracked query's p99 has been at or above
//!   [`AutoscalerConfig::slo_headroom`] × its budget for
//!   [`AutoscalerConfig::scale_up_after`] consecutive observations
//!   (acting *before* the budget is breached is the M in MAD — once the
//!   p99 crosses the budget itself, the breach counters are already
//!   moving);
//! * **scale down** when the cluster processed zero new events for
//!   [`AutoscalerConfig::shrink_after`] consecutive observations
//!   (shrink is via drain, so an occasional false positive costs a
//!   short handover, never data);
//! * after either action, **hold** for [`AutoscalerConfig::cooldown`]
//!   observations so the previous decision's effect is visible in the
//!   ladders before the next one (rebalance + tail replay take a few
//!   observation periods to settle — reacting to mid-rebalance latency
//!   would oscillate);
//! * never leave `min_nodes..=max_nodes`.
//!
//! The asymmetry (up on latency, down on idleness) is intentional: load
//! can spike faster than it fades, and adding capacity is the cheap,
//! reversible direction — a wrong `Add` wastes a node for a cooldown,
//! a wrong `Shrink` under load costs latency SLOs.
//!
//! The controller itself never touches the cluster: it returns a
//! [`ScaleDecision`] and
//! [`Cluster::autoscale_tick`](crate::cluster::Cluster::autoscale_tick)
//! executes it (add a node, or drain the newest one). That keeps the
//! policy a pure, unit-testable function of observations.

use crate::metrics::MetricsSnapshot;

/// Bounds and hysteresis of the autoscaler controller, carried in
/// `ClusterConfig::autoscaler`.
#[derive(Debug, Clone)]
pub struct AutoscalerConfig {
    /// Master switch: with `false` (default), `autoscale_tick` observes
    /// nothing and never acts.
    pub enabled: bool,
    /// Never drain below this many nodes.
    pub min_nodes: usize,
    /// Never add above this many nodes.
    pub max_nodes: usize,
    /// A query is "hot" when its p99 ≥ `slo_headroom` × its SLO budget.
    /// 0.8 means: act when 80% of the budget is consumed at p99.
    pub slo_headroom: f64,
    /// Consecutive hot observations before a scale-up.
    pub scale_up_after: u32,
    /// Consecutive zero-progress observations before a scale-down.
    pub shrink_after: u32,
    /// Observations to hold after any action before deciding again.
    pub cooldown: u32,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            enabled: false,
            min_nodes: 1,
            max_nodes: 8,
            slo_headroom: 0.8,
            scale_up_after: 3,
            shrink_after: 5,
            cooldown: 3,
        }
    }
}

/// What the controller wants done after one observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// No change (streak building, cooling down, or at a bound).
    Hold,
    /// Add one node.
    Add,
    /// Drain and remove one node.
    Shrink,
}

/// The debounced threshold controller. Feed it one [`MetricsSnapshot`]
/// per observation period via [`Autoscaler::observe`]; it keeps the
/// streak/cooldown state between calls.
#[derive(Debug)]
pub struct Autoscaler {
    cfg: AutoscalerConfig,
    hot_streak: u32,
    idle_streak: u32,
    cooldown_left: u32,
    /// `tasks.events_processed` of the previous observation, to turn the
    /// monotone counter into per-period progress.
    last_events: u64,
    primed: bool,
}

impl Autoscaler {
    /// A fresh controller with no observation history.
    pub fn new(cfg: AutoscalerConfig) -> Self {
        Autoscaler {
            cfg,
            hot_streak: 0,
            idle_streak: 0,
            cooldown_left: 0,
            last_events: 0,
            primed: false,
        }
    }

    /// The configured bounds and hysteresis.
    pub fn config(&self) -> &AutoscalerConfig {
        &self.cfg
    }

    /// True when any SLO-tracked query's p99 is inside the headroom.
    fn is_hot(&self, snap: &MetricsSnapshot) -> bool {
        snap.queries.iter().any(|q| {
            let Some(slo) = q.slo else { return false };
            if q.completed == 0 {
                return false;
            }
            let budget_us = (slo.as_millis().max(0) as u64).saturating_mul(1_000);
            budget_us > 0
                && q.latency.percentile(0.99) as f64 >= self.cfg.slo_headroom * budget_us as f64
        })
    }

    /// Ingest one observation and decide. Call at a fixed cadence — the
    /// streak and cooldown constants are denominated in calls, not
    /// seconds, so the caller's period *is* the controller's time unit.
    pub fn observe(&mut self, snap: &MetricsSnapshot, nodes: usize) -> ScaleDecision {
        if !self.cfg.enabled {
            return ScaleDecision::Hold;
        }
        let events = snap.tasks.events_processed;
        let progressed = events > self.last_events;
        self.last_events = events;
        // The first observation has no previous counter to diff against:
        // prime and hold.
        if !self.primed {
            self.primed = true;
            return ScaleDecision::Hold;
        }
        let hot = self.is_hot(snap);
        if hot {
            self.hot_streak += 1;
            self.idle_streak = 0;
        } else if !progressed {
            self.idle_streak += 1;
            self.hot_streak = 0;
        } else {
            self.hot_streak = 0;
            self.idle_streak = 0;
        }
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return ScaleDecision::Hold;
        }
        if self.hot_streak >= self.cfg.scale_up_after && nodes < self.cfg.max_nodes {
            self.hot_streak = 0;
            self.idle_streak = 0;
            self.cooldown_left = self.cfg.cooldown;
            return ScaleDecision::Add;
        }
        if self.idle_streak >= self.cfg.shrink_after && nodes > self.cfg.min_nodes {
            self.hot_streak = 0;
            self.idle_streak = 0;
            self.cooldown_left = self.cfg.cooldown;
            return ScaleDecision::Shrink;
        }
        ScaleDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::QueryId;
    use crate::metrics::{EngineTelemetry, QueryMetrics};
    use railgun_types::{Histogram, TimeDelta};

    /// A snapshot with `events` total processed and one SLO query whose
    /// p99 sits at `p99_us` against a 10 ms budget.
    fn snap(events: u64, p99_us: Option<u64>) -> MetricsSnapshot {
        let mut s = EngineTelemetry::new(false).snapshot();
        s.tasks.events_processed = events;
        if let Some(us) = p99_us {
            let mut latency = Histogram::default();
            latency.record_n(us, 100);
            s.queries.push(QueryMetrics {
                id: QueryId(1),
                latency,
                slo: Some(TimeDelta::from_millis(10)),
                breaches: 0,
                completed: 100,
            });
        }
        s
    }

    fn scaler(min: usize, max: usize) -> Autoscaler {
        Autoscaler::new(AutoscalerConfig {
            enabled: true,
            min_nodes: min,
            max_nodes: max,
            slo_headroom: 0.8,
            scale_up_after: 3,
            shrink_after: 3,
            cooldown: 2,
        })
    }

    #[test]
    fn disabled_controller_always_holds() {
        let mut a = Autoscaler::new(AutoscalerConfig::default());
        for i in 0..10 {
            assert_eq!(a.observe(&snap(0, Some(1_000_000)), 1 + i), ScaleDecision::Hold);
        }
    }

    #[test]
    fn sustained_hot_p99_scales_up_after_streak() {
        let mut a = scaler(1, 4);
        // 8 ms p99 against a 10 ms budget = inside the 0.8 headroom.
        let hot = |i: u64| snap(i * 100, Some(8_000));
        assert_eq!(a.observe(&hot(1), 2), ScaleDecision::Hold); // priming
        assert_eq!(a.observe(&hot(2), 2), ScaleDecision::Hold); // streak 1
        assert_eq!(a.observe(&hot(3), 2), ScaleDecision::Hold); // streak 2
        assert_eq!(a.observe(&hot(4), 2), ScaleDecision::Add); // streak 3
        // Cooldown: two observations held even though still hot.
        assert_eq!(a.observe(&hot(5), 3), ScaleDecision::Hold);
        assert_eq!(a.observe(&hot(6), 3), ScaleDecision::Hold);
        // Streak kept building through cooldown; next call may act.
        assert_eq!(a.observe(&hot(7), 3), ScaleDecision::Add);
    }

    #[test]
    fn comfortable_p99_never_scales_up() {
        let mut a = scaler(1, 4);
        for i in 1..10 {
            // 2 ms p99 against 10 ms budget: far below the headroom, and
            // events keep flowing so it is not idle either.
            assert_eq!(a.observe(&snap(i * 100, Some(2_000)), 2), ScaleDecision::Hold);
        }
    }

    #[test]
    fn sustained_idle_shrinks_and_respects_min_nodes() {
        let mut a = scaler(2, 4);
        assert_eq!(a.observe(&snap(500, None), 3), ScaleDecision::Hold); // prime
        assert_eq!(a.observe(&snap(500, None), 3), ScaleDecision::Hold); // idle 1
        assert_eq!(a.observe(&snap(500, None), 3), ScaleDecision::Hold); // idle 2
        assert_eq!(a.observe(&snap(500, None), 3), ScaleDecision::Shrink); // idle 3
        // Cooldown, then another shrink would trigger — but at min_nodes
        // the controller holds instead.
        for _ in 0..10 {
            assert_eq!(a.observe(&snap(500, None), 2), ScaleDecision::Hold);
        }
    }

    #[test]
    fn max_nodes_caps_scale_up() {
        let mut a = scaler(1, 2);
        let hot = |i: u64| snap(i * 100, Some(9_500));
        a.observe(&hot(1), 2);
        for i in 2..12 {
            assert_eq!(
                a.observe(&hot(i), 2),
                ScaleDecision::Hold,
                "already at max_nodes"
            );
        }
    }

    #[test]
    fn progress_resets_idle_streak() {
        let mut a = scaler(1, 4);
        a.observe(&snap(100, None), 2); // prime
        a.observe(&snap(100, None), 2); // idle 1
        a.observe(&snap(100, None), 2); // idle 2
        // Progress: the streak must restart, so two more idle
        // observations still hold.
        assert_eq!(a.observe(&snap(200, None), 2), ScaleDecision::Hold);
        assert_eq!(a.observe(&snap(200, None), 2), ScaleDecision::Hold);
        assert_eq!(a.observe(&snap(200, None), 2), ScaleDecision::Hold);
        assert_eq!(a.observe(&snap(200, None), 2), ScaleDecision::Shrink);
    }
}

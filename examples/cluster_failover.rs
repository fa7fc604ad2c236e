//! Distributed operation: elasticity, abrupt node failure, and failover to
//! replicas under the Figure 7 sticky assignment strategy.
//!
//! A 3-node cluster with replication factor 2 serves per-card counts
//! registered through the typed query builder. One node is killed without
//! warning; the messaging layer's heartbeat timeout expels it, the sticky
//! strategy fails its tasks over to the processors already holding
//! replicas, and per-card metrics stay exact — read back through keyed
//! `(QueryId, index)` reply accessors.
//!
//! Run with: `cargo run --release --example cluster_failover`

use railgun::engine::lang::{hours, Agg, Query, Window};
use railgun::engine::unit::ACTIVE_GROUP;
use railgun::engine::{Cluster, ClusterConfig};
use railgun::types::{FieldType, Schema, Timestamp, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = ClusterConfig {
        nodes: 3,
        units_per_node: 1,
        partitions: 6,
        replication: 2,
        session_timeout_ms: 1_000,
        ..ClusterConfig::default()
    };
    cfg.data_root = std::env::temp_dir().join(format!(
        "railgun-ex-failover-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&cfg.data_root).ok();
    let mut cluster = Cluster::new(cfg)?;

    let schema = Schema::from_pairs(&[("cardId", FieldType::Str), ("amount", FieldType::Float)])?;
    cluster.create_stream("payments", schema, &["cardId"])?;
    let per_card = cluster.register_query(
        &Query::select(Agg::count())
            .select(Agg::sum("amount"))
            .from("payments")
            .group_by(["cardId"])
            .over(Window::sliding(hours(1)))
            .text()?,
    )?;

    println!("3 nodes, 6 partitions, replication factor 2");
    println!("registered query {per_card} ({} known)", cluster.queries().len());
    // The coordinator's generation of the active group: one per rebalance.
    println!("strategy generation: {}", cluster.bus().group_generation(ACTIVE_GROUP));

    // Phase 1: traffic across 6 cards.
    for round in 0..3 {
        for card in 0..6 {
            cluster.send(
                "payments",
                Timestamp::from_millis(round * 10_000 + card * 100),
                vec![Value::from(format!("card-{card}")), Value::from(10.0)],
            )?;
        }
    }
    println!("phase 1: sent 3 rounds x 6 cards");

    // Phase 2: kill node 1 abruptly (no goodbye). Survivors heartbeat
    // while the logical clock advances past the session timeout.
    cluster.kill_node(1)?;
    for step in 1..=10 {
        cluster.advance_time(step * 500);
        cluster.settle()?;
    }
    println!(
        "phase 2: node killed; coordinator expelled it (generation {}), tasks failed over",
        cluster.bus().group_generation(ACTIVE_GROUP)
    );
    // A cold assignment puts a task copy on a unit that held neither its
    // active copy nor a replica: the unit restores or replays it.
    println!(
        "         cold assignments so far: {} (sticky strategy minimizes data shuffle)",
        cluster.strategy().cold_assignments()
    );

    // Phase 3: accuracy survives — every card must report count 4.
    let mut all_exact = true;
    for card in 0..6 {
        let reply = cluster.send(
            "payments",
            Timestamp::from_millis(60_000 + card),
            vec![Value::from(format!("card-{card}")), Value::from(10.0)],
        )?;
        let count = reply.get_i64(per_card, 0).unwrap_or(-1);
        let sum = reply.get_f64(per_card, 1).unwrap_or(-1.0);
        let exact = count == 4 && (sum - 40.0).abs() < 1e-9;
        all_exact &= exact;
        println!(
            "  card-{card}: count={count} sum={sum} {}",
            if exact { "✓" } else { "✗ WRONG" }
        );
    }
    assert!(all_exact, "metrics must stay exact across failover");

    // Phase 4: elasticity — add a node, rebalance is sticky.
    let id = cluster.add_node()?;
    println!(
        "phase 4: added node {id}; generation {}",
        cluster.bus().group_generation(ACTIVE_GROUP)
    );
    let reply = cluster.send(
        "payments",
        Timestamp::from_millis(120_000),
        vec![Value::from("card-0"), Value::from(10.0)],
    )?;
    println!(
        "  card-0 after scale-out: count={} (exactness preserved)",
        reply.get_i64(per_card, 0).unwrap_or(-1)
    );
    println!("\nFailover + elasticity with exact per-entity metrics — the D in MAD.");
    Ok(())
}

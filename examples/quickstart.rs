//! Quickstart: boot an in-process Railgun cluster behind the typed
//! [`Session`] facade, register the paper's Example 1 queries with the
//! programmatic query builder, and stream a few payments through it with
//! the schema-checked event builder.
//!
//! Run with: `cargo run --release --example quickstart`

use railgun::engine::lang::{mins, Agg, Query, Window};
use railgun::engine::{ClusterConfig, Session};
use railgun::types::{FieldType, Timestamp};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A single-node cluster: one front-end, one processor unit, and the
    // in-process messaging layer — Figure 3 of the paper in one process.
    let mut session = Session::new(ClusterConfig::single_node())?;

    // Register the `payments` stream. Partitioners become event topics:
    // every event is routed to one partition per partitioner, keyed by the
    // partitioner's value, so per-entity metrics stay accurate when the
    // cluster scales out.
    let payments = session.create_stream(
        "payments",
        &[
            ("cardId", FieldType::Str),
            ("merchantId", FieldType::Str),
            ("amount", FieldType::Float),
        ],
        &["cardId", "merchantId"],
    )?;

    // Q1 and Q2 of the paper (Example 1), built programmatically: per-card
    // sum/count and per-merchant average, both over true real-time sliding
    // windows. The builder writes the Figure 4 statement, and the session
    // registers that text as it would a hand-written one.
    let per_card = session.register(
        Query::select(Agg::sum("amount"))
            .select(Agg::count())
            .from("payments")
            .group_by(["cardId"])
            .over(Window::sliding(mins(5))),
    )?;
    let per_merchant = session.register(
        Query::select(Agg::avg("amount"))
            .from("payments")
            .group_by(["merchantId"])
            .over(Window::sliding(mins(5))),
    )?;

    // Stream events, built by field name and schema-checked before they
    // leave the client. Every reply carries the aggregations evaluated at
    // this exact event — accurate event-by-event, not at hop boundaries —
    // keyed by (query id, SELECT index) instead of display-name matching.
    let payments_data = [
        ("card-A", "shop-1", 25.0, 1_000),
        ("card-A", "shop-2", 40.0, 61_000),
        ("card-B", "shop-1", 15.0, 95_000),
        ("card-A", "shop-1", 10.0, 240_000),
        // 6.5 minutes in: card-A's first payment has left the window.
        ("card-A", "shop-2", 5.0, 390_000),
    ];
    for (card, merchant, amount, ts_ms) in payments_data {
        let event = payments
            .event(Timestamp::from_millis(ts_ms))
            .set("cardId", card)
            .set("merchantId", merchant)
            .set("amount", amount)
            .build()?;
        let reply = session.send(event)?;
        println!("t={ts_ms:>6}ms {card} pays {amount:>5.2} at {merchant}");
        println!(
            "    {:<28} sum={:<8} count={}",
            format!("card {card} (5min):"),
            reply.get_f64(&per_card, 0).unwrap_or(0.0),
            reply.get_i64(&per_card, 1).unwrap_or(0),
        );
        println!(
            "    {:<28} avg={:.2}",
            format!("merchant {merchant} (5min):"),
            reply.get_f64(&per_merchant, 0).unwrap_or(0.0),
        );
    }

    // Full lifecycle: queries can be listed and unregistered; the torn
    // down query's aggregations vanish from subsequent replies.
    println!("\nregistered queries: {}", session.queries().len());
    session.unregister(&per_merchant)?;
    let event = payments
        .event(Timestamp::from_millis(400_000))
        .set("cardId", "card-A")
        .set("merchantId", "shop-1")
        .set("amount", 1.0)
        .build()?;
    let reply = session.send(event)?;
    assert!(reply.get(&per_merchant, 0).is_none(), "unregistered");
    assert!(reply.get(&per_card, 0).is_some(), "still live");
    println!(
        "after unregister: per-merchant gone, per-card still live ({} queries)",
        session.queries().len()
    );
    Ok(())
}

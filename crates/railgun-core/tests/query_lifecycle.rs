//! The typed client API, end to end: builder↔parser plan equivalence,
//! the full register → send → unregister → send lifecycle with keyed
//! replies and task teardown, and front-end name validation.

use railgun_core::lang::{field, hours, millis, mins, secs, Agg, Query, Window};
use railgun_core::{parse_query, Cluster, ClusterConfig, Plan, QueryId, Session};
use railgun_messaging::TopicPartition;
use railgun_types::{FieldType, Schema, Timestamp, Value};

fn payments_schema() -> Schema {
    Schema::from_pairs(&[
        ("cardId", FieldType::Str),
        ("merchantId", FieldType::Str),
        ("amount", FieldType::Float),
    ])
    .unwrap()
}

fn fresh_config(tag: &str, nodes: u32, units: u32, partitions: u32) -> ClusterConfig {
    let mut cfg = ClusterConfig {
        nodes,
        units_per_node: units,
        partitions,
        ..ClusterConfig::default()
    };
    cfg.data_root = std::env::temp_dir().join(format!(
        "railgun-lifecycle-{}-{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&cfg.data_root).ok();
    cfg
}

/// Builder-constructed queries must compile to plans *structurally
/// identical* to their text-parsed equivalents: equal ASTs in, and a
/// byte-identical Debug rendering of the shared-prefix DAG out (same
/// node ids, same sharing, same resolved field indexes, same refs).
#[test]
fn builder_and_parser_compile_to_identical_plans() {
    let cases: Vec<(Query, &str)> = vec![
        (
            Query::select(Agg::sum("amount"))
                .select(Agg::count())
                .from("payments")
                .group_by(["cardId"])
                .over(Window::sliding(mins(5)))
                .build()
                .unwrap(),
            "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 5 min",
        ),
        (
            Query::select(Agg::avg("amount"))
                .from("payments")
                .filter(field("amount").gt(100).and(field("merchantId").ne_to("m-0")))
                .group_by(["cardId", "merchantId"])
                .over(Window::tumbling(hours(1)))
                .build()
                .unwrap(),
            "SELECT avg(amount) FROM payments \
             WHERE amount > 100 AND merchantId != 'm-0' \
             GROUP BY cardId, merchantId OVER tumbling 1 h",
        ),
        (
            Query::select(Agg::count_distinct("merchantId"))
                .from("payments")
                .group_by(["cardId"])
                .over(Window::infinite())
                .build()
                .unwrap(),
            "SELECT countDistinct(merchantId) FROM payments GROUP BY cardId OVER infinite",
        ),
        (
            Query::select(Agg::min("amount"))
                .select(Agg::max("amount"))
                .from("payments")
                .filter(field("merchantId").is_not_null())
                .group_by(["cardId"])
                .over(Window::sliding(secs(90)).delayed_by(millis(1500)))
                .build()
                .unwrap(),
            "SELECT min(amount), max(amount) FROM payments \
             WHERE merchantId IS NOT NULL \
             GROUP BY cardId OVER sliding 90 s delayed by 1500 ms",
        ),
    ];
    let schema = payments_schema();
    for (built, text) in cases {
        let parsed = parse_query(text).unwrap();
        assert_eq!(built, parsed, "AST equivalence for: {text}");

        // Same registration id on both sides → the plans must be
        // indistinguishable, node for node, ref for ref.
        let id = QueryId(42);
        let mut plan_a = Plan::new();
        let mut plan_b = Plan::new();
        let ha = plan_a.add_query(id, &built, &schema).unwrap();
        let hb = plan_b.add_query(id, &parsed, &schema).unwrap();
        assert_eq!(ha, hb, "handles for: {text}");
        assert_eq!(
            format!("{plan_a:?}"),
            format!("{plan_b:?}"),
            "plan structure for: {text}"
        );
    }
}

/// The acceptance scenario: register two queries, send, unregister one,
/// send again — the unregistered query's aggregations must be absent
/// from keyed replies and its tasks torn down (cursors dropped, state
/// gone), while the surviving query keeps exact values.
#[test]
fn register_send_unregister_send_with_teardown() {
    let mut cluster = Cluster::new(fresh_config("teardown", 1, 1, 2)).unwrap();
    cluster
        .create_stream("payments", payments_schema(), &["cardId"])
        .unwrap();
    let q_window = cluster
        .register_query(
            &Query::select(Agg::sum("amount"))
                .select(Agg::count())
                .from("payments")
                .group_by(["cardId"])
                .over(Window::sliding(mins(5)))
                .text()
                .unwrap(),
        )
        .unwrap();
    let q_distinct = cluster
        .register_query(
            "SELECT countDistinct(merchantId) FROM payments GROUP BY cardId OVER infinite",
        )
        .unwrap();
    assert_eq!(
        cluster.queries().iter().map(|q| q.id).collect::<Vec<_>>(),
        vec![q_window, q_distinct]
    );

    let send = |cluster: &mut Cluster, merchant: &str, amount: f64, ts: i64| {
        cluster
            .send(
                "payments",
                Timestamp::from_millis(ts),
                vec![
                    Value::from("card-A"),
                    Value::from(merchant),
                    Value::from(amount),
                ],
            )
            .unwrap()
    };

    let r = send(&mut cluster, "m1", 10.0, 1_000);
    assert_eq!(r.get_f64(q_window, 0), Some(10.0), "sum keyed (q, 0)");
    assert_eq!(r.get_i64(q_window, 1), Some(1), "count keyed (q, 1)");
    assert_eq!(r.get_i64(q_distinct, 0), Some(1));
    assert_eq!(r.get(q_window, 2), None, "no third aggregation");
    assert_eq!(r.get(QueryId(0xdead), 0), None, "unknown id");
    let r = send(&mut cluster, "m2", 30.0, 2_000);
    assert_eq!(r.get_f64(q_window, 0), Some(40.0));
    assert_eq!(r.get_i64(q_distinct, 0), Some(2));

    // Count live cursors on the card topic's tasks before teardown.
    let cursors = |cluster: &Cluster| -> usize {
        cluster
            .nodes()
            .iter()
            .flat_map(|n| n.units())
            .flat_map(|u| {
                (0..2).filter_map(move |p| {
                    u.task(&TopicPartition::new("payments--cardId", p))
                        .map(|t| t.iterator_count())
                })
            })
            .sum()
    };
    let cursors_before = cursors(&cluster);
    assert!(cursors_before > 0, "sliding window holds cursors");

    // Unregister the windowed query.
    cluster.unregister_query(q_window).unwrap();
    assert_eq!(
        cluster.queries().iter().map(|q| q.id).collect::<Vec<_>>(),
        vec![q_distinct]
    );

    // Its aggregations are gone from keyed replies; the survivor is exact.
    let r = send(&mut cluster, "m3", 5.0, 3_000);
    assert_eq!(r.get(q_window, 0), None, "unregistered sum absent");
    assert_eq!(r.get(q_window, 1), None, "unregistered count absent");
    assert_eq!(r.get_i64(q_distinct, 0), Some(3), "m1, m2, m3");

    // Task-level teardown: every cursor of the dead sliding window is
    // dropped (the infinite-window query keeps only head cursors).
    let cursors_after = cursors(&cluster);
    assert!(
        cursors_after < cursors_before,
        "cursors must shrink: {cursors_before} -> {cursors_after}"
    );
    for node in cluster.nodes() {
        for unit in node.units() {
            assert_eq!(unit.queries().len(), 1, "unit query registry pruned");
            for p in 0..2 {
                if let Some(task) =
                    unit.task(&TopicPartition::new("payments--cardId", p))
                {
                    assert_eq!(task.query_ids(), vec![q_distinct]);
                    assert_eq!(task.leaf_count(), 1, "only countDistinct left");
                }
            }
        }
    }

    // Unregistering an unknown id errors cleanly at the front-end.
    assert!(cluster.unregister_query(q_window).is_err());
}

/// Unregistering one of two queries sharing a window keeps the shared
/// window (and the other query's values) fully intact.
#[test]
fn shared_window_survives_partial_unregister() {
    let mut cluster = Cluster::new(fresh_config("shared", 1, 1, 1)).unwrap();
    cluster
        .create_stream("payments", payments_schema(), &["cardId"])
        .unwrap();
    let q_sum = cluster
        .register_query(
            &Query::select(Agg::sum("amount"))
                .from("payments")
                .group_by(["cardId"])
                .over(Window::sliding(mins(5)))
                .text()
                .unwrap(),
        )
        .unwrap();
    let q_count = cluster
        .register_query(
            &Query::select(Agg::count())
                .from("payments")
                .group_by(["cardId"])
                .over(Window::sliding(mins(5)))
                .text()
                .unwrap(),
        )
        .unwrap();
    for i in 1..=3 {
        cluster
            .send(
                "payments",
                Timestamp::from_millis(i * 1_000),
                vec![Value::from("c"), Value::from("m"), Value::from(2.0)],
            )
            .unwrap();
    }
    cluster.unregister_query(q_sum).unwrap();
    let r = cluster
        .send(
            "payments",
            Timestamp::from_millis(10_000),
            vec![Value::from("c"), Value::from("m"), Value::from(2.0)],
        )
        .unwrap();
    assert_eq!(r.get(q_sum, 0), None);
    assert_eq!(r.get_i64(q_count, 0), Some(4), "shared window kept exact");
}

/// Re-registering after an unregister starts fresh and backfills from
/// the reservoir — the same semantics a brand-new query gets.
#[test]
fn reregistration_backfills_through_the_stack() {
    let mut cluster = Cluster::new(fresh_config("rereg", 1, 1, 1)).unwrap();
    cluster
        .create_stream("payments", payments_schema(), &["cardId"])
        .unwrap();
    let q = Query::select(Agg::count())
        .from("payments")
        .group_by(["cardId"])
        .over(Window::sliding(hours(1)))
        .text()
        .unwrap();
    let first = cluster.register_query(&q).unwrap();
    for i in 1..=3 {
        cluster
            .send(
                "payments",
                Timestamp::from_millis(i * 1_000),
                vec![Value::from("c"), Value::from("m"), Value::from(1.0)],
            )
            .unwrap();
    }
    cluster.unregister_query(first).unwrap();
    let second = cluster.register_query(&q).unwrap();
    assert_ne!(first, second, "fresh registration, fresh id");
    let r = cluster
        .send(
            "payments",
            Timestamp::from_millis(10_000),
            vec![Value::from("c"), Value::from("m"), Value::from(1.0)],
        )
        .unwrap();
    assert_eq!(r.get(first, 0), None, "old id stays dead");
    assert_eq!(r.get_i64(second, 0), Some(4), "3 backfilled + 1 new");
}

/// Query lifecycle works identically across the threaded runtime.
#[test]
fn lifecycle_under_threaded_runtime() {
    let mut cfg = fresh_config("threaded", 1, 2, 4);
    cfg.clock = railgun_messaging::BusClock::Auto;
    let mut cluster = Cluster::new(cfg).unwrap();
    cluster
        .create_stream("payments", payments_schema(), &["cardId"])
        .unwrap();
    let q = cluster
        .register_query(
            &Query::select(Agg::count())
                .from("payments")
                .group_by(["cardId"])
                .over(Window::sliding(hours(1)))
                .text()
                .unwrap(),
        )
        .unwrap();
    cluster.start().unwrap();
    for i in 1..=4 {
        let r = cluster
            .send(
                "payments",
                Timestamp::from_millis(i * 1_000),
                vec![Value::from("c"), Value::from("m"), Value::from(1.0)],
            )
            .unwrap();
        assert_eq!(r.get_i64(q, 0), Some(i));
    }
    // Unregister while the workers are live; the op propagates on their
    // pump. Poll until the teardown is visible in replies.
    cluster.unregister_query(q).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let r = cluster
            .send(
                "payments",
                Timestamp::from_millis(60_000),
                vec![Value::from("c"), Value::from("m"), Value::from(1.0)],
            )
            .unwrap();
        if r.get(q, 0).is_none() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "teardown never reached the workers"
        );
    }
    cluster.stop().unwrap();
}

/// Satellite: stream and partitioner names that would mis-split
/// `parse_topic_name` are rejected at `create_stream`.
#[test]
fn create_stream_rejects_unsplittable_names() {
    let mut cluster = Cluster::new(fresh_config("names", 1, 1, 1)).unwrap();
    // Empty stream name.
    assert!(cluster
        .create_stream("", payments_schema(), &["cardId"])
        .is_err());
    // `--` in the stream name: `a--b--cardId` would parse as ("a", ...).
    assert!(cluster
        .create_stream("a--b", payments_schema(), &["cardId"])
        .is_err());
    // `--` in a partitioner (schema field) name.
    let tricky = Schema::from_pairs(&[("card--id", FieldType::Str)]).unwrap();
    assert!(cluster.create_stream("s", tricky, &["card--id"]).is_err());
    // Sanity: a valid registration still works afterwards.
    cluster
        .create_stream("payments", payments_schema(), &["cardId"])
        .unwrap();
}

/// The cluster's own client is front-end 0, so the first query registered
/// on a fresh cluster is `QueryId(1)` — through the cluster and through a
/// session alike — and its id is one byte in every reply.
#[test]
fn the_first_query_of_a_fresh_cluster_is_query_one() {
    let text = "SELECT count(*) FROM payments GROUP BY cardId OVER infinite";
    let mut cluster = Cluster::new(fresh_config("first-id", 2, 1, 1)).unwrap();
    cluster
        .create_stream("payments", payments_schema(), &["cardId"])
        .unwrap();
    assert_eq!(cluster.register_query(text).unwrap(), QueryId(1));

    let mut session = Session::new(fresh_config("first-id-session", 1, 1, 1)).unwrap();
    session
        .create_stream_with_schema("payments", payments_schema(), &["cardId"])
        .unwrap();
    assert_eq!(session.register_text(text).unwrap().id(), QueryId(1));
}

//! Figure 6: the shared-prefix task plan DAG.
//!
//! Registers the paper's Q1 + Q2 (Example 1) plus two more queries —
//! built with the typed query builder — and prints how the plan shares
//! Window, Filter and GroupBy operators: the §4.1.2 optimization that
//! avoids repeating window advancement work. Also shows the plan *diff*
//! when a query is unregistered: leaves and windows nothing else shares
//! die, shared prefixes survive.
//!
//! Run with: `cargo run --release --example plan_sharing`

use railgun::engine::lang::{field, hours, mins, Agg, Query, Window};
use railgun::engine::{Plan, QueryId};
use railgun::types::{FieldType, Schema};

fn print_plan(plan: &Plan) {
    println!(
        "{} windows, {} filters, {} group-bys, {} live aggregator leaves",
        plan.windows.len(),
        plan.filters.len(),
        plan.groups.len(),
        plan.leaf_count()
    );
    for (wi, w) in plan.windows.iter().enumerate() {
        if w.filters.is_empty() {
            println!("Window[{wi}] {} (dead)", w.spec.display());
            continue;
        }
        println!("Window[{wi}] {}", w.spec.display());
        for &fi in &w.filters {
            let f = &plan.filters[fi];
            let label = f
                .expr
                .as_ref()
                .map(|e| format!("WHERE {}", e.canonical()))
                .unwrap_or_else(|| "(pass-through)".to_owned());
            println!("  Filter[{fi}] {label}");
            for &gi in &f.groups {
                let g = &plan.groups[gi];
                println!("    GroupBy[{gi}] {:?}", g.field_names);
                for &li in &g.leaves {
                    let leaf = &plan.leaves[li];
                    let names: Vec<&str> = leaf.names().collect();
                    println!("      Agg[{li}] {}", names.join(" / "));
                }
            }
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = Schema::from_pairs(&[
        ("cardId", FieldType::Str),
        ("merchantId", FieldType::Str),
        ("amount", FieldType::Float),
    ])?;

    let queries = [
        // Q1 and Q2 of the paper's Example 1.
        Query::select(Agg::sum("amount"))
            .select(Agg::count())
            .from("payments")
            .group_by(["cardId"])
            .over(Window::sliding(mins(5))),
        Query::select(Agg::avg("amount"))
            .from("payments")
            .group_by(["merchantId"])
            .over(Window::sliding(mins(5))),
        // Same window + group-by with a filter: shares the window node,
        // forks at the filter stage.
        Query::select(Agg::count())
            .from("payments")
            .filter(field("amount").gt(500))
            .group_by(["cardId"])
            .over(Window::sliding(mins(5))),
        // A different window: its own root.
        Query::select(Agg::max("amount"))
            .from("payments")
            .group_by(["cardId"])
            .over(Window::sliding(hours(1))),
    ];

    let mut plan = Plan::new();
    let mut ids = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let id = QueryId(i as u64 + 1);
        let handles = plan.add_query(id, &q.build()?, &schema)?;
        ids.push(id);
        println!("registered [{id}]: {}", q.text()?);
        for h in handles {
            println!("    -> leaf #{}: ({id}, {}) {}", h.leaf, h.index, h.name);
        }
    }

    println!("\n== Plan DAG (Figure 6 shape) ==");
    print_plan(&plan);
    println!(
        "\nState keys touched per event = number of live leaves = {} (paper §4.1.3).",
        plan.leaf_count()
    );
    // The Figure 6 invariant: Q1+Q2 share one window and one filter node.
    assert_eq!(plan.windows.len(), 2, "5-min window shared; 1-hour separate");

    // Unregister the 1-hour query: its window (and cursors, on a live
    // task) dies with it. Unregister Q1: the shared 5-minute window
    // survives because Q2 and the filtered count still use it.
    println!("\n== After unregistering the 1-hour max and Q1 ==");
    let diff = plan.remove_query(ids[3]);
    println!(
        "removing [{}]: {} refs gone, dead leaves {:?}, dead windows {:?}",
        ids[3], diff.removed_refs, diff.dead_leaves, diff.dead_windows
    );
    let diff = plan.remove_query(ids[0]);
    println!(
        "removing [{}]: {} refs gone, dead leaves {:?}, dead windows {:?} (window shared — survives)",
        ids[0], diff.removed_refs, diff.dead_leaves, diff.dead_windows
    );
    print_plan(&plan);
    assert!(diff.dead_windows.is_empty(), "5-min window still in use");
    assert_eq!(plan.leaf_count(), 2, "avg + filtered count remain");
    Ok(())
}

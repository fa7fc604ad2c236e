//! Task plans: the shared-prefix DAG of §4.1.2 (Figure 6).
//!
//! A task plan computes every metric of a task in the fixed operator order
//! `Window -> Filter -> GroupBy -> Aggregator`. Metrics that share a
//! window, filter, or group-by reuse the same DAG node, so shared work —
//! especially window advancement — happens once. This deliberate
//! restriction of expressibility (vs. Flink's free-form API) is what makes
//! the sharing optimization possible (§4.1.2).

use railgun_types::{RailgunError, Result, Schema};

use crate::api::QueryId;
use crate::expr::Expr;
use crate::lang::{AggFunc, Query, WindowSpec};

/// Index of a window node in [`Plan::windows`].
pub type WindowId = usize;
/// Index of a filter node in [`Plan::filters`].
pub type FilterId = usize;
/// Index of a group-by node in [`Plan::groups`] — also the prefix of the
/// group's state rows.
pub type GroupId = usize;
/// Index of an aggregator leaf in [`Plan::leaves`] — also the tag of its
/// slot in its group's state rows and the prefix of its aux keys.
pub type LeafId = usize;

/// Root of the DAG: one per distinct window spec.
#[derive(Debug)]
pub struct WindowNode {
    pub spec: WindowSpec,
    pub filters: Vec<FilterId>,
}

/// Filter stage (`None` = pass-through for queries without WHERE).
#[derive(Debug)]
pub struct FilterNode {
    pub window: WindowId,
    pub expr: Option<Expr>,
    canon: String,
    pub groups: Vec<GroupId>,
}

/// Group-by stage: extracts the entity key from an event.
#[derive(Debug)]
pub struct GroupNode {
    pub filter: FilterId,
    pub field_names: Vec<String>,
    pub field_indexes: Vec<usize>,
    pub leaves: Vec<LeafId>,
}

/// One registered metric riding on a leaf: which query it belongs to,
/// its position in that query's SELECT list, and its display name.
/// Identical aggregations from different queries share one leaf and show
/// up as multiple refs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricRef {
    pub query: QueryId,
    pub index: u32,
    pub name: String,
}

/// Aggregator leaf. `refs` lists every registered metric sharing this
/// leaf (identical aggregations are computed once); a leaf with no refs
/// is **dead** — detached from the DAG walk, its state torn down, kept in
/// the vec only so leaf ids (slot tags, aux-key prefixes) stay stable.
#[derive(Debug)]
pub struct LeafNode {
    pub group: GroupId,
    pub filter: FilterId,
    pub window: WindowId,
    pub func: AggFunc,
    pub field_name: Option<String>,
    pub field_index: Option<usize>,
    pub refs: Vec<MetricRef>,
}

impl LeafNode {
    /// True while at least one registered metric uses this leaf.
    pub fn is_live(&self) -> bool {
        !self.refs.is_empty()
    }

    /// Display names of the metrics sharing this leaf.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.refs.iter().map(|r| r.name.as_str())
    }
}

/// A registered metric: which leaf computes it, and its reply key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricHandle {
    pub leaf: LeafId,
    pub query: QueryId,
    pub index: u32,
    pub name: String,
}

/// The shared-prefix execution DAG for one task.
#[derive(Debug, Default)]
pub struct Plan {
    pub windows: Vec<WindowNode>,
    pub filters: Vec<FilterNode>,
    pub groups: Vec<GroupNode>,
    pub leaves: Vec<LeafNode>,
}

impl Plan {
    /// Empty plan.
    pub fn new() -> Self {
        Plan::default()
    }

    /// Merge a query into the plan under its registered id, sharing
    /// prefix nodes, and return a handle per SELECT item (in order).
    ///
    /// `schema` resolves field names; the same schema must be used for all
    /// queries of a task (one stream per task). Re-adding an id already in
    /// the plan is idempotent (op-log replays deliver registrations more
    /// than once).
    pub fn add_query(
        &mut self,
        id: QueryId,
        query: &Query,
        schema: &Schema,
    ) -> Result<Vec<MetricHandle>> {
        // Resolve pieces first so failures leave the plan untouched.
        let filter_expr = query
            .filter
            .as_ref()
            .map(|f| f.resolve(schema))
            .transpose()?;
        let mut group_indexes = Vec::with_capacity(query.group_by.len());
        for f in &query.group_by {
            group_indexes.push(schema.require(f)?);
        }
        let mut leaf_fields = Vec::with_capacity(query.select.len());
        for agg in &query.select {
            let idx = match &agg.field {
                Some(f) => Some(schema.require(f)?),
                None => None,
            };
            if agg.func != AggFunc::Count && agg.field.is_none() {
                return Err(RailgunError::InvalidArgument(format!(
                    "{} requires a field",
                    agg.func.name()
                )));
            }
            agg.func.check_params()?;
            leaf_fields.push(idx);
        }

        let wid = self.window_node(query.window);
        let fid = self.filter_node(wid, filter_expr);
        let gid = self.group_node(fid, &query.group_by, &group_indexes);
        let mut handles = Vec::with_capacity(query.select.len());
        for (index, (agg, idx)) in query.select.iter().zip(leaf_fields).enumerate() {
            let name = query.metric_name(index).expect("index is in range");
            let metric = MetricRef {
                query: id,
                index: index as u32,
                name: name.clone(),
            };
            let leaf = self.leaf_node(gid, agg.func, agg.field.clone(), idx, metric);
            handles.push(MetricHandle {
                leaf,
                query: id,
                index: index as u32,
                name,
            });
        }
        Ok(handles)
    }

    /// Detach every metric of `id` from the plan and report what died.
    ///
    /// Leaves that lose their last ref are detached from their group's
    /// walk list (their ids — and therefore everyone else's state — stay
    /// stable) and reported so the task can delete their aggregator
    /// state; a group left with no leaf is dead as a whole. Groups,
    /// filters and windows whose subtrees empty out are pruned the same
    /// way; windows that end up with no filters are reported so their
    /// reservoir cursors can be dropped.
    pub fn remove_query(&mut self, id: QueryId) -> PlanDiff {
        let mut diff = PlanDiff::default();
        for (leaf_id, leaf) in self.leaves.iter_mut().enumerate() {
            let before = leaf.refs.len();
            leaf.refs.retain(|r| r.query != id);
            diff.removed_refs += before - leaf.refs.len();
            if before > 0 && leaf.refs.is_empty() {
                diff.dead_leaves.push(leaf_id);
            }
        }
        if diff.removed_refs == 0 {
            return diff;
        }
        // Prune empty subtrees bottom-up, keeping every node id stable.
        for group in &mut self.groups {
            group
                .leaves
                .retain(|&l| !self.leaves[l].refs.is_empty());
        }
        for filter in &mut self.filters {
            filter
                .groups
                .retain(|&g| !self.groups[g].leaves.is_empty());
        }
        for (wid, window) in self.windows.iter_mut().enumerate() {
            let before = window.filters.len();
            window
                .filters
                .retain(|&f| !self.filters[f].groups.is_empty());
            if before > 0 && window.filters.is_empty() {
                diff.dead_windows.push(wid);
            }
        }
        diff
    }

    /// The distinct query ids currently registered in the plan.
    pub fn query_ids(&self) -> Vec<QueryId> {
        let mut ids: Vec<QueryId> = self
            .leaves
            .iter()
            .flat_map(|l| l.refs.iter().map(|r| r.query))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The live plan numbering: one line per live leaf in id order with
    /// everything its stored state depends on — leaf id (slot tag, aux
    /// prefix), group id (row prefix), window spec, filter, group-by
    /// fields, function and field. Two plans with equal fingerprints read
    /// and write the same state under the same keys. Metric refs are left
    /// out on purpose: queries sharing a leaf share its state.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (id, leaf) in self.leaves.iter().enumerate().filter(|(_, l)| l.is_live()) {
            writeln!(
                out,
                "{id} {} {:?} {} {:?} {:?} {:?}",
                leaf.group,
                self.windows[leaf.window].spec,
                self.filters[leaf.filter].canon,
                self.groups[leaf.group].field_names,
                leaf.func,
                leaf.field_name,
            )
            .expect("writing to a String cannot fail");
        }
        out
    }

    fn window_node(&mut self, spec: WindowSpec) -> WindowId {
        // Dead windows (no filters after pruning) are never revived: a
        // revived window would need fresh backfill cursors, so re-use of
        // the spec gets a fresh node instead.
        if let Some(i) = self
            .windows
            .iter()
            .position(|w| w.spec == spec && !w.filters.is_empty())
        {
            return i;
        }
        self.windows.push(WindowNode {
            spec,
            filters: Vec::new(),
        });
        self.windows.len() - 1
    }

    fn filter_node(&mut self, window: WindowId, expr: Option<Expr>) -> FilterId {
        let canon = expr
            .as_ref()
            .map(Expr::canonical)
            .unwrap_or_else(|| "true".to_owned());
        if let Some(&i) = self.windows[window]
            .filters
            .iter()
            .find(|&&i| self.filters[i].canon == canon)
        {
            return i;
        }
        self.filters.push(FilterNode {
            window,
            expr,
            canon,
            groups: Vec::new(),
        });
        let id = self.filters.len() - 1;
        self.windows[window].filters.push(id);
        id
    }

    fn group_node(&mut self, filter: FilterId, names: &[String], indexes: &[usize]) -> GroupId {
        if let Some(&i) = self.filters[filter]
            .groups
            .iter()
            .find(|&&i| self.groups[i].field_indexes == indexes)
        {
            return i;
        }
        self.groups.push(GroupNode {
            filter,
            field_names: names.to_vec(),
            field_indexes: indexes.to_vec(),
            leaves: Vec::new(),
        });
        let id = self.groups.len() - 1;
        self.filters[filter].groups.push(id);
        id
    }

    fn leaf_node(
        &mut self,
        group: GroupId,
        func: AggFunc,
        field_name: Option<String>,
        field_index: Option<usize>,
        metric: MetricRef,
    ) -> LeafId {
        if let Some(&i) = self.groups[group].leaves.iter().find(|&&i| {
            self.leaves[i].func == func && self.leaves[i].field_index == field_index
        }) {
            if !self.leaves[i]
                .refs
                .iter()
                .any(|r| r.query == metric.query && r.index == metric.index)
            {
                self.leaves[i].refs.push(metric);
            }
            return i;
        }
        let filter = self.groups[group].filter;
        let window = self.filters[filter].window;
        self.leaves.push(LeafNode {
            group,
            filter,
            window,
            func,
            field_name,
            field_index,
            refs: vec![metric],
        });
        let id = self.leaves.len() - 1;
        self.groups[group].leaves.push(id);
        id
    }

    /// Number of **live** aggregator leaves — in the paper, where each
    /// has a key of its own, the "amount of keys accessed per event"
    /// (here the leaves of a group-by node share one row). Dead
    /// (unregistered) leaves don't count.
    pub fn leaf_count(&self) -> usize {
        self.leaves.iter().filter(|l| l.is_live()).count()
    }

    /// True iff any **live** window never expires events (disables
    /// reservoir truncation).
    pub fn has_infinite_window(&self) -> bool {
        self.windows.iter().any(|w| {
            !w.filters.is_empty()
                && matches!(w.spec.kind, crate::lang::WindowKind::Infinite)
        })
    }
}

/// What [`Plan::remove_query`] tore out of the plan.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PlanDiff {
    /// Metric refs removed (0 ⇒ the query was not in this plan).
    pub removed_refs: usize,
    /// Leaves that lost their last ref — their aggregator state can be
    /// deleted.
    pub dead_leaves: Vec<LeafId>,
    /// Windows that lost their last filter — their reservoir cursors can
    /// be dropped.
    pub dead_windows: Vec<WindowId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parse_query;
    use railgun_types::{FieldType, TimeDelta};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("cardId", FieldType::Str),
            ("merchantId", FieldType::Str),
            ("amount", FieldType::Float),
        ])
        .unwrap()
    }

    fn qid(n: u64) -> QueryId {
        QueryId(n)
    }

    #[test]
    fn figure_6_dag_shape() {
        // Q1 + Q2 of Example 1: one shared window, two group-bys, three
        // aggregator leaves (Figure 6).
        let mut plan = Plan::new();
        let q1 = parse_query(
            "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        let q2 = parse_query(
            "SELECT avg(amount) FROM payments GROUP BY merchantId OVER sliding 5 min",
        )
        .unwrap();
        plan.add_query(qid(1), &q1, &schema()).unwrap();
        plan.add_query(qid(2), &q2, &schema()).unwrap();
        assert_eq!(plan.windows.len(), 1, "shared window node");
        assert_eq!(plan.filters.len(), 1, "shared pass-through filter");
        assert_eq!(plan.groups.len(), 2, "card + merchant group-bys");
        assert_eq!(plan.leaves.len(), 3, "sum, count, avg");
        assert_eq!(plan.leaf_count(), 3);
        assert_eq!(plan.query_ids(), vec![qid(1), qid(2)]);
    }

    #[test]
    fn different_windows_do_not_share() {
        let mut plan = Plan::new();
        let q1 =
            parse_query("SELECT count(*) FROM s GROUP BY cardId OVER sliding 5 min").unwrap();
        let q2 =
            parse_query("SELECT count(*) FROM s GROUP BY cardId OVER sliding 10 min").unwrap();
        plan.add_query(qid(1), &q1, &schema()).unwrap();
        plan.add_query(qid(2), &q2, &schema()).unwrap();
        assert_eq!(plan.windows.len(), 2);
        assert_eq!(plan.leaves.len(), 2);
    }

    #[test]
    fn identical_metric_shares_leaf_with_two_refs() {
        let mut plan = Plan::new();
        let q = parse_query(
            "SELECT sum(amount) FROM s GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        let h1 = plan.add_query(qid(1), &q, &schema()).unwrap();
        let h2 = plan.add_query(qid(2), &q, &schema()).unwrap();
        assert_eq!(h1[0].leaf, h2[0].leaf);
        assert_eq!(plan.leaves.len(), 1);
        assert_eq!(plan.leaves[0].refs.len(), 2, "one ref per registration");
        // Replaying the same registration id is idempotent.
        plan.add_query(qid(1), &q, &schema()).unwrap();
        assert_eq!(plan.leaves[0].refs.len(), 2);
    }

    #[test]
    fn filters_split_the_dag() {
        let mut plan = Plan::new();
        let q1 = parse_query(
            "SELECT count(*) FROM s WHERE amount > 100 GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        let q2 = parse_query(
            "SELECT count(*) FROM s WHERE amount > 200 GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        let q3 = parse_query(
            "SELECT sum(amount) FROM s WHERE amount > 100 GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        plan.add_query(qid(1), &q1, &schema()).unwrap();
        plan.add_query(qid(2), &q2, &schema()).unwrap();
        plan.add_query(qid(3), &q3, &schema()).unwrap();
        assert_eq!(plan.windows.len(), 1);
        assert_eq!(plan.filters.len(), 2, "two distinct predicates");
        assert_eq!(plan.groups.len(), 2, "one group node per filter branch");
        assert_eq!(plan.leaves.len(), 3);
    }

    #[test]
    fn bad_fields_leave_plan_untouched() {
        let mut plan = Plan::new();
        let q = parse_query(
            "SELECT sum(nope) FROM s GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        assert!(plan.add_query(qid(1), &q, &schema()).is_err());
        assert_eq!(plan.windows.len(), 0);
        assert_eq!(plan.leaves.len(), 0);
        let q2 = parse_query(
            "SELECT sum(amount) FROM s GROUP BY nope OVER sliding 5 min",
        )
        .unwrap();
        assert!(plan.add_query(qid(2), &q2, &schema()).is_err());
        assert_eq!(plan.groups.len(), 0);
    }

    #[test]
    fn non_count_requires_field() {
        let mut plan = Plan::new();
        // Constructed directly since the parser already rejects `sum(*)`.
        let q = Query {
            select: vec![crate::lang::AggSpec {
                func: AggFunc::Sum,
                field: None,
            }],
            stream: "s".into(),
            filter: None,
            group_by: vec!["cardId".into()],
            window: WindowSpec::sliding(TimeDelta::from_minutes(1)),
        };
        assert!(plan.add_query(qid(1), &q, &schema()).is_err());
    }

    #[test]
    fn infinite_window_detection() {
        let mut plan = Plan::new();
        let q = parse_query("SELECT countDistinct(merchantId) FROM s GROUP BY cardId OVER infinite")
            .unwrap();
        plan.add_query(qid(1), &q, &schema()).unwrap();
        assert!(plan.has_infinite_window());
        // ...and it stops counting once the query is unregistered.
        plan.remove_query(qid(1));
        assert!(!plan.has_infinite_window());
    }

    #[test]
    fn remove_query_reports_dead_leaves_and_windows() {
        let mut plan = Plan::new();
        let q1 = parse_query(
            "SELECT sum(amount), count(*) FROM s GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        let q2 = parse_query(
            "SELECT count(*) FROM s GROUP BY cardId OVER sliding 10 min",
        )
        .unwrap();
        plan.add_query(qid(1), &q1, &schema()).unwrap();
        plan.add_query(qid(2), &q2, &schema()).unwrap();
        assert_eq!(plan.leaf_count(), 3);

        let diff = plan.remove_query(qid(1));
        assert_eq!(diff.removed_refs, 2);
        assert_eq!(diff.dead_leaves, vec![0, 1], "sum + count of q1");
        assert_eq!(diff.dead_windows, vec![0], "the 5-min window died");
        assert_eq!(plan.leaf_count(), 1, "q2's count survives");
        assert_eq!(plan.query_ids(), vec![qid(2)]);

        // Removing an unknown/already-removed id is a no-op.
        let diff = plan.remove_query(qid(1));
        assert_eq!(diff, PlanDiff::default());
    }

    #[test]
    fn shared_leaf_survives_partial_removal() {
        let mut plan = Plan::new();
        let q = parse_query(
            "SELECT sum(amount) FROM s GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        plan.add_query(qid(1), &q, &schema()).unwrap();
        plan.add_query(qid(2), &q, &schema()).unwrap();
        let diff = plan.remove_query(qid(1));
        assert_eq!(diff.removed_refs, 1);
        assert!(diff.dead_leaves.is_empty(), "q2 still uses the leaf");
        assert!(diff.dead_windows.is_empty());
        assert_eq!(plan.leaf_count(), 1);
    }

    #[test]
    fn dead_window_is_not_revived_by_reregistration() {
        let mut plan = Plan::new();
        let q = parse_query(
            "SELECT count(*) FROM s GROUP BY cardId OVER sliding 5 min",
        )
        .unwrap();
        plan.add_query(qid(1), &q, &schema()).unwrap();
        plan.remove_query(qid(1));
        // Same window spec again: a *fresh* window node (the old one's
        // runtime cursors are gone; a revival would skip backfill).
        plan.add_query(qid(2), &q, &schema()).unwrap();
        assert_eq!(plan.windows.len(), 2);
        assert!(plan.windows[0].filters.is_empty(), "old node stays dead");
        assert_eq!(plan.windows[1].filters.len(), 1);
        assert_eq!(plan.leaf_count(), 1);
    }
}

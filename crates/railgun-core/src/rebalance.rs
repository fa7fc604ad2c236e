//! Railgun's sticky assignment strategy (paper §4.2, Figure 7).
//!
//! The strategy assigns **active** tasks and **replica** tasks in two
//! passes, protecting two invariants:
//!
//! 1. a physical node holds at most one copy of a task (active or
//!    replica), so a node failure loses at most one copy;
//! 2. per-processor load stays within the budget
//!    `ceil(tasks × replication / processor units)`.
//!
//! Preference order: previous **active** processor → previous **replica**
//! processor (least loaded) → least-loaded processor. Replicas skip the
//! first step. Who held a task comes from one record each: the previous
//! active owner from the coordinator
//! ([`MemberInfo::previous`](railgun_messaging::MemberInfo::previous)), the
//! previous replica holders from this strategy's last replica plan,
//! counting live members only.
//!
//! Figure 7 also prefers a **stale** processor — one that held the task in
//! an earlier generation and keeps leftovers of its data — before the
//! least-loaded one. This reproduction drops that step: a unit wipes a
//! task's directory every time it gains the task and rebuilds it from a
//! checkpoint image or a replay (`ProcessorUnit::open_task`), so leftovers
//! save nothing and a stale processor is no warmer than any other.
//!
//! The strategy plugs into the messaging layer's consumer-group coordinator
//! as an [`AssignmentStrategy`]; the replica plan it computes alongside the
//! active assignment is queried by processor units after each rebalance.

use std::collections::{HashMap, HashSet};

use parking_lot::Mutex;
use railgun_messaging::{AssignmentContext, AssignmentStrategy, MemberId, TopicPartition};

/// Physical placement of a processor unit, carried as member metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessorIdentity {
    pub node: u32,
    pub unit: u32,
}

impl ProcessorIdentity {
    /// Encode as member metadata bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8);
        buf.extend_from_slice(&self.node.to_le_bytes());
        buf.extend_from_slice(&self.unit.to_le_bytes());
        buf
    }

    /// Decode from member metadata bytes.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < 8 {
            return None;
        }
        Some(ProcessorIdentity {
            node: u32::from_le_bytes(buf[0..4].try_into().ok()?),
            unit: u32::from_le_bytes(buf[4..8].try_into().ok()?),
        })
    }
}

#[derive(Default)]
struct StrategyState {
    /// Replica plan of the current generation; the next generation reads
    /// each task's previous replica holders from it.
    replica_plan: HashMap<MemberId, Vec<TopicPartition>>,
    /// Tasks placed on a processor that held neither the active copy nor
    /// a replica (diagnostics — the data-shuffle cost the strategy
    /// minimizes).
    cold_assignments: u64,
}

/// The Figure 7 strategy. One instance is shared by every consumer of the
/// active group; it remembers the replica plan, which the coordinator
/// does not know.
pub struct RailgunStrategy {
    /// Total copies per task (1 = active only; the paper deploys 3).
    replication: usize,
    state: Mutex<StrategyState>,
    /// Nodes being drained: their members stay in the group (so they can
    /// finish flushing checkpoints) but receive no new assignments.
    draining: Mutex<HashSet<u32>>,
}

impl RailgunStrategy {
    /// Create a strategy with the given total replication factor.
    pub fn new(replication: usize) -> Self {
        RailgunStrategy {
            replication: replication.max(1),
            state: Mutex::new(StrategyState::default()),
            draining: Mutex::new(HashSet::new()),
        }
    }

    /// Mark a node as draining: from the next rebalance on, its members
    /// get no tasks (active or replica). Concurrent rebalances — e.g. a
    /// heartbeat expiry racing the drain in threaded mode — can therefore
    /// never hand work *back* to a departing node.
    pub fn set_draining(&self, node: u32) {
        self.draining.lock().insert(node);
    }

    /// Forget a drain mark (the node left, or the drain was aborted).
    pub fn clear_draining(&self, node: u32) {
        self.draining.lock().remove(&node);
    }

    /// Replica tasks assigned to `member` in the current generation.
    pub fn replica_assignment(&self, member: MemberId) -> Vec<TopicPartition> {
        self.state
            .lock()
            .replica_plan
            .get(&member)
            .cloned()
            .unwrap_or_default()
    }

    /// Number of assignments that landed on a processor holding neither
    /// the active copy nor a replica of the task (each implies a data
    /// transfer / replay).
    pub fn cold_assignments(&self) -> u64 {
        self.state.lock().cold_assignments
    }
}

struct PassCtx<'a> {
    /// Every live member, in the coordinator's order.
    ids: Vec<MemberId>,
    identities: &'a HashMap<MemberId, ProcessorIdentity>,
    /// Members allowed to take work this generation (excludes draining
    /// nodes' members unless *everyone* is draining).
    eligible: &'a HashSet<MemberId>,
    budget: usize,
    loads: HashMap<MemberId, usize>,
    /// node -> tasks already placed there this generation (invariant 1).
    node_tasks: HashMap<u32, HashSet<TopicPartition>>,
}

impl PassCtx<'_> {
    fn load(&self, member: MemberId) -> usize {
        self.loads.get(&member).copied().unwrap_or(0)
    }

    fn can_take(&self, member: MemberId, task: &TopicPartition) -> bool {
        if !self.eligible.contains(&member) || self.load(member) >= self.budget {
            return false;
        }
        let Some(id) = self.identities.get(&member) else {
            return false;
        };
        !self
            .node_tasks
            .get(&id.node)
            .is_some_and(|tasks| tasks.contains(task))
    }

    fn take(&mut self, member: MemberId, task: &TopicPartition) {
        *self.loads.entry(member).or_insert(0) += 1;
        if let Some(id) = self.identities.get(&member) {
            self.node_tasks
                .entry(id.node)
                .or_default()
                .insert(task.clone());
        }
    }

    /// Least-loaded member of `pool` (by current load, ties by id)
    /// passing `can_take`.
    fn least_loaded(&self, task: &TopicPartition, pool: &[MemberId]) -> Option<MemberId> {
        pool.iter()
            .copied()
            .filter(|m| self.can_take(*m, task))
            .min_by_key(|m| (self.load(*m), *m))
    }
}

impl AssignmentStrategy for RailgunStrategy {
    fn assign(&self, ctx: &AssignmentContext) -> HashMap<MemberId, Vec<TopicPartition>> {
        let mut state = self.state.lock();
        let mut active: HashMap<MemberId, Vec<TopicPartition>> =
            ctx.members.iter().map(|m| (m.id, Vec::new())).collect();
        if ctx.members.is_empty() {
            state.replica_plan.clear();
            return active;
        }
        let identities: HashMap<MemberId, ProcessorIdentity> = ctx
            .members
            .iter()
            .filter_map(|m| ProcessorIdentity::decode(&m.metadata).map(|id| (m.id, id)))
            .collect();
        let ids: Vec<MemberId> = ctx.members.iter().map(|m| m.id).collect();
        // Draining nodes keep their members in the group (they still need
        // the bus to flush checkpoints) but take no new work. If every
        // member is draining, ignore the marks — someone has to serve.
        let draining = self.draining.lock().clone();
        let mut eligible: HashSet<MemberId> = ctx
            .members
            .iter()
            .filter(|m| {
                identities
                    .get(&m.id)
                    .is_none_or(|id| !draining.contains(&id.node))
            })
            .map(|m| m.id)
            .collect();
        if eligible.is_empty() {
            eligible = ids.iter().copied().collect();
        }
        let replication = self.replication.min(
            identities
                .iter()
                .filter(|(m, _)| eligible.contains(*m))
                .map(|(_, id)| id.node)
                .collect::<HashSet<_>>()
                .len()
                .max(1),
        );
        let budget = (ctx.partitions.len() * replication).div_ceil(eligible.len());
        // Who held each task last generation: the active owner as the
        // coordinator recorded it, the replica holders still alive.
        let last_owner: HashMap<&TopicPartition, MemberId> = ctx
            .members
            .iter()
            .flat_map(|m| m.previous.iter().map(move |t| (t, m.id)))
            .collect();
        let mut last_replicas: HashMap<&TopicPartition, Vec<MemberId>> = HashMap::new();
        for (m, tasks) in state.replica_plan.iter().filter(|(m, _)| ids.contains(m)) {
            for t in tasks {
                last_replicas.entry(t).or_default().push(*m);
            }
        }
        let last_replica_holders =
            |task: &TopicPartition| last_replicas.get(task).map_or(&[][..], Vec::as_slice);
        let mut pass = PassCtx {
            ids,
            identities: &identities,
            eligible: &eligible,
            budget,
            loads: HashMap::new(),
            node_tasks: HashMap::new(),
        };

        // --- Active pass (Figure 7, left) ---
        for task in &ctx.partitions {
            let chosen = last_owner
                .get(task)
                .copied()
                .filter(|m| pass.can_take(*m, task))
                .or_else(|| pass.least_loaded(task, last_replica_holders(task)))
                .or_else(|| pass.least_loaded(task, &pass.ids));
            if let Some(m) = chosen {
                pass.take(m, task);
                active.get_mut(&m).expect("seeded").push(task.clone());
            }
            // If nothing can take it (budget exhausted — shouldn't happen
            // with ceil budget), the coordinator would see an incomplete
            // assignment; fall back below.
        }
        // Safety net: any unassigned partition goes to the globally least
        // loaded member ignoring the budget (keeps the coordinator's
        // "every partition assigned" contract).
        {
            let assigned: HashSet<&TopicPartition> =
                active.values().flatten().collect();
            let missing: Vec<TopicPartition> = ctx
                .partitions
                .iter()
                .filter(|t| !assigned.contains(t))
                .cloned()
                .collect();
            for task in missing {
                if let Some(m) = ctx
                    .members
                    .iter()
                    .map(|m| m.id)
                    .filter(|m| eligible.contains(m))
                    .min_by_key(|m| (pass.load(*m), *m))
                {
                    pass.take(m, &task);
                    active.get_mut(&m).expect("seeded").push(task);
                }
            }
        }

        // --- Replica pass (Figure 7, right) ---
        let mut replicas: HashMap<MemberId, Vec<TopicPartition>> =
            ctx.members.iter().map(|m| (m.id, Vec::new())).collect();
        for task in &ctx.partitions {
            for _slot in 1..replication {
                let chosen = pass
                    .least_loaded(task, last_replica_holders(task))
                    .or_else(|| pass.least_loaded(task, &pass.ids));
                match chosen {
                    Some(m) => {
                        pass.take(m, task);
                        replicas.get_mut(&m).expect("seeded").push(task.clone());
                    }
                    None => break, // cannot place more copies (few nodes)
                }
            }
        }

        let held = |m: MemberId, task: &TopicPartition| {
            last_owner.get(task) == Some(&m) || last_replica_holders(task).contains(&m)
        };
        let cold = active
            .iter()
            .chain(&replicas)
            .flat_map(|(m, tasks)| tasks.iter().filter(|t| !held(*m, t)))
            .count();
        state.cold_assignments += cold as u64;
        state.replica_plan = replicas;
        active
    }

    fn name(&self) -> &str {
        "railgun-sticky"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use railgun_messaging::MemberInfo;

    fn tp(p: u32) -> TopicPartition {
        TopicPartition::new("t", p)
    }

    fn member(id: MemberId, node: u32, unit: u32) -> MemberInfo {
        MemberInfo {
            id,
            metadata: ProcessorIdentity { node, unit }.encode(),
            previous: Vec::new(),
        }
    }

    fn ctx(members: Vec<MemberInfo>, parts: u32) -> AssignmentContext {
        AssignmentContext {
            members,
            partitions: (0..parts).map(tp).collect(),
        }
    }

    /// The context of the generation after `last`, with each member's
    /// `previous` fed as the coordinator does: its assignment in `last`.
    fn next_ctx(
        members: &[MemberInfo],
        parts: u32,
        last: &HashMap<MemberId, Vec<TopicPartition>>,
    ) -> AssignmentContext {
        let members = members
            .iter()
            .map(|m| MemberInfo {
                previous: last.get(&m.id).cloned().unwrap_or_default(),
                ..m.clone()
            })
            .collect();
        ctx(members, parts)
    }

    fn owner_of(
        assignment: &HashMap<MemberId, Vec<TopicPartition>>,
        task: &TopicPartition,
    ) -> MemberId {
        *assignment
            .iter()
            .find(|(_, ts)| ts.contains(task))
            .map(|(m, _)| m)
            .expect("task assigned")
    }

    #[test]
    fn identity_roundtrip() {
        let id = ProcessorIdentity { node: 3, unit: 7 };
        assert_eq!(ProcessorIdentity::decode(&id.encode()), Some(id));
        assert_eq!(ProcessorIdentity::decode(&[1, 2]), None);
    }

    #[test]
    fn assigns_every_partition_exactly_once() {
        let s = RailgunStrategy::new(1);
        let a = s.assign(&ctx(
            vec![member(1, 0, 0), member(2, 0, 1), member(3, 1, 0)],
            10,
        ));
        let all: Vec<_> = a.values().flatten().collect();
        assert_eq!(all.len(), 10);
        let set: HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn respects_budget() {
        let s = RailgunStrategy::new(1);
        let a = s.assign(&ctx(vec![member(1, 0, 0), member(2, 1, 0)], 9));
        // Budget = ceil(9/2) = 5.
        for (m, ts) in &a {
            assert!(ts.len() <= 5, "member {m} overloaded: {}", ts.len());
        }
    }

    #[test]
    fn sticky_across_generations() {
        let s = RailgunStrategy::new(1);
        let members = vec![member(1, 0, 0), member(2, 1, 0)];
        let a1 = s.assign(&ctx(members.clone(), 6));
        let a2 = s.assign(&next_ctx(&members, 6, &a1));
        assert_eq!(a1, a2, "no change in cluster => identical assignment");
        assert_eq!(railgun_messaging::moved_partitions(&a1, &a2), 0);
    }

    #[test]
    fn failover_prefers_previous_replica() {
        let s = RailgunStrategy::new(2);
        let members = vec![member(1, 0, 0), member(2, 1, 0), member(3, 2, 0)];
        let a1 = s.assign(&ctx(members.clone(), 3));
        // Pick a task owned by member 1 and find its replica.
        let task = a1[&1][0].clone();
        let replica_owner = {
            let plan1 = s.replica_assignment(1);
            let plan2 = s.replica_assignment(2);
            let plan3 = s.replica_assignment(3);
            if plan2.contains(&task) {
                2
            } else if plan3.contains(&task) {
                3
            } else if plan1.contains(&task) {
                panic!("replica on same node as active violates invariant");
            } else {
                panic!("no replica assigned for {task}");
            }
        };
        // Member 1 dies.
        let survivors: Vec<MemberInfo> = members
            .into_iter()
            .filter(|m| m.id != 1)
            .collect();
        let a2 = s.assign(&next_ctx(&survivors, 3, &a1));
        assert_eq!(
            owner_of(&a2, &task),
            replica_owner,
            "task must fail over to its previous replica"
        );
    }

    #[test]
    fn replicas_never_share_a_node_with_active() {
        let s = RailgunStrategy::new(3);
        let members = vec![
            member(1, 0, 0),
            member(2, 0, 1), // same node as member 1
            member(3, 1, 0),
            member(4, 2, 0),
        ];
        let a = s.assign(&ctx(members, 4));
        for task in (0..4).map(tp) {
            let active_owner = owner_of(&a, &task);
            let active_node = if active_owner <= 2 { 0 } else { active_owner as u32 - 2 };
            let mut nodes_holding = vec![active_node];
            for m in 1..=4u64 {
                if s.replica_assignment(m).contains(&task) {
                    let node = if m <= 2 { 0 } else { m as u32 - 2 };
                    nodes_holding.push(node);
                }
            }
            let distinct: HashSet<_> = nodes_holding.iter().collect();
            assert_eq!(
                distinct.len(),
                nodes_holding.len(),
                "task {task} has two copies on one node: {nodes_holding:?}"
            );
        }
    }

    #[test]
    fn replication_capped_by_node_count() {
        let s = RailgunStrategy::new(3);
        // Only 2 physical nodes: at most 2 copies placeable.
        let a = s.assign(&ctx(vec![member(1, 0, 0), member(2, 1, 0)], 2));
        for task in (0..2).map(tp) {
            let copies = a.values().flatten().filter(|t| **t == task).count()
                + (1..=2u64)
                    .filter(|m| s.replica_assignment(*m).contains(&task))
                    .count();
            assert_eq!(copies, 2, "exactly 2 copies of {task}");
        }
    }

    #[test]
    fn member_join_moves_few_tasks() {
        let s = RailgunStrategy::new(1);
        let a1 = s.assign(&ctx(vec![member(1, 0, 0), member(2, 1, 0)], 8));
        let a2 = s.assign(&next_ctx(
            &[member(1, 0, 0), member(2, 1, 0), member(3, 2, 0)],
            8,
            &a1,
        ));
        // Budget becomes ceil(8/3)=3; at most 8 - 3 - 3 = 2 + leftover
        // moves; a non-sticky strategy could move up to 8.
        let moved = railgun_messaging::moved_partitions(&a1, &a2);
        assert!(moved <= 3, "sticky strategy moved {moved} tasks");
        assert!(a2[&3].len() >= 2, "new member gets fair share");
    }

    #[test]
    fn a_fresh_strategy_keeps_the_previous_owners_the_coordinator_reports() {
        // The previous owners differ from the least-loaded order
        // (0→1, 1→2, 2→3, 3→1, ...), and a new strategy has no memory of
        // its own: only `previous` can put each task back where it was.
        let s = RailgunStrategy::new(1);
        let members = [member(1, 0, 0), member(2, 1, 0), member(3, 2, 0)];
        let last: HashMap<MemberId, Vec<TopicPartition>> = HashMap::from([
            (1, vec![tp(4), tp(5)]),
            (2, vec![tp(0), tp(3)]),
            (3, vec![tp(1), tp(2)]),
        ]);
        let a = s.assign(&next_ctx(&members, 6, &last));
        assert_eq!(a, last, "every member keeps its previous tasks");
        assert_eq!(s.cold_assignments(), 0, "no task landed on a cold member");
    }

    #[test]
    fn a_task_back_on_an_earlier_owner_is_a_cold_placement() {
        // Generation 1: members 1 and 2 split six tasks. Generation 2: a
        // joiner takes one task of each. Generation 3: it leaves, and its
        // two tasks go back to their first owners — which wiped them when
        // they lost them, so both placements are cold.
        let s = RailgunStrategy::new(1);
        let (m1, m2, m3) = (member(1, 0, 0), member(2, 1, 0), member(3, 2, 0));
        let a1 = s.assign(&ctx(vec![m1.clone(), m2.clone()], 6));
        let a2 = s.assign(&next_ctx(&[m1.clone(), m2.clone(), m3], 6, &a1));
        let joiner_tasks = a2[&3].clone();
        assert_eq!(joiner_tasks.len(), 2);
        let cold_before = s.cold_assignments();
        let a3 = s.assign(&next_ctx(&[m1, m2], 6, &a2));
        for task in &joiner_tasks {
            assert_eq!(owner_of(&a3, task), owner_of(&a1, task), "{task} goes back");
        }
        assert_eq!(s.cold_assignments() - cold_before, 2);
    }

    #[test]
    fn draining_node_receives_no_tasks() {
        let s = RailgunStrategy::new(2);
        let members = vec![member(1, 0, 0), member(2, 1, 0), member(3, 2, 0)];
        let a1 = s.assign(&ctx(members.clone(), 6));
        assert!(!a1[&2].is_empty(), "node 1 serves before the drain");
        s.set_draining(1);
        let a2 = s.assign(&ctx(members.clone(), 6));
        assert!(a2[&2].is_empty(), "draining node must get no active tasks");
        assert!(
            s.replica_assignment(2).is_empty(),
            "draining node must get no replicas"
        );
        let all: Vec<_> = a2.values().flatten().collect();
        assert_eq!(all.len(), 6, "every partition still assigned");
        // Everyone draining => marks are ignored rather than starving.
        s.set_draining(0);
        s.set_draining(2);
        let a3 = s.assign(&ctx(members.clone(), 6));
        assert_eq!(a3.values().flatten().count(), 6);
        s.clear_draining(0);
        s.clear_draining(2);
        // After the drained node leaves, the survivors rebalance normally.
        let survivors: Vec<MemberInfo> =
            members.into_iter().filter(|m| m.id != 2).collect();
        s.clear_draining(1);
        let a4 = s.assign(&ctx(survivors, 6));
        assert_eq!(a4.values().flatten().count(), 6);
    }

    #[test]
    fn members_without_identity_get_nothing_but_safety_net_covers() {
        let s = RailgunStrategy::new(1);
        let bogus = MemberInfo {
            id: 9,
            metadata: vec![1, 2, 3], // undecodable
            previous: Vec::new(),
        };
        let a = s.assign(&AssignmentContext {
            members: vec![bogus],
            partitions: vec![tp(0)],
        });
        // Safety net assigns even without identity (can_take fails but the
        // final fill ignores identity).
        assert_eq!(a[&9].len(), 1);
    }
}

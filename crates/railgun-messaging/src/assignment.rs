//! Pluggable partition-assignment strategies for consumer groups.
//!
//! Kafka lets the group coordinator delegate partition assignment to a
//! strategy agreed by the group (§4.2). Railgun installs its own sticky,
//! locality-aware strategy (in `railgun-core`); this module defines the
//! interface plus two reference strategies used in tests and ablations.

use std::collections::HashMap;

use crate::record::TopicPartition;

/// Identifier of a group member (consumer).
pub type MemberId = u64;

/// What the coordinator knows about one member at rebalance time.
#[derive(Debug, Clone)]
pub struct MemberInfo {
    pub id: MemberId,
    /// Opaque metadata supplied at subscribe time. Railgun encodes the
    /// physical node and processor-unit identity here so its strategy can
    /// enforce the one-copy-per-node invariant.
    pub metadata: Vec<u8>,
    /// The member's assignment in the previous generation (empty for new
    /// members). Sticky strategies minimize movement against this.
    pub previous: Vec<TopicPartition>,
}

/// Everything a strategy sees when computing an assignment.
#[derive(Debug, Clone)]
pub struct AssignmentContext {
    /// Live members, in joining order.
    pub members: Vec<MemberInfo>,
    /// Every partition of every subscribed topic, sorted.
    pub partitions: Vec<TopicPartition>,
}

/// A partition-assignment strategy. Must assign every partition to exactly
/// one member (the coordinator verifies this).
pub trait AssignmentStrategy: Send + Sync {
    /// Compute the assignment for a new generation.
    fn assign(&self, ctx: &AssignmentContext) -> HashMap<MemberId, Vec<TopicPartition>>;

    /// Human-readable name for diagnostics.
    fn name(&self) -> &str;
}

/// Round-robin assignment: partitions dealt to members in order. Simple,
/// fair, maximally *non*-sticky — the baseline the sticky strategies are
/// compared against in `tests/group_churn.rs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundRobinStrategy;

impl AssignmentStrategy for RoundRobinStrategy {
    fn assign(&self, ctx: &AssignmentContext) -> HashMap<MemberId, Vec<TopicPartition>> {
        let mut out: HashMap<MemberId, Vec<TopicPartition>> = ctx
            .members
            .iter()
            .map(|m| (m.id, Vec::new()))
            .collect();
        if ctx.members.is_empty() {
            return out;
        }
        for (i, tp) in ctx.partitions.iter().enumerate() {
            let member = &ctx.members[i % ctx.members.len()];
            out.get_mut(&member.id).expect("seeded above").push(tp.clone());
        }
        out
    }

    fn name(&self) -> &str {
        "round-robin"
    }
}

/// Kafka-style sticky assignment: keep previous owners where possible,
/// then spread unassigned partitions to the least-loaded members, capping
/// per-member load at ceil(partitions / members).
#[derive(Debug, Default, Clone, Copy)]
pub struct StickyStrategy;

impl AssignmentStrategy for StickyStrategy {
    fn assign(&self, ctx: &AssignmentContext) -> HashMap<MemberId, Vec<TopicPartition>> {
        let mut out: HashMap<MemberId, Vec<TopicPartition>> = ctx
            .members
            .iter()
            .map(|m| (m.id, Vec::new()))
            .collect();
        if ctx.members.is_empty() {
            return out;
        }
        let cap = ctx.partitions.len().div_ceil(ctx.members.len());
        let mut unassigned: Vec<TopicPartition> = Vec::new();
        // Phase 1: stickiness under the load cap.
        let mut owner: HashMap<&TopicPartition, MemberId> = HashMap::new();
        for m in &ctx.members {
            for tp in &m.previous {
                owner.entry(tp).or_insert(m.id);
            }
        }
        for tp in &ctx.partitions {
            match owner.get(tp) {
                Some(&m) if out.get(&m).map(Vec::len).unwrap_or(usize::MAX) < cap => {
                    out.get_mut(&m).expect("member exists").push(tp.clone());
                }
                _ => unassigned.push(tp.clone()),
            }
        }
        // Phase 2: least-loaded fill.
        for tp in unassigned {
            let target = ctx
                .members
                .iter()
                .map(|m| m.id)
                .min_by_key(|id| out[id].len())
                .expect("non-empty members");
            out.get_mut(&target).expect("member exists").push(tp);
        }
        out
    }

    fn name(&self) -> &str {
        "sticky"
    }
}

/// Count how many partitions moved owners between two generations — the
/// data-shuffle metric minimized by sticky strategies (§4.2).
pub fn moved_partitions(
    before: &HashMap<MemberId, Vec<TopicPartition>>,
    after: &HashMap<MemberId, Vec<TopicPartition>>,
) -> usize {
    let mut prev_owner: HashMap<&TopicPartition, MemberId> = HashMap::new();
    for (m, tps) in before {
        for tp in tps {
            prev_owner.insert(tp, *m);
        }
    }
    let mut moved = 0;
    for (m, tps) in after {
        for tp in tps {
            if prev_owner.get(tp).is_some_and(|old| old != m) {
                moved += 1;
            }
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(members: &[(u64, Vec<TopicPartition>)], parts: usize) -> AssignmentContext {
        AssignmentContext {
            members: members
                .iter()
                .map(|(id, prev)| MemberInfo {
                    id: *id,
                    metadata: Vec::new(),
                    previous: prev.clone(),
                })
                .collect(),
            partitions: (0..parts as u32)
                .map(|p| TopicPartition::new("t", p))
                .collect(),
        }
    }

    fn assert_complete(
        assignment: &HashMap<MemberId, Vec<TopicPartition>>,
        parts: usize,
    ) {
        let mut seen = std::collections::HashSet::new();
        for tps in assignment.values() {
            for tp in tps {
                assert!(seen.insert(tp.clone()), "{tp} assigned twice");
            }
        }
        assert_eq!(seen.len(), parts, "every partition assigned exactly once");
    }

    #[test]
    fn round_robin_is_fair_and_complete() {
        let a = RoundRobinStrategy.assign(&ctx(&[(1, vec![]), (2, vec![]), (3, vec![])], 9));
        assert_complete(&a, 9);
        for tps in a.values() {
            assert_eq!(tps.len(), 3);
        }
    }

    #[test]
    fn sticky_respects_previous_owners() {
        let prev1: Vec<_> = (0..3u32).map(|p| TopicPartition::new("t", p)).collect();
        let prev2: Vec<_> = (3..6u32).map(|p| TopicPartition::new("t", p)).collect();
        let a = StickyStrategy.assign(&ctx(&[(1, prev1.clone()), (2, prev2.clone())], 6));
        assert_complete(&a, 6);
        assert_eq!(a[&1], prev1);
        assert_eq!(a[&2], prev2);
    }

    #[test]
    fn sticky_moves_minimum_on_member_join() {
        let prev1: Vec<_> = (0..6u32).map(|p| TopicPartition::new("t", p)).collect();
        let before: HashMap<_, _> = [(1u64, prev1.clone())].into();
        let a = StickyStrategy.assign(&ctx(&[(1, prev1), (2, vec![])], 6));
        assert_complete(&a, 6);
        // Cap = 3, so exactly 3 move to the new member.
        assert_eq!(a[&1].len(), 3);
        assert_eq!(a[&2].len(), 3);
        assert_eq!(moved_partitions(&before, &a), 3);
    }

    #[test]
    fn sticky_reassigns_dead_members_partitions() {
        // Member 2 left; its partitions spread over the survivors.
        let prev1: Vec<_> = (0..2u32).map(|p| TopicPartition::new("t", p)).collect();
        let a = StickyStrategy.assign(&ctx(&[(1, prev1.clone())], 6));
        assert_complete(&a, 6);
        assert!(a[&1].starts_with(&prev1));
    }

    #[test]
    fn empty_members_yields_empty_assignment() {
        let a = StickyStrategy.assign(&ctx(&[], 4));
        assert!(a.is_empty());
        let a = RoundRobinStrategy.assign(&ctx(&[], 4));
        assert!(a.is_empty());
    }

    #[test]
    fn moved_partitions_counts_only_changes() {
        let tp = |p| TopicPartition::new("t", p);
        let before: HashMap<_, _> = [(1u64, vec![tp(0), tp(1)]), (2u64, vec![tp(2)])].into();
        let after: HashMap<_, _> = [(1u64, vec![tp(0)]), (2u64, vec![tp(2), tp(1)])].into();
        assert_eq!(moved_partitions(&before, &after), 1);
    }
}

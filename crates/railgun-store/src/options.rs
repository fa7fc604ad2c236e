//! Per-column-family tuning and the compaction-filter seam.
//!
//! RocksDB deployments tune each column family for its workload instead
//! of applying one global policy (qdrant's per-CF options wrapper), and
//! expire dead state by *dropping it during compaction* instead of
//! issuing point deletes (the Solana blockstore `OldestSlot` pattern):
//! a delete is a write — it costs memtable space, a flush, and a
//! tombstone that lives until the next merge — while a compaction-time
//! drop is free, because the merge was rewriting the entry anyway. This
//! module gives `railgun-store` both halves:
//!
//! * [`CfOptions`] — per-CF memtable budget, compaction trigger, bloom
//!   density, and an optional [`CompactionFilter`], with a
//!   [`CfOptions::meta`] profile for tiny metadata CFs (task stores
//!   derive the state and aux CFs' tuning from the global knobs);
//! * [`CompactionFilter`] — the seam a full-CF merge consults for every
//!   surviving live entry.
//!
//! ## Filter contract
//!
//! A filter decides the fate of **live entries during a full-CF
//! compaction** — never of memtable contents. That placement is
//! what keeps it crash-consistent for free: the merged output SSTable
//! becomes visible only through the atomic manifest swap, so a crash at
//! any instant leaves either the unfiltered inputs or the filtered
//! output, never a third state, and recovery needs no new logic.
//! For the same reason the filter must be:
//!
//! * **pure** — the verdict for a `(key, value)` pair depends only on the
//!   pair and the filter's *current horizon*, not on time-of-call or I/O;
//! * **monotonic** — once a horizon admits discarding a key, every later
//!   horizon must too. A key dropped from the SSTables may still surface
//!   from the memtable until the next flush + compaction; monotonic
//!   horizons make that re-appearance converge to "gone" instead of
//!   flickering.
//!
//! Entries the filter discards simply do not reach the output table —
//! readers may legally observe them until the compaction lands, so
//! filters are for state the engine *already* treats as dead (expired
//! window buckets, unregistered-query leaves), not for user-visible
//! deletion.

use std::fmt;
use std::sync::Arc;

/// Verdict of a [`CompactionFilter`] for one live entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterDecision {
    /// Copy the entry into the compacted output.
    Keep,
    /// Drop the entry — it does not reach the output SSTable.
    Discard,
}

/// Decides, during a full-CF compaction, which live entries survive into
/// the merged output (see the [module docs](self) for the purity and
/// monotonicity contract). Tombstones and shadowed versions are already
/// dropped before the filter runs; it only ever sees the newest live
/// version of each key.
pub trait CompactionFilter: Send + Sync {
    /// Short name for logs/diagnostics (e.g. `"state-horizon"`).
    fn name(&self) -> &str;
    /// Fate of the live entry `(key, value)`.
    fn filter(&self, key: &[u8], value: &[u8]) -> FilterDecision;
}

impl fmt::Debug for dyn CompactionFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CompactionFilter({})", self.name())
    }
}

/// Tuning for one column family. Attach by name via
/// [`crate::DbOptions::cf_options`] (applies at open and to later
/// [`crate::Db::create_cf`] calls).
#[derive(Clone)]
pub struct CfOptions {
    /// Flush this CF's memtable once its approximate size exceeds this.
    pub memtable_budget_bytes: usize,
    /// Compact once the CF accumulates this many SSTables.
    pub compaction_trigger: usize,
    /// Bloom filter density for this CF's SSTables.
    pub bloom_bits_per_key: usize,
    /// Compaction filter consulted for every live entry during merges.
    pub filter: Option<Arc<dyn CompactionFilter>>,
}

impl fmt::Debug for CfOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CfOptions")
            .field("memtable_budget_bytes", &self.memtable_budget_bytes)
            .field("compaction_trigger", &self.compaction_trigger)
            .field("bloom_bits_per_key", &self.bloom_bits_per_key)
            .field("filter", &self.filter.as_ref().map(|flt| flt.name().to_owned()))
            .finish()
    }
}

impl Default for CfOptions {
    fn default() -> Self {
        CfOptions {
            memtable_budget_bytes: 4 << 20,
            compaction_trigger: 4,
            bloom_bits_per_key: 10,
            filter: None,
        }
    }
}

impl CfOptions {
    /// Profile for tiny metadata CFs (horizons, dead-leaf markers): a
    /// handful of keys, rewritten rarely — flush small and compact
    /// eagerly so the CF stays a single table.
    pub fn meta() -> Self {
        CfOptions {
            memtable_budget_bytes: 64 << 10,
            compaction_trigger: 2,
            bloom_bits_per_key: 8,
            filter: None,
        }
    }

    /// This profile with `filter` installed.
    pub fn with_filter(mut self, filter: Arc<dyn CompactionFilter>) -> Self {
        self.filter = Some(filter);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_distinct_and_debuggable() {
        let w = CfOptions::default();
        let m = CfOptions::meta();
        assert!(w.memtable_budget_bytes > m.memtable_budget_bytes);
        assert!(w.compaction_trigger > m.compaction_trigger);
        struct Nop;
        impl CompactionFilter for Nop {
            fn name(&self) -> &str {
                "nop"
            }
            fn filter(&self, _: &[u8], _: &[u8]) -> FilterDecision {
                FilterDecision::Keep
            }
        }
        let dbg = format!("{:?}", w.with_filter(Arc::new(Nop)));
        assert!(dbg.contains("nop"), "{dbg}");
    }
}

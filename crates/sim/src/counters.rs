//! Engine self-observability counters.
//!
//! The engine exposes two disjoint counter sets, segregated the same way
//! the bench harness splits `PERF_WALL_CLOCK_FIELDS` from simulated
//! quantities:
//!
//! - **Deterministic counters** ([`EngineCounters`]) — pure functions of
//!   the event schedule: events processed, calendar occupancy high-water,
//!   ladder spills, counting-scatter fallbacks, and arena live/high-water.
//!   A same-seed run reproduces them exactly, and they snapshot/restore
//!   through checkpoints exactly.
//! - **Wall-clock counters** ([`WallClockCounters`]) — time spent in the
//!   event loop, measured with `Instant`. It varies run to run and
//!   machine to machine, so it is gated behind `SimConfig::wall_counters`
//!   (off by default; the gate keeps runs free of clock reads), never
//!   serialized into checkpoints, and listed in every diff tool's skip
//!   list (see [`WALL_CLOCK_COUNTER_FIELDS`]).
//!
//! The calendar/arena counters live inside branches that already execute
//! rarely (ladder migration, scatter fallback, slab growth), so keeping
//! them costs the hot loop nothing.
//!
//! `shards` always holds exactly one entry. The epoch, cross-shard,
//! barrier and mailbox fields always read 0; they are kept only so
//! existing readers compile.

/// Manifest leaf names of the wall-clock counter set — the names
/// `dcnstat diff` (via `dcn-core`'s `WALL_CLOCK_FIELDS`) must skip so
/// same-seed manifests diff clean.
pub const WALL_CLOCK_COUNTER_FIELDS: [&str; 1] = ["drain_ns"];

/// Deterministic counters of the event loop; see the module docs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Events processed over the whole run (data and control plane;
    /// equals `Simulator::events_processed`).
    pub events: u64,
    /// High-water mark of the calendar's pending-event population.
    pub calendar_peak: u64,
    /// Ladder→ring migrations: events that sat beyond the ring horizon
    /// and were re-filed into buckets as the cursor advanced.
    pub ladder_spills: u64,
    /// Sub-bucket sorts that fell back from the counting scatter to a
    /// comparison sort (per-`t` seq monotonicity broken by a ladder
    /// migration).
    pub scatter_fallbacks: u64,
    /// Packets live in the arena right now.
    pub arena_live: u64,
    /// High-water mark of live packets in the arena.
    pub arena_high_water: u64,
}

/// The deterministic counter set for a whole run; see the module docs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Retired with the sharded engine's epoch barriers: always 0.
    pub epochs: u64,
    /// The event loop's counters: always exactly one entry.
    pub shards: Vec<ShardCounters>,
}

impl EngineCounters {
    /// Total events processed.
    pub fn events_total(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    /// Retired with the sharded engine's mailboxes: always 0.
    pub fn cross_shard_total(&self) -> u64 {
        0
    }
}

/// The wall-clock counter set; all zero unless `SimConfig::wall_counters`
/// was set. See the module docs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WallClockCounters {
    /// Time spent inside the event loop (one entry).
    pub drain_ns: Vec<u64>,
    /// Retired with the sharded engine's epoch barriers: always 0.
    pub barrier_wait_ns: u64,
    /// Retired with the sharded engine's mailboxes: always 0.
    pub mailbox_flush_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_total_sums_entries() {
        let c = EngineCounters {
            shards: vec![ShardCounters {
                events: 42,
                ..Default::default()
            }],
            ..Default::default()
        };
        assert_eq!(c.events_total(), 42);
        assert_eq!(c.cross_shard_total(), 0);
    }

    #[test]
    fn empty_counters_are_safe() {
        let c = EngineCounters::default();
        assert_eq!(c.events_total(), 0);
        assert_eq!(c.cross_shard_total(), 0);
    }
}

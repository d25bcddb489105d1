//! A shard-count token that selects nothing.
//!
//! Every flash operation runs on one serial path; nothing in the
//! simulator partitions work by shard. [`ShardPlan`] exists only because
//! the host-time benchmark still passes one to the `fa_bench::perf`
//! sweeps.

/// A shard count that selects nothing: the host-time benchmark still
/// passes one to the `fa_bench::perf` sweeps, which run the serial loop
/// either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan;

impl ShardPlan {
    /// A plan for `shards` shards; the count is ignored.
    pub fn new(_shards: usize) -> Self {
        ShardPlan
    }
}

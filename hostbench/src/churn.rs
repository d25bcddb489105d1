//! `gc_churn`: the policy-ablation churn harness at the default policies
//! (FirstFree placement, RoundRobin victims), driven straight through
//! `Flashvisor::write_section` with `Storengine::collect_garbage` run
//! whenever the free-space watermark trips. It is the write/GC counterpart
//! of `hetero_campaign`: the same Flashvisor and backbone layers, used for
//! writes, erases and migrations instead of reads.
//!
//! Device: 2 channels × 32 blocks × 16 pages, 8 KB groups, watermark 0.5,
//! journaling quiesced. The workload fills 128 groups, then overwrites a
//! 32-group hot window every round and one cold group every fourth round;
//! the seed fixes the order in which cold groups are revisited.

use crate::bench::{guarded, Layers, Pass, TracedPass, Workload};
use crate::device::{DeviceTotals, Digest};
use crate::report::{quantile, ratio, MetricDef, Reading};
use crate::trace::{durations_of, total_by_name, Tracer};
use fa_platform::mem::Scratchpad;
use fa_sim::time::{SimDuration, SimTime};
use fa_sim::DeterministicRng;
use flashabacus::{
    FaError, FlashAbacusConfig, Flashvisor, GcVictimPolicy, PlacementPolicy, SchedulerPolicy,
    Storengine,
};
use std::time::Instant;

const COLD_GROUPS: u64 = 96;
const HOT_GROUPS: u64 = 32;
/// A GC loop that has not restored the watermark after this many passes
/// gives up until the next write, as the policy-ablation harness does.
const GC_GUARD: u64 = 64;

fn churn_config() -> FlashAbacusConfig {
    let mut config = FlashAbacusConfig::tiny_for_tests(SchedulerPolicy::IntraO3);
    config.flash_geometry.blocks_per_plane = 32;
    config.flash_geometry.pages_per_block = 16;
    config.page_group_bytes = 8 * 1024;
    config.gc_low_watermark = 0.50;
    config.journal_interval = SimDuration::from_ms(60_000);
    config.placement = PlacementPolicy::FirstFree;
    config.gc_victim = GcVictimPolicy::RoundRobin;
    config.hot_overwrite_threshold = None;
    config
}

pub struct Churn {
    rounds: u64,
    config: FlashAbacusConfig,
    /// Logical group of every write, in order.
    writes: Vec<u64>,
}

impl Churn {
    pub fn new(rounds: u64) -> Self {
        Churn {
            rounds,
            config: churn_config(),
            writes: Vec::new(),
        }
    }
}

/// One overwrite and the collection it triggers. Returns a digest of the
/// simulated completion of the write and of each GC pass, and the passes.
fn overwrite(
    tracer: &mut Tracer,
    v: &mut Flashvisor,
    s: &mut Storengine,
    sp: &mut Scratchpad,
    now_us: &mut u64,
    lg: u64,
) -> Result<(Digest, u64), FaError> {
    let group_bytes = v.config().page_group_bytes;
    *now_us += 41;
    let at = SimTime::from_us(*now_us);
    let done = tracer.span("flashvisor.write", || {
        v.write_section(at, lg * group_bytes, group_bytes, sp)
    })?;
    let mut digest = Digest::default();
    digest.push(done.finished.as_ns());
    let mut passes = 0u64;
    while passes < GC_GUARD && tracer.span("storengine.check", || s.gc_needed(v)) {
        *now_us += 173;
        let at = SimTime::from_us(*now_us);
        let gc = tracer.span("storengine.gc", || s.collect_garbage(at, v))?;
        digest.push(gc.finished.as_ns());
        digest.push(gc.pages_migrated);
        passes += 1;
    }
    Ok((digest, passes))
}

impl Workload for Churn {
    fn setup(&mut self, seed: u64) {
        let mut cold: Vec<u64> = (0..COLD_GROUPS).collect();
        DeterministicRng::seed_from(seed).shuffle(&mut cold);
        self.writes = (0..COLD_GROUPS + HOT_GROUPS).collect();
        for round in 0..self.rounds {
            self.writes.push(COLD_GROUPS + round % HOT_GROUPS);
            if round % 4 == 0 {
                self.writes.push(cold[((round / 4) % COLD_GROUPS) as usize]);
            }
        }
    }

    fn pass(&mut self, tracer: &mut Tracer) -> Pass {
        let config = self.config;
        let mut v = tracer.span("flashvisor.new", || Flashvisor::new(config));
        let mut s = Storengine::new(config);
        let mut sp = Scratchpad::new(&config.platform);
        let mut pass = Pass::default();
        let mut now_us = 1u64;
        let mut totals = DeviceTotals::default();
        pass.op_ns.reserve(self.writes.len());
        pass.op_digests.reserve(self.writes.len());
        for &lg in &self.writes {
            let started = Instant::now();
            let out = guarded(|| overwrite(tracer, &mut v, &mut s, &mut sp, &mut now_us, lg));
            pass.op_ns.push(started.elapsed().as_nanos() as u64);
            let op = match out {
                Some(Ok((d, passes))) => {
                    totals.gc_passes += passes;
                    d.value()
                }
                _ => {
                    pass.failed += 1;
                    0
                }
            };
            pass.op_digests.push(op);
        }

        match totals.add(&v, &s) {
            Some(cmds) => pass.flash_cmds = cmds,
            None => pass.failed += 1,
        }
        totals.write(&mut pass.counts);

        let wear = v.data_block_wear();
        let st = s.stats();
        let mut digest = Digest::default();
        for word in [
            wear.min_erases,
            wear.max_erases,
            wear.stddev_erases.to_bits(),
            st.journal_dumps,
            st.journal_pages,
            st.blocks_reclaimed,
            st.pages_migrated,
            st.erases,
            st.groups_reclaimed,
        ] {
            digest.push(word);
        }
        pass.digest = digest.value();
        pass
    }

    fn readings(&self, passes: &[(f64, Pass)]) -> Vec<Reading> {
        let ops: Vec<u64> = passes
            .iter()
            .flat_map(|(_, p)| p.op_ns.iter().copied())
            .collect();
        vec![Reading::new(
            OP_US_P99,
            quantile(&ops, 0.99) as f64 / 1e3,
            ops.len(),
        )]
    }

    fn layers(&mut self, traced: &TracedPass<'_>, out: &mut Layers) -> Vec<String> {
        let gc = durations_of(traced.spans, "storengine.gc");
        let write_ns = total_by_name(traced.spans)
            .get("flashvisor.write")
            .copied()
            .unwrap_or(0);
        let groups = traced
            .pass
            .counts
            .get("flashvisor.group_writes")
            .copied()
            .unwrap_or(0.0);
        out.insert(
            "flashvisor.write_ns_per_group",
            ratio(write_ns as f64, groups),
        );
        out.insert("storengine.gc_ns_p50", quantile(&gc, 0.5) as f64);
        out.insert("storengine.gc_ns_p99", quantile(&gc, 0.99) as f64);
        Vec::new()
    }
}

const OP_US_P99: MetricDef = MetricDef {
    name: "op_us_p99",
    unit: "us",
};

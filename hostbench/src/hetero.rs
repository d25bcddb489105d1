//! `hetero_campaign`: the fourteen heterogeneous mixes (MX1–MX14, 24
//! instances each) on all five systems, one (mix, system) run after
//! another. It is the paper's headline campaign and is read-dominated: it
//! loads the schedulers, Flashvisor translation, the backbone read path
//! and the sharded lanes, and runs no garbage collection. Its inputs are
//! fixed by Table 2, so it takes no seed.

use crate::bench::{guarded, seconds_per, Layers, Pass, TracedPass, Workload};
use crate::device::{DeviceTotals, Digest};
use crate::replay;
use crate::report::{quantile, MetricDef, Reading};
use crate::trace::{total_by_name, Tracer};
use fa_bench::runner::{heterogeneous_workload, run_on, ExperimentScale, SystemKind};
use fa_kernel::chain::ExecutionChain;
use fa_kernel::model::Application;
use flashabacus::{FlashAbacusConfig, FlashAbacusSystem};
use std::time::Instant;

pub struct Hetero {
    scale: ExperimentScale,
    mix_count: usize,
    /// The 24 instances of each mix, MX1 first.
    mixes: Vec<Vec<Application>>,
    /// Screens one run of each mix dispatches.
    screens: Vec<u64>,
}

impl Hetero {
    pub fn new(data_scale: u64, mixes: usize) -> Self {
        Hetero {
            scale: ExperimentScale { data_scale },
            mix_count: mixes,
            mixes: Vec::new(),
            screens: Vec::new(),
        }
    }
}

/// Digest of one run's simulated results: total seconds, throughput and
/// energy, as bit patterns.
fn run_digest(total_s: f64, mb_s: f64, joules: f64) -> u64 {
    let mut d = Digest::default();
    d.push_f64(total_s);
    d.push_f64(mb_s);
    d.push_f64(joules);
    d.value()
}

impl Workload for Hetero {
    fn setup(&mut self, _seed: u64) {
        self.mixes = (1..=self.mix_count)
            .map(|mix| heterogeneous_workload(mix, self.scale))
            .collect();
        self.screens = self
            .mixes
            .iter()
            .map(|apps| ExecutionChain::new(apps).total_screens() as u64)
            .collect();
    }

    fn pass(&mut self, tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut totals = DeviceTotals::default();
        let mut digest = Digest::default();
        for (i, (apps, screens)) in self.mixes.iter().zip(&self.screens).enumerate() {
            let label = format!("MX{}", i + 1);
            for system in SystemKind::all() {
                let started = Instant::now();
                let op_digest = match system {
                    SystemKind::Simd => {
                        let out = tracer
                            .span("baseline.run", || guarded(|| run_on(system, &label, apps)));
                        pass.op_ns.push(started.elapsed().as_nanos() as u64);
                        out.map(|o| {
                            run_digest(o.total_seconds, o.throughput_mb_s, o.total_energy_j())
                        })
                    }
                    SystemKind::FlashAbacus(policy) => {
                        let mut sys = tracer.span("system.new", || {
                            FlashAbacusSystem::new(FlashAbacusConfig::paper_prototype(policy))
                        });
                        let out = tracer.span("system.run", || guarded(|| sys.run(apps)));
                        let ns = started.elapsed().as_nanos() as u64;
                        pass.op_ns.push(ns);
                        pass.run_ns.push(ns);
                        match out {
                            Some(Ok(o)) => {
                                totals.gc_passes += o.gc_passes;
                                pass.screens += screens;
                                totals.add(sys.flashvisor(), sys.storengine()).map(|cmds| {
                                    pass.flash_cmds += cmds;
                                    run_digest(
                                        o.finished_at.as_secs_f64(),
                                        o.throughput_mb_s(),
                                        o.energy.total_j(),
                                    )
                                })
                            }
                            _ => None,
                        }
                    }
                };
                let op_digest = op_digest.unwrap_or_else(|| {
                    pass.failed += 1;
                    0
                });
                digest.push(op_digest);
                pass.op_digests.push(op_digest);
            }
        }
        pass.digest = digest.value();
        totals.write(&mut pass.counts);
        pass.counts.insert("system.runs", pass.run_ns.len() as f64);
        pass
    }

    fn readings(&self, passes: &[(f64, Pass)]) -> Vec<Reading> {
        let runs: Vec<u64> = passes.iter().flat_map(|(_, p)| p.run_ns.clone()).collect();
        vec![
            Reading::new(
                NS_PER_SCREEN,
                seconds_per(passes, |p| p.screens) * 1e9,
                passes.len(),
            ),
            Reading::new(RUN_MS_P50, quantile(&runs, 0.5) as f64 / 1e6, runs.len()),
            Reading::new(RUN_MS_P80, quantile(&runs, 0.8) as f64 / 1e6, runs.len()),
        ]
    }

    fn layers(&mut self, traced: &TracedPass<'_>, out: &mut Layers) -> Vec<String> {
        let totals = total_by_name(traced.spans);
        let secs = |name: &str| totals.get(name).copied().unwrap_or(0) as f64 / 1e9;
        out.insert("system.new_s", secs("system.new"));
        out.insert("baseline.run_s", secs("baseline.run"));
        let scheduler_s = replay::scheduler(&self.mixes, out);
        let flashvisor_s = replay::flashvisor(&self.mixes, out);
        vec![format!(
            "attributed scheduler {scheduler_s:.6} s + flashvisor/rangelock {flashvisor_s:.6} s \
             of system.run {:.6} s (replays, not an exact split)",
            secs("system.run")
        )]
    }
}

pub const NS_PER_SCREEN: MetricDef = MetricDef {
    name: "ns_per_screen",
    unit: "ns",
};
const RUN_MS_P50: MetricDef = MetricDef {
    name: "run_ms_p50",
    unit: "ms",
};
const RUN_MS_P80: MetricDef = MetricDef {
    name: "run_ms_p80",
    unit: "ms",
};

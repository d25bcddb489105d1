//! Replays that time one layer through its public API, for layers a
//! workload reaches only inside an opaque simulation call.
//!
//! Replays are not the run: they repeat the kind of work the run hands the
//! layer, sized from the workload's inputs. Their times are attributed
//! shares, not exact splits of the run's wall time.

use crate::bench::Layers;
use crate::report::{median, ratio};
use fa_bench::perf::{
    group_program_sweep, group_read_sweep, hot_path_backbone, preloaded_hot_path_backbone,
};
use fa_flash::FlashBackbone;
use fa_kernel::chain::ExecutionChain;
use fa_kernel::model::Application;
use fa_platform::mem::Scratchpad;
use fa_sim::sharded::ShardPlan;
use fa_sim::time::SimTime;
use flashabacus::openloop::{AdmissionController, QosGovernor, TenantOutcome};
use flashabacus::scheduler::{intra_next_ready, SchedulerPolicy};
use flashabacus::{FlashAbacusConfig, Flashvisor, GovernorConfig, LockMode};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// Times `f` `reps` times and returns the median seconds and the last
/// result.
fn timed<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let r = black_box(f());
        samples.push(t.elapsed().as_secs_f64());
        last = Some(r);
    }
    (median(&samples), last.expect("at least one repetition"))
}

/// Serial `submit_group` read and program sweeps of the hot-path device,
/// and the same sweeps through the one-shard sharded lane: backbone cost
/// per command, and lane cost over serial cost.
pub fn backbone_sweeps(out: &mut Layers) {
    let reps = 5;
    let preloaded = preloaded_hot_path_backbone();
    let erased = hot_path_backbone();
    let sweep = |base: &FlashBackbone, plan: Option<ShardPlan>, read: bool| {
        let mut b = base.clone();
        let t = Instant::now();
        let (cmds, _, done) = if read {
            group_read_sweep(&mut b, plan, SimTime::ZERO)
        } else {
            group_program_sweep(&mut b, plan, SimTime::ZERO)
        };
        (t.elapsed().as_secs_f64(), cmds, done)
    };
    let cost = |base: &FlashBackbone, plan: Option<ShardPlan>, read: bool| {
        let runs: Vec<_> = (0..reps).map(|_| sweep(base, plan, read)).collect();
        let secs: Vec<f64> = runs.iter().map(|r| r.0).collect();
        let (_, cmds, done) = runs[0];
        (ratio(median(&secs) * 1e9, cmds as f64), done)
    };
    let (read_ns, read_done) = cost(&preloaded, None, true);
    let (program_ns, program_done) = cost(&erased, None, false);
    let lane = Some(ShardPlan::new(1));
    let (lane_read_ns, lane_read_done) = cost(&preloaded, lane, true);
    let (lane_program_ns, lane_program_done) = cost(&erased, lane, false);
    assert_eq!(read_done, lane_read_done, "lane and serial reads diverged");
    assert_eq!(
        program_done, lane_program_done,
        "lane and serial programs diverged"
    );
    out.insert("backbone.read_ns_per_cmd", read_ns);
    out.insert("backbone.program_ns_per_cmd", program_ns);
    out.insert(
        "sharded.serial_vs_lane_ns_per_cmd",
        ratio(lane_read_ns + lane_program_ns, read_ns + program_ns),
    );
}

/// Drains `apps`' chain through `policy`'s decision path with at most 12
/// screens in flight, as the dispatch loop does. Returns decisions made.
fn drain(policy: SchedulerPolicy, apps: &[Application]) -> u64 {
    let mut chain = ExecutionChain::new(apps);
    let kernels: Vec<(usize, usize)> = apps
        .iter()
        .enumerate()
        .flat_map(|(ai, a)| (0..a.kernels.len()).map(move |ki| (ai, ki)))
        .collect();
    let mut in_flight = Vec::with_capacity(12);
    let mut decisions = 0u64;
    let mut t = 0u64;
    while !chain.is_complete() {
        while in_flight.len() < 12 {
            let pick = if policy.is_intra_kernel() {
                intra_next_ready(policy, &chain)
            } else {
                kernels
                    .iter()
                    .find_map(|&(ai, ki)| chain.next_ready_of_kernel(ai, ki))
            };
            let Some(s) = pick else { break };
            chain.mark_running(s, in_flight.len());
            in_flight.push(s);
            decisions += 1;
        }
        let s = in_flight.pop().expect("the scheduler stalled");
        t += 10;
        chain.mark_done(s, SimTime::from_us(t));
    }
    decisions
}

/// Every mix's chain replayed through every FlashAbacus policy.
pub fn scheduler(mixes: &[Vec<Application>], out: &mut Layers) -> f64 {
    let (secs, decisions) = timed(3, || {
        let mut decisions = 0u64;
        for apps in mixes {
            for policy in SchedulerPolicy::all() {
                decisions += drain(policy, apps);
            }
        }
        decisions
    });
    out.insert("scheduler.decisions", decisions as f64);
    out.insert(
        "scheduler.ns_per_decision",
        ratio(secs * 1e9, decisions as f64),
    );
    secs
}

/// Each mix's data sections replayed through Flashvisor: range-lock
/// mapping of every section, then a read of every input and a write of
/// every output, on a fresh prototype Flashvisor per mix.
pub fn flashvisor(mixes: &[Vec<Application>], out: &mut Layers) -> f64 {
    let config = FlashAbacusConfig::paper_prototype(SchedulerPolicy::IntraO3);
    let (mut map_s, mut read_s, mut write_s) = (0.0, 0.0, 0.0);
    let (mut maps, mut reads, mut writes) = (0u64, 0u64, 0u64);
    for apps in mixes {
        let sections: Vec<(u32, fa_kernel::model::DataSection)> = apps
            .iter()
            .flat_map(|a| a.kernels.iter().map(move |k| (a.id.0, k.data_section)))
            .collect();
        let mut v = Flashvisor::new(config);
        let mut sp = Scratchpad::new(&config.platform);
        for (_, ds) in &sections {
            v.preload_range(ds.flash_base, ds.input_bytes)
                .expect("mix inputs fit the device");
        }
        let t = Instant::now();
        for (owner, ds) in &sections {
            let input = v
                .map_section(ds.flash_base, ds.input_bytes, LockMode::Read, *owner)
                .expect("mix sections are disjoint");
            let output = v
                .map_section(
                    ds.flash_base + ds.input_bytes,
                    ds.output_bytes,
                    LockMode::Write,
                    *owner,
                )
                .expect("mix sections are disjoint");
            v.unmap_section(input);
            v.unmap_section(output);
            maps += 2;
        }
        map_s += t.elapsed().as_secs_f64();

        let mut now = SimTime::ZERO;
        let before = v.stats().group_reads;
        let t = Instant::now();
        for (_, ds) in &sections {
            now = v
                .read_section(now, ds.flash_base, ds.input_bytes, &mut sp)
                .expect("replayed read")
                .finished;
        }
        read_s += t.elapsed().as_secs_f64();
        reads += v.stats().group_reads - before;

        let before = v.stats().group_writes;
        let t = Instant::now();
        for (_, ds) in &sections {
            now = v
                .write_section(
                    now,
                    ds.flash_base + ds.input_bytes,
                    ds.output_bytes,
                    &mut sp,
                )
                .expect("replayed write")
                .finished;
        }
        write_s += t.elapsed().as_secs_f64();
        writes += v.stats().group_writes - before;
    }
    out.insert("rangelock.map_ns_per_call", ratio(map_s * 1e9, maps as f64));
    out.insert(
        "flashvisor.read_ns_per_group",
        ratio(read_s * 1e9, reads as f64),
    );
    out.insert(
        "flashvisor.write_ns_per_group",
        ratio(write_s * 1e9, writes as f64),
    );
    map_s + read_s + write_s
}

/// The campaign's arrivals and completions replayed, in simulated-time
/// order, through an admission controller of the campaign's bounds.
pub fn admission(tenants: &[TenantOutcome], cap: usize, queue: usize, out: &mut Layers) {
    // (instant, 0 = completion first at a tie, tenant)
    let mut events: Vec<(SimTime, u8, u32)> = tenants
        .iter()
        .flat_map(|t| {
            let done = t.completed_at.map(|c| (c, 0u8, t.tenant));
            std::iter::once((t.arrived_at, 1u8, t.tenant)).chain(done)
        })
        .collect();
    events.sort_unstable();
    let (secs, _) = timed(9, || {
        let mut ctrl = AdmissionController::new(cap, queue);
        for &(_, kind, tenant) in &events {
            if kind == 1 {
                black_box(ctrl.arrive(tenant));
            } else {
                black_box(ctrl.complete());
            }
        }
        ctrl.counters()
    });
    out.insert(
        "openloop.admission_ns_per_decision",
        ratio(secs * 1e9, tenants.len() as f64),
    );
}

/// Governor ticks replayed against the campaign's final backbone, whose
/// owner table holds every tenant the campaign saw, with the last
/// `active` tenants in flight.
pub fn governor(
    backbone: &FlashBackbone,
    tenants: u32,
    active: usize,
    ticks: u64,
    out: &mut Layers,
) {
    let active: BTreeSet<u32> = (tenants.saturating_sub(active as u32)..tenants).collect();
    let ticks = ticks.clamp(1, 400);
    let mut b = backbone.clone();
    let (secs, _) = timed(3, || {
        let mut gov = QosGovernor::new(GovernorConfig::default(), SimTime::ZERO);
        for _ in 0..ticks {
            gov.rebalance(&active, &mut b);
        }
        gov.updates()
    });
    out.insert(
        "openloop.rebalance_ns_per_tick",
        ratio(secs * 1e9, ticks as f64),
    );
}

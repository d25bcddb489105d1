//! `openloop_burst`: one open-loop campaign on the scale-out
//! configuration (three tenant templates, background GC, QoS governor on,
//! 6 slots, queue 64). Tenants arrive on/off at 900 per simulated second,
//! about twice the measured capacity: 200 ms on, then 600 ms silent.
//! Bursts fill the admission queue and shed tenants, and silences drain
//! it, while the governor ticks throughout, so admission and governor
//! code do the work that the other workloads never reach.
//!
//! The open loop lives in simulated time inside `run_open_loop`; at the
//! host level each campaign is one closed-loop call. The seed drives the
//! arrival schedule.

use crate::bench::{guarded, seconds_per, Layers, Pass, TracedPass, Workload};
use crate::device::{DeviceTotals, Digest};
use crate::hetero::NS_PER_SCREEN;
use crate::replay;
use crate::report::{median, ratio, MetricDef, Reading};
use crate::trace::{total_by_name, Tracer};
use fa_bench::experiments::scaleout::{scaleout_bounds, scaleout_config};
use fa_flash::FlashBackbone;
use fa_kernel::chain::ExecutionChain;
use fa_kernel::model::Application;
use fa_sim::arrivals::{ArrivalPlan, ArrivalShape};
use fa_sim::time::SimDuration;
use fa_workloads::tenants::tenant_templates;
use flashabacus::{FlashAbacusSystem, OpenLoopReport};
use std::time::Instant;

pub struct OpenLoop {
    data_scale: u64,
    tenants: u32,
    templates: Vec<Application>,
    /// Screens one tenant of each template dispatches.
    template_screens: Vec<u64>,
    plan: ArrivalPlan,
    arrivals: usize,
    /// The last campaign's report and final backbone, for the replays.
    last: Option<(OpenLoopReport, FlashBackbone)>,
}

impl OpenLoop {
    pub fn new(data_scale: u64, tenants: u32) -> Self {
        OpenLoop {
            data_scale,
            tenants,
            templates: Vec::new(),
            template_screens: Vec::new(),
            plan: ArrivalPlan::default(),
            arrivals: 0,
            last: None,
        }
    }

    fn campaign(&self, governed: bool) -> Option<(OpenLoopReport, FlashAbacusSystem)> {
        let mut system = FlashAbacusSystem::without_env_faults(scaleout_config());
        let report = guarded(|| {
            system.run_open_loop(&self.templates, &self.plan, &scaleout_bounds(governed))
        })?;
        Some((report.ok()?, system))
    }
}

impl Workload for OpenLoop {
    fn setup(&mut self, seed: u64) {
        self.templates = tenant_templates(self.data_scale);
        self.template_screens = self
            .templates
            .iter()
            .map(|t| ExecutionChain::new(std::slice::from_ref(t)).total_screens() as u64)
            .collect();
        self.plan = ArrivalPlan {
            seed,
            rate_per_s: 900.0,
            tenants: self.tenants,
            shape: ArrivalShape::OnOff,
            on: SimDuration::from_ms(200),
            off: SimDuration::from_ms(600),
            templates: self.templates.len(),
            ..Default::default()
        };
        self.arrivals = self.plan.schedule().len();
    }

    fn pass(&mut self, tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let started = Instant::now();
        let out = tracer.span("openloop.run", || self.campaign(true));
        pass.op_ns.push(started.elapsed().as_nanos() as u64);
        let Some((report, system)) = out else {
            pass.failed = 1;
            pass.op_digests.push(0);
            return pass;
        };
        let o = &report.outcome;
        let mut totals = DeviceTotals::default();
        totals.gc_passes = o.gc_passes;
        let conserved = totals.add(system.flashvisor(), system.storengine());
        let balanced = o.tenants_arrived == o.tenants_admitted + o.tenants_queued + o.tenants_shed
            && o.tenants_arrived == self.arrivals as u64;
        match conserved {
            Some(cmds) if balanced => pass.flash_cmds = cmds,
            _ => pass.failed = 1,
        }
        for t in report.tenants.iter().filter(|t| t.completed_at.is_some()) {
            pass.tenants += 1;
            pass.screens += self.template_screens[t.template];
        }
        let mut digest = Digest::default();
        digest.push_str(&report.digest());
        pass.digest = digest.value();
        pass.op_digests.push(pass.digest);

        totals.write(&mut pass.counts);
        let backbone = system.flashvisor().backbone();
        pass.counts.extend([
            ("system.runs", 1.0),
            ("openloop.arrivals", o.tenants_arrived as f64),
            ("openloop.admitted", o.tenants_admitted as f64),
            ("openloop.queued", o.tenants_queued as f64),
            ("openloop.shed", o.tenants_shed as f64),
            ("openloop.governor_ticks", o.governor_updates as f64),
            (
                "openloop.owners_touched",
                backbone.owner_stats().len() as f64,
            ),
        ]);
        if tracer.enabled() {
            self.last = Some((report, backbone.clone()));
        }
        pass
    }

    fn readings(&self, passes: &[(f64, Pass)]) -> Vec<Reading> {
        vec![
            Reading::new(
                NS_PER_SCREEN,
                seconds_per(passes, |p| p.screens) * 1e9,
                passes.len(),
            ),
            Reading::new(
                TENANTS_PER_S,
                ratio(1.0, seconds_per(passes, |p| p.tenants)),
                passes.len(),
            ),
        ]
    }

    fn layers(&mut self, traced: &TracedPass<'_>, out: &mut Layers) -> Vec<String> {
        let (report, backbone) = self.last.take().expect("a traced pass ran");
        let bounds = scaleout_bounds(true);
        replay::admission(
            &report.tenants,
            bounds.max_in_flight,
            bounds.queue_limit,
            out,
        );
        replay::governor(
            &backbone,
            report.tenants.len() as u32,
            bounds.max_in_flight,
            report.outcome.governor_updates,
            out,
        );
        // The governor's cost: the same campaign with the governor off.
        let twins: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                self.campaign(false).expect("the ungoverned twin completes");
                t.elapsed().as_secs_f64()
            })
            .collect();
        let ungoverned_s = median(&twins);
        out.insert("openloop.governor_s", traced.untraced_wall_s - ungoverned_s);
        let run_s = total_by_name(traced.spans)
            .get("openloop.run")
            .copied()
            .unwrap_or(0) as f64
            / 1e9;
        vec![format!(
            "attributed governor {:.6} s of openloop.run {run_s:.6} s (governor-off twin {ungoverned_s:.6} s)",
            traced.untraced_wall_s - ungoverned_s
        )]
    }
}

const TENANTS_PER_S: MetricDef = MetricDef {
    name: "tenants_per_s",
    unit: "1/s",
};

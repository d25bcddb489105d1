//! The complete flash backbone (storage complex).
//!
//! The backbone bundles the four channel controllers behind the SRIO/FMC
//! front-end that connects the storage complex to the accelerator's tier-2
//! network. Flashvisor submits [`FlashCommand`]s here; the backbone routes
//! them to the owning channel, models the SRIO hop, and reports a
//! [`FlashCompletion`] with the full timing breakdown.

use crate::controller::{ChannelController, ChannelOp, ChannelStats};
use crate::error::FlashError;
use crate::fault::{FaultPlan, FaultState, FaultStats};
use crate::geometry::{FlashGeometry, PhysicalPageAddr};
use crate::owner::{OwnerId, OwnerStats, QosBudgets};
use crate::timing::FlashTiming;
use crate::validindex::ValidPageIndex;
use fa_sim::resource::SerializedResource;
use fa_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Operations accepted by the backbone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlashOp {
    /// Read one page.
    ReadPage,
    /// Program one page.
    ProgramPage,
    /// Erase one block (the `page` field of the address is ignored).
    EraseBlock,
}

/// A command submitted to the backbone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlashCommand {
    /// What to do.
    pub op: FlashOp,
    /// Target physical page (or block for erases).
    pub addr: PhysicalPageAddr,
}

impl FlashCommand {
    /// Builds a page-read command.
    pub fn read(addr: PhysicalPageAddr) -> Self {
        FlashCommand {
            op: FlashOp::ReadPage,
            addr,
        }
    }

    /// Builds a page-program command.
    pub fn program(addr: PhysicalPageAddr) -> Self {
        FlashCommand {
            op: FlashOp::ProgramPage,
            addr,
        }
    }

    /// Builds a block-erase command.
    pub fn erase(addr: PhysicalPageAddr) -> Self {
        FlashCommand {
            op: FlashOp::EraseBlock,
            addr,
        }
    }
}

/// Completion record for a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashCompletion {
    /// The command that completed.
    pub command: FlashCommand,
    /// When the command was submitted.
    pub submitted: SimTime,
    /// When the command (including SRIO data return for reads) finished.
    pub finished: SimTime,
}

impl FlashCompletion {
    /// End-to-end latency of this command.
    pub fn latency(&self) -> SimDuration {
        self.finished.saturating_since(self.submitted)
    }
}

/// Completion record for a batch of commands submitted together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchCompletion {
    /// When the batch was submitted.
    pub submitted: SimTime,
    /// When the last command of the batch finished.
    pub finished: SimTime,
    /// Number of commands in the batch.
    pub commands: u64,
}

/// Aggregate backbone statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BackboneStats {
    /// Pages read.
    pub reads: u64,
    /// Pages programmed.
    pub programs: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Payload bytes moved over the SRIO front-end.
    pub srio_bytes: u64,
}

/// The storage complex: channel controllers behind the SRIO front-end.
#[derive(Debug, Clone)]
pub struct FlashBackbone {
    geometry: FlashGeometry,
    timing: FlashTiming,
    channels: Vec<ChannelController>,
    srio: SerializedResource,
    /// Backbone-wide valid-page accounting, updated on every command that
    /// changes page state. Storengine's GC victim selection reads this.
    valid_index: ValidPageIndex,
    stats: BackboneStats,
    /// Per-owner command/byte/latency accounting (QoS figures and oracles),
    /// dense by [`OwnerId::dense_index`] — the data path updates plain array
    /// slots instead of map entries.
    owner_stats: Vec<OwnerStats>,
    /// Whether the matching `owner_stats` slot has ever received a
    /// submission, so reporting surfaces exactly the owners that submitted
    /// (the map semantics the oracles check).
    owner_touched: Vec<bool>,
    /// Every completed read's end-to-end latency in nanoseconds, per owner
    /// (dense by [`OwnerId::dense_index`]), for tail-latency quantiles
    /// (p99 of one kernel under concurrent GC).
    read_latencies: Vec<Vec<u64>>,
    /// SRIO service time for one page-sized transfer, precomputed so the
    /// group hot loop skips the bytes-to-duration conversion per page
    /// (identical value to what `srio.reserve` would derive).
    srio_page_service: SimDuration,
    /// The installed fault plan, if any. `None` (the default) means no
    /// channel carries fault state and every hook is one dead branch —
    /// fault-free runs stay byte-identical to the recorded golden campaign.
    fault_plan: Option<Arc<FaultPlan>>,
}

impl FlashBackbone {
    /// Builds a backbone with the given geometry, timing, SRIO bandwidth
    /// (bytes/second across all lanes), per-channel tag-queue depth, and
    /// block endurance limit.
    pub fn new(
        geometry: FlashGeometry,
        timing: FlashTiming,
        srio_bytes_per_sec: f64,
        inbound_tags: usize,
        endurance_limit: u64,
    ) -> Self {
        let channels = (0..geometry.channels)
            .map(|c| ChannelController::new(c, &geometry, timing, endurance_limit, inbound_tags))
            .collect();
        FlashBackbone {
            geometry,
            timing,
            channels,
            srio: SerializedResource::new("srio-fmc", srio_bytes_per_sec),
            valid_index: ValidPageIndex::new(
                geometry.total_blocks() as usize,
                geometry.pages_per_block,
            ),
            stats: BackboneStats::default(),
            owner_stats: Vec::new(),
            owner_touched: Vec::new(),
            read_latencies: Vec::new(),
            srio_page_service: SimDuration::for_transfer(
                geometry.page_bytes as u64,
                srio_bytes_per_sec,
            ),
            fault_plan: None,
        }
    }

    /// Installs a fault plan: every channel controller receives its own
    /// channel-local [`FaultState`] built from the shared plan, so fault
    /// decisions depend only on each channel's own command sequence
    /// (see [`crate::fault`]).
    pub fn install_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        for channel in &mut self.channels {
            let index = channel.index();
            channel.install_fault_state(FaultState::new(plan.clone(), index));
        }
        self.fault_plan = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault_plan.as_ref()
    }

    /// True when an installed plan can fault the read path (read-disturb or
    /// a scripted read fault). The translation layer then relocates the
    /// groups a section read disturbed.
    pub fn faults_affect_reads(&self) -> bool {
        self.fault_plan.as_ref().is_some_and(|p| p.affects_reads())
    }

    /// Always 0; kept because the host-time benchmark still reads it.
    pub fn sharded_windows(&self) -> u64 {
        0
    }

    /// Drains the flat page indexes hit by read-disturb since the last
    /// drain, channels in ascending order (each channel's pages in the
    /// order it recorded them). The translation layer relocates the
    /// containing groups before the disturbed data degrades further.
    pub fn take_disturbed_pages(&mut self) -> Vec<u64> {
        let geometry = self.geometry;
        let mut pages = Vec::new();
        for channel in &mut self.channels {
            if let Some(f) = channel.fault_state_mut() {
                pages.extend(
                    f.take_disturbed()
                        .into_iter()
                        .map(|a| geometry.addr_to_flat(a)),
                );
            }
        }
        pages
    }

    /// Drains the blocks that crossed the fault plan's `retire_after`
    /// threshold since the last drain, as flat
    /// [`FlashGeometry::block_index`] values, channels in ascending order.
    /// The translation layer promotes these into its bad-block table.
    pub fn take_blocks_pending_retirement(&mut self) -> Vec<u64> {
        let dies = self.geometry.dies_per_channel() as u64;
        let blocks_per_die = self.geometry.blocks_per_die() as u64;
        let mut blocks = Vec::new();
        for channel in &mut self.channels {
            let c = channel.index() as u64;
            if let Some(f) = channel.fault_state_mut() {
                blocks.extend(
                    f.take_retired_pending().into_iter().map(|(die, block)| {
                        (c * dies + die as u64) * blocks_per_die + block as u64
                    }),
                );
            }
        }
        blocks
    }

    /// Device-wide fault statistics: the element-wise sum over every
    /// channel's fault state (all zeros when no plan is installed).
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for channel in &self.channels {
            if let Some(f) = channel.fault_state() {
                total.absorb(f.stats());
            }
        }
        total
    }

    /// Dense accounting slot for `owner`, growing the per-owner arrays on
    /// first sight and marking the slot as live.
    fn owner_slot(&mut self, owner: OwnerId) -> usize {
        let oi = owner.dense_index();
        if oi >= self.owner_stats.len() {
            self.owner_stats.resize_with(oi + 1, OwnerStats::default);
            self.owner_touched.resize(oi + 1, false);
            self.read_latencies.resize_with(oi + 1, Vec::new);
        }
        self.owner_touched[oi] = true;
        oi
    }

    /// Installs per-owner tag budgets on every channel controller
    /// (unlimited by default, which reproduces untagged admission exactly).
    pub fn set_qos_budgets(&mut self, budgets: QosBudgets) {
        for channel in &mut self.channels {
            channel.set_qos_budgets(budgets);
        }
    }

    /// Installs (or clears, with `None`) a per-owner tag-budget override on
    /// every channel. Overrides replace the static [`QosBudgets`] grant for
    /// that owner only; the online QoS governor uses this to retune budgets
    /// mid-run from a sliding window over [`FlashBackbone::owner_stats`].
    pub fn set_owner_budget_override(&mut self, owner: OwnerId, budget: Option<usize>) {
        for channel in &mut self.channels {
            channel.set_owner_budget_override(owner, budget);
        }
    }

    /// Enables page-group accounting in the valid-page index: `pages_per_
    /// group` consecutive flat pages form one allocation group, and erases
    /// report the groups whose last programmed page they cleared (see
    /// [`FlashBackbone::take_fully_erased_groups`]).
    pub fn enable_group_tracking(&mut self, pages_per_group: u64) {
        let total_groups = self.geometry.total_pages() / pages_per_group.max(1);
        self.valid_index
            .enable_group_tracking(pages_per_group, total_groups);
    }

    /// The backbone geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// The backbone timing profile.
    pub fn timing(&self) -> &FlashTiming {
        &self.timing
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> BackboneStats {
        self.stats
    }

    /// Per-channel statistics.
    pub fn channel_stats(&self) -> Vec<ChannelStats> {
        self.channels.iter().map(|c| c.stats()).collect()
    }

    /// Immutable access to a channel controller.
    pub fn channel(&self, idx: usize) -> Option<&ChannelController> {
        self.channels.get(idx)
    }

    /// Mutable access to a channel controller (Storengine uses this to
    /// inspect victim blocks).
    pub fn channel_mut(&mut self, idx: usize) -> Option<&mut ChannelController> {
        self.channels.get_mut(idx)
    }

    /// Mean utilization of all dies up to `now`.
    pub fn mean_die_utilization(&self, now: SimTime) -> f64 {
        if self.channels.is_empty() {
            return 0.0;
        }
        self.channels
            .iter()
            .map(|c| c.mean_die_utilization(now))
            .sum::<f64>()
            / self.channels.len() as f64
    }

    /// SRIO front-end utilization up to `now`.
    pub fn srio_utilization(&self, now: SimTime) -> f64 {
        self.srio.utilization(now)
    }

    /// Mean channel-bus utilization up to `now`.
    pub fn mean_channel_bus_utilization(&self, now: SimTime) -> f64 {
        if self.channels.is_empty() {
            return 0.0;
        }
        self.channels
            .iter()
            .map(|c| c.bus_utilization(now))
            .sum::<f64>()
            / self.channels.len() as f64
    }

    /// Fraction of the backbone's active power drawn over the window ending
    /// at `now`: the busier of the NAND arrays (sensing/programming) and
    /// the channel buses (transfers). Used by the energy model to charge
    /// device-active power proportionally to actual activity.
    pub fn activity_factor(&self, now: SimTime) -> f64 {
        self.mean_die_utilization(now)
            .max(self.mean_channel_bus_utilization(now))
            .clamp(0.0, 1.0)
    }

    /// Submits a command at `now` without owner attribution (equivalent to
    /// [`FlashBackbone::submit_tagged`] with [`OwnerId::Unattributed`]).
    pub fn submit(
        &mut self,
        now: SimTime,
        command: FlashCommand,
    ) -> Result<FlashCompletion, FlashError> {
        self.submit_tagged(now, command, OwnerId::Unattributed)
    }

    /// Books an injected program failure into the valid index: the die
    /// really consumed the page (the media programmed garbage before
    /// reporting the failure), so occupancy must record it as
    /// programmed-then-invalid. The recycle/rollback paths key on
    /// programmed counts — recycling a silently page-consumed group would
    /// later program it again without an erase.
    fn book_failed_program(&mut self, e: &FlashError, now_ns: u64) {
        if let FlashError::InjectedProgramFailure(addr) = e {
            let block = self.geometry.block_index(*addr);
            let flat = self.geometry.addr_to_flat(*addr);
            self.valid_index.on_program(block, flat, now_ns);
            self.valid_index.on_invalidate(block, flat);
        }
    }

    /// Submits a command at `now` on behalf of `owner` and returns its
    /// completion record. The owner identity reaches the channel
    /// controller's tag queue (per-owner budget admission) and the
    /// per-owner statistics.
    pub fn submit_tagged(
        &mut self,
        now: SimTime,
        command: FlashCommand,
        owner: OwnerId,
    ) -> Result<FlashCompletion, FlashError> {
        if !self.geometry.contains(command.addr) {
            return Err(FlashError::OutOfRange(command.addr));
        }
        let oi = self.owner_slot(owner);
        let page_bytes = self.geometry.page_bytes as u64;
        let block = self.geometry.block_index(command.addr);
        let flat = self.geometry.addr_to_flat(command.addr);
        let channel = &mut self.channels[command.addr.channel];
        let by_owner = &mut self.owner_stats[oi];
        let finished = match command.op {
            FlashOp::ReadPage => {
                let done = channel.execute(now, ChannelOp::Read, command.addr, owner, None)?;
                // Read data crosses the SRIO lanes back to the network.
                let res = self.srio.reserve(done, page_bytes);
                self.stats.reads += 1;
                self.stats.srio_bytes += page_bytes;
                by_owner.reads += 1;
                by_owner.bytes += page_bytes;
                let latency_ns = res.end.saturating_since(now).as_ns();
                by_owner.read_latency_total_ns += latency_ns;
                by_owner.read_latency_max_ns = by_owner.read_latency_max_ns.max(latency_ns);
                self.read_latencies[oi].push(latency_ns);
                res.end
            }
            FlashOp::ProgramPage => {
                // Write data crosses SRIO before it reaches the channel.
                let res = self.srio.reserve(now, page_bytes);
                let done =
                    match channel.execute(res.end, ChannelOp::Program, command.addr, owner, None) {
                        Ok(done) => done,
                        Err(e) => {
                            self.book_failed_program(&e, now.as_ns());
                            return Err(e);
                        }
                    };
                self.valid_index.on_program(block, flat, now.as_ns());
                self.stats.programs += 1;
                self.stats.srio_bytes += page_bytes;
                by_owner.programs += 1;
                by_owner.bytes += page_bytes;
                done
            }
            FlashOp::EraseBlock => {
                let done = channel.execute(now, ChannelOp::Erase, command.addr, owner, None)?;
                self.valid_index.on_erase(block);
                self.stats.erases += 1;
                by_owner.erases += 1;
                done
            }
        };
        Ok(FlashCompletion {
            command,
            submitted: now,
            finished,
        })
    }

    /// Submits a batch of commands at `now` on behalf of `owner` and
    /// returns when the last one finished. Semantically identical to
    /// calling [`FlashBackbone::submit_tagged`] per command at the same
    /// instant, but without a completion record per page — the vectored
    /// path the multi-page group reads/writes of Flashvisor issue through —
    /// and with the owner and valid-index accounting applied once per batch
    /// instead of once per page. Stops at the first failing command;
    /// commands before it have already taken effect.
    pub fn submit_batch(
        &mut self,
        now: SimTime,
        commands: impl IntoIterator<Item = FlashCommand>,
        owner: OwnerId,
    ) -> Result<BatchCompletion, FlashError> {
        let geometry = self.geometry;
        let page_bytes = geometry.page_bytes as u64;
        let now_ns = now.as_ns();
        let mut finished = now;
        let mut count = 0u64;
        // Accounting accumulated across the batch and applied once at the
        // end (also before an early error return, so partial batches leave
        // the same state as the per-command path). The dense owner slot is
        // claimed lazily: a batch rejected before any command passes the
        // geometry check leaves no owner record, like the per-command path.
        let mut slot: Option<usize> = None;
        let mut acc = OwnerStats::default();
        let mut programmed: Vec<(u64, u64)> = Vec::new();
        let mut error: Option<FlashError> = None;
        for command in commands {
            if !geometry.contains(command.addr) {
                error = Some(FlashError::OutOfRange(command.addr));
                break;
            }
            let oi = match slot {
                Some(oi) => oi,
                None => {
                    let oi = self.owner_slot(owner);
                    slot = Some(oi);
                    oi
                }
            };
            let channel = &mut self.channels[command.addr.channel];
            match command.op {
                FlashOp::ReadPage => {
                    match channel.execute(now, ChannelOp::Read, command.addr, owner, None) {
                        Ok(done) => {
                            // Read data crosses the SRIO lanes back out.
                            let res = self.srio.reserve(done, page_bytes);
                            acc.reads += 1;
                            acc.bytes += page_bytes;
                            let latency_ns = res.end.saturating_since(now).as_ns();
                            acc.read_latency_total_ns += latency_ns;
                            acc.read_latency_max_ns = acc.read_latency_max_ns.max(latency_ns);
                            self.read_latencies[oi].push(latency_ns);
                            finished = finished.max(res.end);
                        }
                        Err(e) => {
                            error = Some(e);
                            break;
                        }
                    }
                }
                FlashOp::ProgramPage => {
                    // Write data crosses SRIO before it reaches the
                    // channel; the reservation stands even if the program
                    // then fails, as on the per-command path.
                    let res = self.srio.reserve(now, page_bytes);
                    match channel.execute(res.end, ChannelOp::Program, command.addr, owner, None) {
                        Ok(done) => {
                            // Only programs (and the erase below) need the
                            // block/flat mapping; reads skip the address
                            // arithmetic entirely.
                            programmed.push((
                                geometry.block_index(command.addr),
                                geometry.addr_to_flat(command.addr),
                            ));
                            acc.programs += 1;
                            acc.bytes += page_bytes;
                            finished = finished.max(done);
                        }
                        Err(e) => {
                            // Flush the successful programs first so the
                            // failed page books in per-command order.
                            self.valid_index
                                .on_program_batch(programmed.drain(..), now_ns);
                            self.book_failed_program(&e, now_ns);
                            error = Some(e);
                            break;
                        }
                    }
                }
                FlashOp::EraseBlock => {
                    match channel.execute(now, ChannelOp::Erase, command.addr, owner, None) {
                        Ok(done) => {
                            // Flush pending programs first so the valid
                            // index sees the same order as the per-command
                            // path.
                            self.valid_index
                                .on_program_batch(programmed.drain(..), now_ns);
                            self.valid_index
                                .on_erase(geometry.block_index(command.addr));
                            acc.erases += 1;
                            finished = finished.max(done);
                        }
                        Err(e) => {
                            error = Some(e);
                            break;
                        }
                    }
                }
            }
            count += 1;
        }
        self.valid_index
            .on_program_batch(programmed.drain(..), now_ns);
        if let Some(oi) = slot {
            self.stats.reads += acc.reads;
            self.stats.programs += acc.programs;
            self.stats.erases += acc.erases;
            self.stats.srio_bytes += acc.bytes;
            self.owner_stats[oi].absorb(&acc);
        }
        if let Some(e) = error {
            return Err(e);
        }
        Ok(BatchCompletion {
            submitted: now,
            finished,
            commands: count,
        })
    }

    /// Submits `pages` same-op commands covering the consecutive flat pages
    /// `first_flat..first_flat + pages` — the page-group stripe every
    /// Flashvisor group read/write issues. Exactly equivalent to
    /// [`FlashBackbone::submit_batch`] over the same commands (same
    /// per-command order against the channel controllers and the SRIO
    /// lanes, same accounting, same first-error semantics), but the
    /// flat→physical conversion is done once and stepped incrementally
    /// across the channel/die stripe, the per-command op dispatch is
    /// hoisted out of the loop, and programs derive their block index from
    /// the stepped address instead of re-dividing. This is the data-path
    /// hot loop: a campaign pushes tens of millions of pages through here.
    pub fn submit_group(
        &mut self,
        now: SimTime,
        first_flat: u64,
        pages: u64,
        op: FlashOp,
        owner: OwnerId,
    ) -> Result<BatchCompletion, FlashError> {
        if pages == 0 {
            return Ok(BatchCompletion {
                submitted: now,
                finished: now,
                commands: 0,
            });
        }
        if first_flat + pages > self.geometry.total_pages() {
            // The first out-of-range page the per-command path would hit.
            return Err(FlashError::OutOfRange(
                self.geometry
                    .flat_to_addr(first_flat.min(self.geometry.total_pages() - 1)),
            ));
        }
        let channels = self.geometry.channels;
        let dies = self.geometry.dies_per_channel();
        let pages_per_block = self.geometry.pages_per_block;
        let blocks_per_die = self.geometry.blocks_per_die() as u64;
        let page_bytes = self.geometry.page_bytes as u64;
        let srio_service = self.srio_page_service;
        let now_ns = now.as_ns();
        let mut addr = self.geometry.flat_to_addr(first_flat);
        let oi = self.owner_slot(owner);
        let mut finished = now;
        let mut count = 0u64;
        let mut acc = OwnerStats::default();
        let mut programmed: Vec<(u64, u64)> = Vec::new();
        if op == FlashOp::ProgramPage {
            programmed.reserve(pages as usize);
        }
        let mut error: Option<FlashError> = None;
        for i in 0..pages {
            let channel = &mut self.channels[addr.channel];
            match op {
                FlashOp::ReadPage => {
                    match channel.execute(now, ChannelOp::Read, addr, owner, None) {
                        Ok(done) => {
                            let res = self.srio.reserve_prepaid(done, page_bytes, srio_service);
                            acc.reads += 1;
                            acc.bytes += page_bytes;
                            let latency_ns = res.end.saturating_since(now).as_ns();
                            acc.read_latency_total_ns += latency_ns;
                            acc.read_latency_max_ns = acc.read_latency_max_ns.max(latency_ns);
                            self.read_latencies[oi].push(latency_ns);
                            finished = finished.max(res.end);
                        }
                        Err(e) => {
                            error = Some(e);
                            break;
                        }
                    }
                }
                FlashOp::ProgramPage => {
                    let res = self.srio.reserve_prepaid(now, page_bytes, srio_service);
                    match channel.execute(res.end, ChannelOp::Program, addr, owner, None) {
                        Ok(done) => {
                            let block = (addr.channel as u64 * dies as u64 + addr.die as u64)
                                * blocks_per_die
                                + addr.block as u64;
                            programmed.push((block, first_flat + i));
                            acc.programs += 1;
                            acc.bytes += page_bytes;
                            finished = finished.max(done);
                        }
                        Err(e) => {
                            // Flush the successful programs first so the
                            // failed page books in per-command order.
                            self.valid_index
                                .on_program_batch(programmed.drain(..), now_ns);
                            self.book_failed_program(&e, now_ns);
                            // An injected failure closes the stripe: the
                            // group's remaining pages are padded (programmed
                            // and discarded) so sibling dies' write cursors
                            // stay in lockstep with the failed one — without
                            // this, the next group's programs would be
                            // non-sequential on every die the abort skipped.
                            if matches!(e, FlashError::InjectedProgramFailure(_)) {
                                let mut pad = addr;
                                for j in i + 1..pages {
                                    pad.channel += 1;
                                    if pad.channel == channels {
                                        pad.channel = 0;
                                        pad.die += 1;
                                        if pad.die == dies {
                                            pad.die = 0;
                                            pad.page += 1;
                                            if pad.page == pages_per_block {
                                                pad.page = 0;
                                                pad.block += 1;
                                            }
                                        }
                                    }
                                    let res =
                                        self.srio.reserve_prepaid(now, page_bytes, srio_service);
                                    let outcome = self.channels[pad.channel].execute(
                                        res.end,
                                        ChannelOp::Program,
                                        pad,
                                        owner,
                                        None,
                                    );
                                    let block = (pad.channel as u64 * dies as u64 + pad.die as u64)
                                        * blocks_per_die
                                        + pad.block as u64;
                                    match outcome {
                                        // A clean pad program must be
                                        // discarded at the die as well, so
                                        // page state, controller counters,
                                        // and index agree that it is
                                        // programmed garbage.
                                        Ok(_) => {
                                            let _ = self.channels[pad.channel].invalidate(pad);
                                            self.valid_index.on_program(
                                                block,
                                                first_flat + j,
                                                now_ns,
                                            );
                                            self.valid_index.on_invalidate(block, first_flat + j);
                                        }
                                        // A pad page drawing its own injected
                                        // failure lands in the same state:
                                        // the fault hook already invalidated
                                        // it at the die.
                                        Err(FlashError::InjectedProgramFailure(_)) => {
                                            self.valid_index.on_program(
                                                block,
                                                first_flat + j,
                                                now_ns,
                                            );
                                            self.valid_index.on_invalidate(block, first_flat + j);
                                        }
                                        // Anything else (out of range, worn
                                        // die) is a real fault; stop padding
                                        // and surface the original error.
                                        Err(_) => break,
                                    }
                                }
                            }
                            error = Some(e);
                            break;
                        }
                    }
                }
                FlashOp::EraseBlock => {
                    match channel.execute(now, ChannelOp::Erase, addr, owner, None) {
                        Ok(done) => {
                            let block = (addr.channel as u64 * dies as u64 + addr.die as u64)
                                * blocks_per_die
                                + addr.block as u64;
                            self.valid_index.on_erase(block);
                            acc.erases += 1;
                            finished = finished.max(done);
                        }
                        Err(e) => {
                            error = Some(e);
                            break;
                        }
                    }
                }
            }
            count += 1;
            // Step to the next flat page: channels stripe fastest, then
            // dies, then pages within the block, then blocks.
            addr.channel += 1;
            if addr.channel == channels {
                addr.channel = 0;
                addr.die += 1;
                if addr.die == dies {
                    addr.die = 0;
                    addr.page += 1;
                    if addr.page == pages_per_block {
                        addr.page = 0;
                        addr.block += 1;
                    }
                }
            }
        }
        self.valid_index
            .on_program_batch(programmed.drain(..), now_ns);
        self.stats.reads += acc.reads;
        self.stats.programs += acc.programs;
        self.stats.erases += acc.erases;
        self.stats.srio_bytes += acc.bytes;
        self.owner_stats[oi].absorb(&acc);
        if let Some(e) = error {
            return Err(e);
        }
        Ok(BatchCompletion {
            submitted: now,
            finished,
            commands: count,
        })
    }

    /// Marks a page valid without consuming device time (pre-experiment data
    /// placement; see [`crate::die::FlashDie::preload_page`]).
    pub fn preload(&mut self, addr: PhysicalPageAddr) -> Result<(), FlashError> {
        if !self.geometry.contains(addr) {
            return Err(FlashError::OutOfRange(addr));
        }
        self.channels[addr.channel].preload(addr)?;
        self.valid_index.on_program(
            self.geometry.block_index(addr),
            self.geometry.addr_to_flat(addr),
            0,
        );
        Ok(())
    }

    /// Preloads `pages` consecutive flat pages starting at `first_flat` in
    /// one vectored call — exactly equivalent to calling
    /// [`FlashBackbone::preload`] on each page in ascending order (an error
    /// leaves every earlier page preloaded and indexed, like the per-page
    /// loop would), but the flat→physical conversion is done once and then
    /// stepped incrementally (consecutive flats stripe channels first, dies
    /// second), and the valid-index accounting lands through the batched
    /// entry point. This is the pre-experiment data-placement fast path:
    /// the campaign preloads hundreds of thousands of pages before any
    /// event runs, and three div/mod chains per page dominated that phase.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches outside the backbone, exactly where the
    /// per-page `flat_to_addr` would.
    pub fn preload_group(&mut self, first_flat: u64, pages: u64) -> Result<(), FlashError> {
        if pages == 0 {
            return Ok(());
        }
        assert!(
            first_flat + pages <= self.geometry.total_pages(),
            "page index out of range"
        );
        let channels = self.geometry.channels;
        let dies = self.geometry.dies_per_channel();
        let pages_per_block = self.geometry.pages_per_block;
        let blocks_per_die = self.geometry.blocks_per_die() as u64;
        let mut addr = self.geometry.flat_to_addr(first_flat);
        // (block index, flat page) of every page preloaded so far, flushed
        // to the valid index in 64-page chunks (the invalidate_group shape).
        let mut entries = [(0u64, 0u64); 64];
        let mut filled = 0usize;
        for i in 0..pages {
            if let Err(e) = self.channels[addr.channel].preload(addr) {
                self.valid_index
                    .on_program_batch(entries[..filled].iter().copied(), 0);
                return Err(e);
            }
            let block = (addr.channel as u64 * dies as u64 + addr.die as u64) * blocks_per_die
                + addr.block as u64;
            entries[filled] = (block, first_flat + i);
            filled += 1;
            if filled == entries.len() {
                self.valid_index
                    .on_program_batch(entries.iter().copied(), 0);
                filled = 0;
            }
            // Step to the next flat page: channels stripe fastest, then
            // dies, then pages within the block, then blocks.
            addr.channel += 1;
            if addr.channel == channels {
                addr.channel = 0;
                addr.die += 1;
                if addr.die == dies {
                    addr.die = 0;
                    addr.page += 1;
                    if addr.page == pages_per_block {
                        addr.page = 0;
                        addr.block += 1;
                    }
                }
            }
        }
        self.valid_index
            .on_program_batch(entries[..filled].iter().copied(), 0);
        Ok(())
    }

    /// Marks a page invalid (mapping-table act; consumes no device time).
    pub fn invalidate(&mut self, addr: PhysicalPageAddr) -> Result<(), FlashError> {
        if !self.geometry.contains(addr) {
            return Err(FlashError::OutOfRange(addr));
        }
        self.channels[addr.channel].invalidate(addr)?;
        self.valid_index.on_invalidate(
            self.geometry.block_index(addr),
            self.geometry.addr_to_flat(addr),
        );
        Ok(())
    }

    /// Marks every page of the physical group starting at flat page
    /// `first_flat` invalid in one vectored call — exactly equivalent to
    /// invalidating each page with [`FlashBackbone::invalidate`] while
    /// skipping unwritten trailing pages of a partially used group, but
    /// with the valid-index group accounting applied once per run instead
    /// of once per page. A hard error (out-of-range address, worn die)
    /// stops the sweep; pages before it have already taken effect.
    pub fn invalidate_group(&mut self, first_flat: u64, pages: u64) -> Result<(), FlashError> {
        let mut start = 0u64;
        while start < pages {
            let span = (pages - start).min(64);
            // Which pages of this chunk the dies actually invalidated, and
            // the block each one resolved to (so the index pass below never
            // redoes the address arithmetic).
            let mut ok_mask = 0u64;
            let mut blocks = [0u64; 64];
            let mut error = None;
            for i in 0..span {
                let addr = self.geometry.flat_to_addr(first_flat + start + i);
                if !self.geometry.contains(addr) {
                    error = Some(FlashError::OutOfRange(addr));
                    break;
                }
                match self.channels[addr.channel].invalidate(addr) {
                    Ok(()) => {
                        ok_mask |= 1 << i;
                        blocks[i as usize] = self.geometry.block_index(addr);
                    }
                    // An unwritten trailing page of a partially used group
                    // is benign on this path.
                    Err(FlashError::ReadUnwritten(_)) => {}
                    Err(e) => {
                        error = Some(e);
                        break;
                    }
                }
            }
            self.valid_index.on_invalidate_batch(
                (0..span)
                    .filter(|i| ok_mask >> i & 1 == 1)
                    .map(|i| (blocks[i as usize], first_flat + start + i)),
            );
            if let Some(e) = error {
                return Err(e);
            }
            start += span;
        }
        Ok(())
    }

    /// Total number of valid pages across the backbone. O(1): read from
    /// the incremental valid-page index.
    pub fn total_valid_pages(&self) -> usize {
        self.valid_index.total_valid() as usize
    }

    /// Brute-force recount of the backbone's valid pages from the die page
    /// states — the property-test oracle for the incremental index.
    pub fn recount_valid_pages(&self) -> usize {
        self.channels.iter().map(|c| c.recount_valid_pages()).sum()
    }

    /// The incremental valid-page index (GC victim selection, oracles).
    pub fn valid_index(&self) -> &ValidPageIndex {
        &self.valid_index
    }

    /// Promotes a flat block into the bad-block table of the valid-page
    /// index: no GC victim policy will propose it again. See
    /// [`ValidPageIndex::retire_block`].
    pub fn retire_block(&mut self, flat_block: u64) {
        self.valid_index.retire_block(flat_block);
    }

    /// Drains the page groups whose last programmed page was cleared by an
    /// erase since the previous call. With group tracking enabled, these
    /// are exactly the groups an erase made reusable — including
    /// overwritten (unmapped) garbage groups that were never individually
    /// recycled. Callers return the unmapped ones to the allocator.
    pub fn take_fully_erased_groups(&mut self) -> Vec<u64> {
        self.valid_index.take_fully_erased_groups()
    }

    /// Per-owner command counts, payload bytes, read latencies, and peak
    /// channel tag occupancy. Summing the command counts and bytes across
    /// owners reproduces [`FlashBackbone::stats`] exactly (the oracle
    /// property).
    pub fn owner_stats(&self) -> BTreeMap<OwnerId, OwnerStats> {
        let mut merged: BTreeMap<OwnerId, OwnerStats> = self
            .owner_stats
            .iter()
            .zip(&self.owner_touched)
            .enumerate()
            .filter(|&(_, (_, &touched))| touched)
            .map(|(oi, (&stats, _))| (OwnerId::from_dense_index(oi), stats))
            .collect();
        for channel in &self.channels {
            for (owner, peak) in channel.owner_peak_tags() {
                let entry = merged.entry(owner).or_default();
                entry.peak_tags = entry.peak_tags.max(peak);
            }
        }
        merged
    }

    /// `owner`'s recorded read latencies, `None` when it completed no reads.
    fn latencies_of(&self, owner: OwnerId) -> Option<&[u64]> {
        let latencies = self.read_latencies.get(owner.dense_index())?;
        if latencies.is_empty() {
            None
        } else {
            Some(latencies)
        }
    }

    /// The `q`-quantile (0..=1) of `owner`'s end-to-end page-read
    /// latencies, or `None` when the owner completed no reads.
    pub fn read_latency_quantile(&self, owner: OwnerId, q: f64) -> Option<SimDuration> {
        Self::quantile_of(self.latencies_of(owner)?.to_vec(), q)
    }

    /// Several quantiles of `owner`'s read latencies from one cloned
    /// scratch buffer — the run-outcome builder asks for p50/p99/max per
    /// owner. Each rank is found by selection (`select_nth_unstable`)
    /// rather than a full sort: the k-th order statistic of a totally
    /// ordered slice is the same element `sorted[k]` would hold, so the
    /// reported values are bit-identical while the cost drops from
    /// O(n log n) to O(n) per quantile.
    pub fn read_latency_quantiles(&self, owner: OwnerId, qs: &[f64]) -> Option<Vec<SimDuration>> {
        let mut latencies = self.latencies_of(owner)?.to_vec();
        Some(
            qs.iter()
                .map(|q| {
                    let rank = ((latencies.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
                    let (_, nth, _) = latencies.select_nth_unstable(rank);
                    SimDuration::from_ns(*nth)
                })
                .collect(),
        )
    }

    /// The `q`-quantile of all *foreground* (non-background-owner) read
    /// latencies — the tail the QoS budgets exist to protect.
    pub fn foreground_read_latency_quantile(&self, q: f64) -> Option<SimDuration> {
        let merged: Vec<u64> = self
            .read_latencies
            .iter()
            .enumerate()
            .filter(|&(oi, _)| !OwnerId::from_dense_index(oi).is_background())
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        Self::quantile_of(merged, q)
    }

    fn quantile_of(mut latencies: Vec<u64>, q: f64) -> Option<SimDuration> {
        if latencies.is_empty() {
            return None;
        }
        // Selection, not a sort: identical value to `sorted[rank]` at O(n).
        let rank = ((latencies.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        let (_, nth, _) = latencies.select_nth_unstable(rank);
        Some(SimDuration::from_ns(*nth))
    }

    /// The reclaimable block (≥1 invalid page) with the fewest valid pages,
    /// as a flat [`FlashGeometry::block_index`]; `None` when nothing holds
    /// garbage.
    pub fn min_valid_garbage_block(&self) -> Option<u64> {
        self.valid_index.min_valid_garbage_block()
    }

    /// The reclaimable block maximizing the cost-benefit score
    /// `age × garbage / valid` at `now` (see
    /// [`ValidPageIndex::cost_benefit_victim`]); `None` when nothing holds
    /// garbage.
    pub fn cost_benefit_victim_block(&self, now: SimTime) -> Option<u64> {
        self.valid_index.cost_benefit_victim(now.as_ns())
    }

    /// Drains the flat block indices erased since the previous drain, one
    /// entry per erase. The translation layer feeds these into its
    /// min-wear placement structure so wear stays incrementally current.
    pub fn take_erased_blocks(&mut self) -> Vec<u64> {
        self.valid_index.take_erased_blocks()
    }

    /// Erase cycles of every block, indexed by
    /// [`FlashGeometry::block_index`] — the endurance snapshot the run
    /// outcome's wear-spread metrics summarize.
    pub fn block_erase_counts(&self) -> Vec<u64> {
        (0..self.geometry.total_blocks())
            .map(|b| self.valid_index.block_erase_count(b))
            .collect()
    }

    /// Returns the number of valid pages in the given block.
    pub fn valid_pages_in_block(&self, channel: usize, die: usize, block: usize) -> usize {
        self.channels
            .get(channel)
            .and_then(|c| c.die(die))
            .map(|d| d.valid_pages_in(block))
            .unwrap_or(0)
    }

    /// Returns the erase count of the given block.
    pub fn erase_count(&self, channel: usize, die: usize, block: usize) -> u64 {
        self.channels
            .get(channel)
            .and_then(|c| c.die(die))
            .map(|d| d.erase_count(block))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backbone() -> FlashBackbone {
        FlashBackbone::new(
            FlashGeometry::tiny_for_tests(),
            FlashTiming::fast_for_tests(),
            2.5e9,
            8,
            1_000,
        )
    }

    #[test]
    fn read_after_program_succeeds_and_reports_latency() {
        let mut b = backbone();
        let addr = PhysicalPageAddr::new(0, 0, 0, 0);
        let w = b
            .submit(SimTime::ZERO, FlashCommand::program(addr))
            .unwrap();
        let r = b.submit(w.finished, FlashCommand::read(addr)).unwrap();
        assert!(r.latency() > SimDuration::ZERO);
        assert_eq!(b.stats().reads, 1);
        assert_eq!(b.stats().programs, 1);
        assert!(b.stats().srio_bytes >= 2 * 4096);
    }

    #[test]
    fn commands_to_different_channels_overlap() {
        let mut b = FlashBackbone::new(
            FlashGeometry::tiny_for_tests(),
            FlashTiming::paper_prototype(),
            20.0e9, // wide front-end so SRIO is not the bottleneck here
            8,
            1_000,
        );
        let a0 = PhysicalPageAddr::new(0, 0, 0, 0);
        let a1 = PhysicalPageAddr::new(1, 0, 0, 0);
        let c0 = b.submit(SimTime::ZERO, FlashCommand::program(a0)).unwrap();
        let c1 = b.submit(SimTime::ZERO, FlashCommand::program(a1)).unwrap();
        // Channel-level parallelism: both programs finish within a small
        // window of each other rather than back-to-back.
        let spread = c1
            .finished
            .saturating_since(c0.finished)
            .max(c0.finished.saturating_since(c1.finished));
        assert!(spread < FlashTiming::paper_prototype().program_page / 2);
    }

    #[test]
    fn out_of_range_command_is_rejected() {
        let mut b = backbone();
        let err = b
            .submit(
                SimTime::ZERO,
                FlashCommand::read(PhysicalPageAddr::new(7, 0, 0, 0)),
            )
            .unwrap_err();
        assert!(matches!(err, FlashError::OutOfRange(_)));
    }

    #[test]
    fn erase_enables_rewrite_and_counts() {
        let mut b = backbone();
        let addr = PhysicalPageAddr::new(1, 0, 2, 0);
        b.submit(SimTime::ZERO, FlashCommand::program(addr))
            .unwrap();
        b.invalidate(addr).unwrap();
        assert_eq!(b.total_valid_pages(), 0);
        let e = b.submit(SimTime::ZERO, FlashCommand::erase(addr)).unwrap();
        assert_eq!(b.stats().erases, 1);
        assert_eq!(b.erase_count(1, 0, 2), 1);
        b.submit(e.finished, FlashCommand::program(addr)).unwrap();
        assert_eq!(b.total_valid_pages(), 1);
    }

    #[test]
    fn valid_index_tracks_commands_and_agrees_with_recount() {
        let mut b = backbone();
        let g = *b.geometry();
        let a0 = PhysicalPageAddr::new(0, 0, 0, 0);
        let a1 = PhysicalPageAddr::new(0, 0, 0, 1);
        let a2 = PhysicalPageAddr::new(1, 0, 3, 0);
        b.submit(SimTime::ZERO, FlashCommand::program(a0)).unwrap();
        b.submit(SimTime::ZERO, FlashCommand::program(a1)).unwrap();
        b.preload(a2).unwrap();
        assert_eq!(b.total_valid_pages(), 3);
        assert_eq!(b.total_valid_pages(), b.recount_valid_pages());
        // Nothing holds garbage yet, so there is no victim.
        assert_eq!(b.min_valid_garbage_block(), None);
        b.invalidate(a1).unwrap();
        let victim = b.min_valid_garbage_block().unwrap();
        assert_eq!(victim, g.block_index(a0));
        assert_eq!(b.valid_index().valid_in(victim), 1);
        assert_eq!(b.valid_index().garbage_in(victim), 1);
        b.submit(SimTime::ZERO, FlashCommand::erase(a0)).unwrap();
        assert_eq!(b.min_valid_garbage_block(), None);
        assert_eq!(b.total_valid_pages(), 1);
        assert_eq!(b.total_valid_pages(), b.recount_valid_pages());
    }

    #[test]
    fn submit_batch_matches_per_command_submission() {
        let mut a = backbone();
        let mut b = backbone();
        let cmds: Vec<FlashCommand> = (0..4)
            .map(|p| FlashCommand::program(PhysicalPageAddr::new(p % 2, 0, 0, p / 2)))
            .collect();
        let mut finished = SimTime::ZERO;
        for &cmd in &cmds {
            finished = finished.max(a.submit(SimTime::ZERO, cmd).unwrap().finished);
        }
        let batch = b
            .submit_batch(SimTime::ZERO, cmds.iter().copied(), OwnerId::Unattributed)
            .unwrap();
        assert_eq!(batch.finished, finished);
        assert_eq!(batch.commands, 4);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.total_valid_pages(), b.total_valid_pages());
    }

    #[test]
    fn per_owner_stats_sum_to_untagged_totals() {
        let mut b = backbone();
        let owners = [
            OwnerId::Kernel(0),
            OwnerId::Kernel(1),
            OwnerId::Gc,
            OwnerId::Journal,
        ];
        let mut t = SimTime::ZERO;
        for (i, &owner) in owners.iter().enumerate() {
            for p in 0..4 {
                let addr = PhysicalPageAddr::new(p % 2, 0, i, p / 2);
                t = b
                    .submit_tagged(t, FlashCommand::program(addr), owner)
                    .unwrap()
                    .finished;
                t = b
                    .submit_tagged(t, FlashCommand::read(addr), owner)
                    .unwrap()
                    .finished;
            }
        }
        t = b
            .submit_tagged(
                t,
                FlashCommand::erase(PhysicalPageAddr::new(0, 0, 0, 0)),
                OwnerId::Gc,
            )
            .unwrap()
            .finished;
        let _ = t;
        let per_owner = b.owner_stats();
        let totals = b.stats();
        assert_eq!(
            per_owner.values().map(|o| o.reads).sum::<u64>(),
            totals.reads
        );
        assert_eq!(
            per_owner.values().map(|o| o.programs).sum::<u64>(),
            totals.programs
        );
        assert_eq!(
            per_owner.values().map(|o| o.erases).sum::<u64>(),
            totals.erases
        );
        assert_eq!(
            per_owner.values().map(|o| o.bytes).sum::<u64>(),
            totals.srio_bytes
        );
        // Every owner that read pages has a latency distribution, and its
        // extrema bracket the recorded quantiles.
        for &owner in &owners {
            let stats = per_owner[&owner];
            assert_eq!(stats.reads, 4, "{owner}");
            let p0 = b.read_latency_quantile(owner, 0.0).unwrap();
            let p100 = b.read_latency_quantile(owner, 1.0).unwrap();
            assert!(p0 <= p100);
            assert_eq!(p100.as_ns(), stats.read_latency_max_ns);
        }
        // The foreground aggregate covers exactly the two kernels' reads.
        assert!(b.foreground_read_latency_quantile(0.99).is_some());
    }

    #[test]
    fn fault_plan_installs_per_channel_and_drains_flat_indexes() {
        use crate::fault::{threshold_from_probability, FaultPlan};
        let mut b = backbone();
        let g = *b.geometry();
        b.install_fault_plan(Arc::new(FaultPlan {
            program_threshold: threshold_from_probability(1.0),
            retire_after: 1,
            ..FaultPlan::default()
        }));
        assert!(b.fault_plan().is_some());
        assert!(!b.faults_affect_reads());
        let addr = PhysicalPageAddr::new(1, 0, 2, 0);
        let err = b
            .submit(SimTime::ZERO, FlashCommand::program(addr))
            .unwrap_err();
        assert!(matches!(err, FlashError::InjectedProgramFailure(_)));
        // The failed program never became valid anywhere.
        assert_eq!(b.total_valid_pages(), 0);
        assert_eq!(b.recount_valid_pages(), 0);
        // One failure with retire_after=1 promotes the block, reported as
        // its flat block index.
        assert_eq!(
            b.take_blocks_pending_retirement(),
            vec![g.block_index(addr)]
        );
        assert!(b.take_blocks_pending_retirement().is_empty());
        assert_eq!(b.fault_stats().injected_program_failures, 1);
        assert_eq!(b.fault_stats().blocks_retired, 1);
    }

    #[test]
    fn disturbed_pages_drain_as_flat_pages_channels_ascending() {
        use crate::fault::{threshold_from_probability, FaultPlan};
        let mut b = backbone();
        let g = *b.geometry();
        let a0 = PhysicalPageAddr::new(0, 0, 0, 0);
        let a1 = PhysicalPageAddr::new(1, 0, 0, 0);
        let t0 = b.submit(SimTime::ZERO, FlashCommand::program(a0)).unwrap();
        let t1 = b.submit(SimTime::ZERO, FlashCommand::program(a1)).unwrap();
        b.install_fault_plan(Arc::new(FaultPlan {
            read_disturb_threshold: threshold_from_probability(1.0),
            ..FaultPlan::default()
        }));
        assert!(b.faults_affect_reads());
        let t = t0.finished.max(t1.finished);
        // Submit in descending channel order; the drain still reports
        // channels ascending.
        b.submit(t, FlashCommand::read(a1)).unwrap();
        b.submit(t, FlashCommand::read(a0)).unwrap();
        assert_eq!(
            b.take_disturbed_pages(),
            vec![g.addr_to_flat(a0), g.addr_to_flat(a1)]
        );
        assert!(b.take_disturbed_pages().is_empty());
        assert_eq!(b.fault_stats().read_disturbs, 2);
    }
    #[test]
    fn srio_front_end_serializes_heavy_traffic() {
        // With a deliberately slow SRIO link, programs queue on the front
        // end even though they target different channels.
        let mut b = FlashBackbone::new(
            FlashGeometry::tiny_for_tests(),
            FlashTiming::fast_for_tests(),
            1.0e6, // 1 MB/s — absurdly slow to expose the serialization
            8,
            1_000,
        );
        let c0 = b
            .submit(
                SimTime::ZERO,
                FlashCommand::program(PhysicalPageAddr::new(0, 0, 0, 0)),
            )
            .unwrap();
        let c1 = b
            .submit(
                SimTime::ZERO,
                FlashCommand::program(PhysicalPageAddr::new(1, 0, 0, 0)),
            )
            .unwrap();
        assert!(c1.finished > c0.finished);
        assert!(b.srio_utilization(c1.finished) > 0.9);
    }
}

//! Per-channel FPGA flash controller.
//!
//! Each of the backbone's channels has its own FPGA controller (§2.2) that
//! converts requests from the processor network into the flash clock
//! domain. The controller implements inbound and outbound *tag queues* for
//! buffering requests with minimal overhead, owns the NV-DDR2 channel bus
//! shared by the dies on the channel, and dispatches array operations to
//! the target die.

use crate::die::FlashDie;
use crate::error::FlashError;
use crate::fault::{FaultOp, FaultState};
use crate::geometry::{FlashGeometry, PhysicalPageAddr};
use crate::owner::{OwnerId, QosBudgets};
use crate::timing::FlashTiming;
use fa_sim::resource::SerializedResource;
use fa_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Operation classes the controller understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChannelOp {
    /// Array read followed by an outbound data transfer.
    Read,
    /// Inbound data transfer followed by an array program.
    Program,
    /// Block erase (no data transfer).
    Erase,
}

/// Statistics kept by one channel controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Read commands completed.
    pub reads: u64,
    /// Program commands completed.
    pub programs: u64,
    /// Erase commands completed.
    pub erases: u64,
    /// Payload bytes moved over the channel bus.
    pub bytes_transferred: u64,
    /// Peak simultaneous occupancy observed on the inbound tag queue.
    pub peak_inbound_tags: usize,
}

/// One FPGA channel controller together with the dies it fronts.
#[derive(Debug, Clone)]
pub struct ChannelController {
    index: usize,
    dies: Vec<FlashDie>,
    bus: SerializedResource,
    timing: FlashTiming,
    page_bytes: usize,
    /// Bus time for one page-sized transfer under the default timing,
    /// precomputed so the per-command path skips the bytes-to-duration
    /// conversion (identical to `timing.page_transfer(page_bytes)`).
    page_xfer: SimDuration,
    inbound_tags: usize,
    /// Per-owner outstanding-command budgets; unlimited by default, which
    /// reproduces the untagged FIFO admission exactly.
    budgets: QosBudgets,
    /// Per-owner budget *overrides* (dense owner index), installed by the
    /// online QoS governor: `Some(b)` replaces whatever `budgets` would
    /// grant that owner. Empty by default, so static-budget admission is
    /// reproduced byte for byte until a governor writes its first budget.
    owner_budget_overrides: Vec<Option<usize>>,
    /// Completion time and dense owner index (see [`OwnerId::dense_index`])
    /// of each in-flight command in submission order. Because the
    /// controller serializes each phase of a command on FIFO resources,
    /// completion times are non-decreasing in submission order, so every
    /// "commands still in flight at instant t" question is a suffix of this
    /// queue found by binary search — admission never scans.
    outstanding: VecDeque<(SimTime, u32)>,
    /// Completion times of each owner's in-flight commands, indexed by
    /// dense owner index. Each deque is a subsequence of `outstanding` and
    /// therefore also sorted; the budget check reads the `b`-th-from-back
    /// entry directly instead of walking the shared queue.
    owner_outstanding: Vec<VecDeque<SimTime>>,
    /// Peak simultaneous tag occupancy per owner (dense owner index), for
    /// the QoS figures.
    owner_peaks: Vec<usize>,
    /// Valid pages across the channel, maintained incrementally by
    /// [`ChannelController::execute`], [`ChannelController::invalidate`],
    /// and [`ChannelController::preload`]. Mutating a die directly through
    /// [`ChannelController::die_mut`] bypasses this counter.
    valid_pages: usize,
    /// Channel-local fault state, installed by the backbone when a fault
    /// plan is active. `None` (the default) keeps every hook a single
    /// branch, so fault-free runs stay byte-identical to the recorded
    /// golden campaign.
    fault: Option<FaultState>,
    stats: ChannelStats,
}

impl ChannelController {
    /// Creates a controller for channel `index` of `geometry`.
    ///
    /// `inbound_tags` bounds the number of simultaneously outstanding
    /// commands the tag queue will accept; additional commands stall at the
    /// submission point (back-pressure to Flashvisor).
    pub fn new(
        index: usize,
        geometry: &FlashGeometry,
        timing: FlashTiming,
        endurance_limit: u64,
        inbound_tags: usize,
    ) -> Self {
        let dies = (0..geometry.dies_per_channel())
            .map(|d| FlashDie::new(geometry, endurance_limit, format!("ch{index}-die{d}")))
            .collect();
        ChannelController {
            index,
            dies,
            bus: SerializedResource::new(format!("nvddr2-ch{index}"), timing.channel_bytes_per_sec),
            timing,
            page_bytes: geometry.page_bytes,
            page_xfer: timing.page_transfer(geometry.page_bytes),
            inbound_tags,
            budgets: QosBudgets::unlimited(),
            owner_budget_overrides: Vec::new(),
            outstanding: VecDeque::new(),
            owner_outstanding: Vec::new(),
            owner_peaks: Vec::new(),
            valid_pages: 0,
            fault: None,
            stats: ChannelStats::default(),
        }
    }

    /// Installs the channel-local fault state (see [`crate::fault`]).
    pub fn install_fault_state(&mut self, state: FaultState) {
        self.fault = Some(state);
    }

    /// The channel's fault state, if a plan is installed.
    pub fn fault_state(&self) -> Option<&FaultState> {
        self.fault.as_ref()
    }

    /// Mutable access to the channel's fault state (drain lists).
    pub fn fault_state_mut(&mut self) -> Option<&mut FaultState> {
        self.fault.as_mut()
    }

    /// Installs per-owner tag budgets (unlimited by default).
    pub fn set_qos_budgets(&mut self, budgets: QosBudgets) {
        self.budgets = budgets;
    }

    /// The per-owner tag budgets in force.
    pub fn qos_budgets(&self) -> QosBudgets {
        self.budgets
    }

    /// Installs (or clears, with `None`) a per-owner budget override. An
    /// installed override replaces the static [`QosBudgets`] grant for that
    /// owner only — the online QoS governor recomputes these from a sliding
    /// window over the owner statistics.
    pub fn set_owner_budget_override(&mut self, owner: OwnerId, budget: Option<usize>) {
        let oi = owner.dense_index();
        if oi >= self.owner_budget_overrides.len() {
            if budget.is_none() {
                return;
            }
            self.owner_budget_overrides.resize(oi + 1, None);
        }
        self.owner_budget_overrides[oi] = budget;
    }

    /// The budget override in force for `owner`, if any.
    pub fn owner_budget_override(&self, owner: OwnerId) -> Option<usize> {
        self.owner_budget_overrides
            .get(owner.dense_index())
            .copied()
            .flatten()
    }

    /// Peak simultaneous tag-queue occupancy each owner reached. Owners
    /// that never submitted a command are absent (their dense slot is 0).
    pub fn owner_peak_tags(&self) -> BTreeMap<OwnerId, usize> {
        self.owner_peaks
            .iter()
            .enumerate()
            .filter(|(_, &peak)| peak > 0)
            .map(|(i, &peak)| (OwnerId::from_dense_index(i), peak))
            .collect()
    }

    /// The channel index this controller serves.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Immutable access to a die (for GC victim inspection).
    pub fn die(&self, die: usize) -> Option<&FlashDie> {
        self.dies.get(die)
    }

    /// Mutable access to a die (used by tests and the Storengine model).
    pub fn die_mut(&mut self, die: usize) -> Option<&mut FlashDie> {
        self.dies.get_mut(die)
    }

    /// Number of dies on this channel.
    pub fn die_count(&self) -> usize {
        self.dies.len()
    }

    /// Controller statistics so far.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Channel bus utilization up to `now`.
    pub fn bus_utilization(&self, now: SimTime) -> f64 {
        self.bus.utilization(now)
    }

    /// Mean die utilization on this channel up to `now`.
    pub fn mean_die_utilization(&self, now: SimTime) -> f64 {
        if self.dies.is_empty() {
            return 0.0;
        }
        self.dies.iter().map(|d| d.utilization(now)).sum::<f64>() / self.dies.len() as f64
    }

    /// Models tag-queue admission: commands submitted while `inbound_tags`
    /// commands are still in flight are delayed until the oldest completes,
    /// and an owner already holding its whole tag budget is deferred until
    /// one of *its own* commands retires — other owners are admitted past
    /// it rather than FIFO-stalling behind it.
    ///
    /// Errors with [`FlashError::CompletionOrderViolation`] if the shared
    /// and per-owner completion queues ever disagree while retiring — the
    /// invariant the whole suffix-scan admission model rests on. It used to
    /// be a `debug_assert`, which meant a release build with corrupted
    /// ordering (e.g. from a faulty completion path) would silently skew
    /// every subsequent admission; now the corruption surfaces at the first
    /// retire that observes it.
    fn admit(&mut self, now: SimTime, owner: OwnerId) -> Result<SimTime, FlashError> {
        let oi = self.ensure_owner_slot(owner);
        // Drop commands that have already retired by the submission instant.
        // Each retired entry pops from the shared queue and the front of its
        // owner's deque (both hold the same clamped completion times in the
        // same submission order).
        while matches!(self.outstanding.front(), Some((done, _)) if *done <= now) {
            let (done, o) = self.outstanding.pop_front().expect("checked front");
            let popped = self.owner_outstanding[o as usize].pop_front();
            if popped != Some(done) {
                return Err(FlashError::CompletionOrderViolation {
                    channel: self.index,
                });
            }
        }
        let occupancy = self.outstanding.len();
        let mut admitted = if occupancy < self.inbound_tags {
            now
        } else {
            // Admission happens when enough in-flight commands have retired
            // to open a tag slot. Completion times are kept in submission
            // order and that order is non-decreasing (FIFO service on every
            // phase), so the command that frees our slot is at a fixed
            // offset from the front.
            self.outstanding[occupancy - self.inbound_tags].0
        };
        // Per-owner budget: with `k` of the owner's commands still in
        // flight at the admission instant and a budget of `b`, defer until
        // the `(k - b + 1)`-th of them retires — the `b`-th-from-back entry
        // of the owner's (sorted) completion deque. A zero budget is
        // clamped to one tag — it bounds concurrency, never deadlocks the
        // owner.
        //
        // The in-flight counts below are short backward scans, not binary
        // searches: the retire loop above drops everything `<= now`, and
        // the tag-slot rule puts `admitted` at the `inbound_tags`-th entry
        // from the back (or later), so the `> admitted` suffix of either
        // sorted deque is at most `inbound_tags` entries long regardless
        // of queue depth. Scanning it beats an O(log n) bisect over a
        // deque thousands of entries deep, and counts the exact same
        // suffix.
        let owner_queue = &self.owner_outstanding[oi];
        let effective_budget = self
            .owner_budget_overrides
            .get(oi)
            .copied()
            .flatten()
            .or_else(|| self.budgets.budget_for(owner));
        if let Some(budget) = effective_budget {
            let budget = budget.max(1);
            let mut in_flight = 0usize;
            for &t in owner_queue.iter().rev() {
                if t <= admitted {
                    break;
                }
                in_flight += 1;
                if in_flight >= budget {
                    break;
                }
            }
            if in_flight >= budget {
                admitted = owner_queue[owner_queue.len() - budget];
            }
        }
        // Occupancy the tag queue actually sees once this command is let
        // in: the suffixes of commands finishing after the admission
        // instant on both sorted queues.
        let mut in_flight_at_admit = 0usize;
        for &(done, _) in self.outstanding.iter().rev() {
            if done <= admitted {
                break;
            }
            in_flight_at_admit += 1;
        }
        self.stats.peak_inbound_tags = self.stats.peak_inbound_tags.max(in_flight_at_admit + 1);
        let mut owner_in_flight = 0usize;
        for &t in owner_queue.iter().rev() {
            if t <= admitted {
                break;
            }
            owner_in_flight += 1;
        }
        self.owner_peaks[oi] = self.owner_peaks[oi].max(owner_in_flight + 1);
        Ok(admitted)
    }

    /// Grows the dense per-owner structures to cover `owner`, returning its
    /// dense index.
    fn ensure_owner_slot(&mut self, owner: OwnerId) -> usize {
        let oi = owner.dense_index();
        if oi >= self.owner_outstanding.len() {
            self.owner_outstanding.resize_with(oi + 1, VecDeque::new);
            self.owner_peaks.resize(oi + 1, 0);
        }
        oi
    }

    fn record_completion(&mut self, done: SimTime, owner: OwnerId) {
        // Keep the queue sorted in the rare case a later submission finishes
        // slightly earlier (e.g. an erase racing a read on another die).
        let done = self.outstanding.back().map_or(done, |b| done.max(b.0));
        let oi = self.ensure_owner_slot(owner);
        self.outstanding.push_back((done, oi as u32));
        self.owner_outstanding[oi].push_back(done);
    }

    /// Executes one operation against `addr` on behalf of `owner`,
    /// returning its completion time.
    ///
    /// The returned instant accounts for tag-queue admission (including the
    /// owner's QoS budget), controller overhead, die contention, and
    /// channel-bus contention for the data transfer phase.
    pub fn execute(
        &mut self,
        now: SimTime,
        op: ChannelOp,
        addr: PhysicalPageAddr,
        owner: OwnerId,
        timing_override: Option<&FlashTiming>,
    ) -> Result<SimTime, FlashError> {
        if addr.die >= self.dies.len() {
            return Err(FlashError::OutOfRange(addr));
        }
        let timing = *timing_override.unwrap_or(&self.timing);
        // The page transfer is a pure function of the timing model and the
        // page size; reuse the constructor-computed value on the default
        // timing (the data-path case) instead of re-deriving it per command.
        let page_xfer = match timing_override {
            Some(t) => t.page_transfer(self.page_bytes),
            None => self.page_xfer,
        };
        let admitted = self.admit(now, owner)? + timing.controller_overhead;
        // Fault decision, rolled before the die operation. The counters it
        // advances are channel-local, so the verdict depends only on this
        // channel's own command sequence, not on how channels interleave.
        let faulted = match self.fault.as_mut() {
            Some(f) => f.decide(
                match op {
                    ChannelOp::Read => FaultOp::Read,
                    ChannelOp::Program => FaultOp::Program,
                    ChannelOp::Erase => FaultOp::Erase,
                },
                addr,
            ),
            None => false,
        };
        let page_bytes = self.page_bytes;
        let die = &mut self.dies[addr.die];
        let completion = match op {
            ChannelOp::Read => {
                let sense = die.read_page(admitted, addr.block, addr.page, &timing)?;
                // Read-disturb: the first sense needs a retry before the
                // data is correctable, then the page must be relocated. The
                // command still succeeds — it just pays a second array read
                // and queues the page on the disturb list.
                let sense_end = if faulted {
                    let retry = die
                        .read_page(sense.end, addr.block, addr.page, &timing)
                        .expect("retry of a page that just read cleanly");
                    retry.end
                } else {
                    sense.end
                };
                // Data comes off the array, then crosses the channel bus.
                let xfer = self.bus.reserve_duration(sense_end, page_xfer);
                self.stats.reads += 1;
                self.stats.bytes_transferred += page_bytes as u64;
                if faulted {
                    self.fault
                        .as_mut()
                        .expect("faulted implies fault state")
                        .note_disturb(addr);
                }
                xfer.end
            }
            ChannelOp::Program => {
                // Data crosses the bus into the die's page register first.
                let xfer = self.bus.reserve_duration(admitted, page_xfer);
                let prog = die.program_page(xfer.end, addr.block, addr.page, &timing)?;
                self.stats.programs += 1;
                self.stats.bytes_transferred += page_bytes as u64;
                if faulted {
                    // The program consumed the page (NAND write cursors only
                    // move forward) but the data reads back uncorrectable:
                    // the page goes straight to Invalid, the channel's valid
                    // count stays put, and the caller gets the error so the
                    // translation layer can re-allocate elsewhere.
                    die.invalidate_page(addr.block, addr.page)
                        .expect("freshly programmed page is valid");
                    self.record_completion(prog.end, owner);
                    self.note_block_failure(FaultOp::Program, addr);
                    return Err(FlashError::InjectedProgramFailure(addr));
                }
                self.valid_pages += 1;
                prog.end
            }
            ChannelOp::Erase => {
                if faulted {
                    // The erase pulse ran (the die is busy for the full
                    // erase latency) but the block kept its contents and
                    // its wear counter did not advance.
                    let res = die.failed_erase(admitted, &timing);
                    self.record_completion(res.end, owner);
                    self.note_block_failure(FaultOp::Erase, addr);
                    return Err(FlashError::InjectedEraseFailure(addr));
                }
                // Capture what the erase reclaims before the die resets it.
                let reclaimed = die.valid_pages_in(addr.block);
                let erase = die.erase_block(admitted, addr.block, &timing)?;
                self.valid_pages -= reclaimed;
                self.stats.erases += 1;
                erase.end
            }
        };
        self.record_completion(completion, owner);
        Ok(completion)
    }

    fn note_block_failure(&mut self, op: FaultOp, addr: PhysicalPageAddr) {
        if let Some(f) = self.fault.as_mut() {
            f.note_failure(op, addr);
        }
    }

    /// Marks a page invalid without consuming channel time.
    pub fn invalidate(&mut self, addr: PhysicalPageAddr) -> Result<(), FlashError> {
        self.dies
            .get_mut(addr.die)
            .ok_or(FlashError::OutOfRange(addr))?
            .invalidate_page(addr.block, addr.page)?;
        self.valid_pages -= 1;
        Ok(())
    }

    /// Marks a page valid without consuming channel time (pre-experiment
    /// data placement), keeping the channel's accounting in step.
    pub fn preload(&mut self, addr: PhysicalPageAddr) -> Result<(), FlashError> {
        self.dies
            .get_mut(addr.die)
            .ok_or(FlashError::OutOfRange(addr))?
            .preload_page(addr.block, addr.page)?;
        self.valid_pages += 1;
        Ok(())
    }

    /// Valid pages across the channel (used by capacity accounting). O(1):
    /// maintained incrementally by the execute/invalidate/preload paths.
    pub fn total_valid_pages(&self) -> usize {
        self.valid_pages
    }

    /// Brute-force recount of the channel's valid pages from the die page
    /// states — the property-test oracle for
    /// [`ChannelController::total_valid_pages`].
    pub fn recount_valid_pages(&self) -> usize {
        self.dies
            .iter()
            .map(|d| {
                (0..d.block_count())
                    .map(|b| d.recount_valid_pages_in(b))
                    .sum::<usize>()
            })
            .sum()
    }

    /// Typical per-command service time for planning purposes: read latency
    /// plus one page transfer.
    pub fn nominal_read_service(&self) -> SimDuration {
        self.timing.read_page + self.timing.page_transfer(self.page_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> ChannelController {
        ChannelController::new(
            0,
            &FlashGeometry::tiny_for_tests(),
            FlashTiming::fast_for_tests(),
            1_000,
            8,
        )
    }

    #[test]
    fn program_then_read_completes_in_order() {
        let mut c = controller();
        let addr = PhysicalPageAddr::new(0, 0, 0, 0);
        let wrote = c
            .execute(
                SimTime::ZERO,
                ChannelOp::Program,
                addr,
                OwnerId::Unattributed,
                None,
            )
            .unwrap();
        let read = c
            .execute(wrote, ChannelOp::Read, addr, OwnerId::Unattributed, None)
            .unwrap();
        assert!(read > wrote);
        assert_eq!(c.stats().programs, 1);
        assert_eq!(c.stats().reads, 1);
        assert_eq!(c.stats().bytes_transferred, 2 * 4096);
    }

    #[test]
    fn reads_to_different_dies_overlap_on_the_array() {
        let geom = FlashGeometry {
            channels: 1,
            packages_per_channel: 2,
            dies_per_package: 1,
            planes_per_die: 1,
            blocks_per_plane: 4,
            pages_per_block: 8,
            page_bytes: 4096,
        };
        let timing = FlashTiming::paper_prototype();
        let mut c = ChannelController::new(0, &geom, timing, 1_000, 8);
        // Program one page on each die so reads are legal.
        let a0 = PhysicalPageAddr::new(0, 0, 0, 0);
        let a1 = PhysicalPageAddr::new(0, 1, 0, 0);
        let d0 = c
            .execute(
                SimTime::ZERO,
                ChannelOp::Program,
                a0,
                OwnerId::Unattributed,
                None,
            )
            .unwrap();
        let d1 = c
            .execute(
                SimTime::ZERO,
                ChannelOp::Program,
                a1,
                OwnerId::Unattributed,
                None,
            )
            .unwrap();
        let start = d0.max(d1);
        let r0 = c
            .execute(start, ChannelOp::Read, a0, OwnerId::Unattributed, None)
            .unwrap();
        let r1 = c
            .execute(start, ChannelOp::Read, a1, OwnerId::Unattributed, None)
            .unwrap();
        // Both reads sense in parallel; only the bus transfer serializes, so
        // the second completion trails the first by far less than a full
        // array read.
        let gap = r1.saturating_since(r0);
        assert!(gap < timing.read_page / 2, "gap was {gap}");
    }

    #[test]
    fn erase_takes_no_bus_bandwidth() {
        let mut c = controller();
        let before = c.stats().bytes_transferred;
        c.execute(
            SimTime::ZERO,
            ChannelOp::Erase,
            PhysicalPageAddr::new(0, 0, 1, 0),
            OwnerId::Unattributed,
            None,
        )
        .unwrap();
        assert_eq!(c.stats().bytes_transferred, before);
        assert_eq!(c.stats().erases, 1);
    }

    #[test]
    fn tag_queue_back_pressure_delays_admission() {
        let geom = FlashGeometry::tiny_for_tests();
        let timing = FlashTiming::fast_for_tests();
        let mut narrow = ChannelController::new(0, &geom, timing, 1_000, 1);
        let mut wide = ChannelController::new(0, &geom, timing, 1_000, 16);
        let mut last_narrow = SimTime::ZERO;
        let mut last_wide = SimTime::ZERO;
        for p in 0..8 {
            let addr = PhysicalPageAddr::new(0, 0, 0, p);
            last_narrow = narrow
                .execute(
                    SimTime::ZERO,
                    ChannelOp::Program,
                    addr,
                    OwnerId::Unattributed,
                    None,
                )
                .unwrap();
            let addr = PhysicalPageAddr::new(0, 0, 0, p);
            last_wide = wide
                .execute(
                    SimTime::ZERO,
                    ChannelOp::Program,
                    addr,
                    OwnerId::Unattributed,
                    None,
                )
                .unwrap();
        }
        // With a single tag the controller admits commands one at a time, so
        // the final completion cannot be earlier than the wide queue's.
        assert!(last_narrow >= last_wide);
        assert!(narrow.stats().peak_inbound_tags <= 2);
        assert!(wide.stats().peak_inbound_tags >= 2);
    }

    #[test]
    fn owner_budget_caps_a_saturating_owner() {
        // A single owner with budget 2 on a 4-tag queue: no matter how many
        // commands it floods at t=0, it never holds more than 2 tags.
        let geom = FlashGeometry::tiny_for_tests();
        let timing = FlashTiming::fast_for_tests();
        let mut c = ChannelController::new(0, &geom, timing, 1_000, 4);
        c.set_qos_budgets(QosBudgets {
            per_owner: Some(2),
            background: Some(2),
        });
        let hog = OwnerId::Kernel(1);
        for p in 0..8 {
            c.execute(
                SimTime::ZERO,
                ChannelOp::Program,
                PhysicalPageAddr::new(0, 0, 0, p),
                hog,
                None,
            )
            .unwrap();
        }
        assert!(
            c.owner_peak_tags()[&hog] <= 2,
            "owner exceeded its budget: {:?}",
            c.owner_peak_tags()
        );
        // The queue itself never saw more than the owner's budget in
        // flight either — the other two tags stayed free for other owners.
        assert!(c.stats().peak_inbound_tags <= 2);
    }

    #[test]
    fn owner_budget_override_replaces_the_static_grant() {
        // Static budget 3, override 1: the override wins and the owner is
        // serialized to one tag. Clearing the override restores the static
        // grant for subsequent traffic.
        let geom = FlashGeometry::tiny_for_tests();
        let timing = FlashTiming::fast_for_tests();
        let mut c = ChannelController::new(0, &geom, timing, 1_000, 4);
        c.set_qos_budgets(QosBudgets {
            per_owner: Some(3),
            background: Some(3),
        });
        let hog = OwnerId::Kernel(1);
        c.set_owner_budget_override(hog, Some(1));
        assert_eq!(c.owner_budget_override(hog), Some(1));
        let mut last = SimTime::ZERO;
        for p in 0..6 {
            last = c
                .execute(
                    SimTime::ZERO,
                    ChannelOp::Program,
                    PhysicalPageAddr::new(0, 0, 0, p),
                    hog,
                    None,
                )
                .unwrap();
        }
        assert_eq!(c.owner_peak_tags()[&hog], 1, "override must serialize");
        // A fresh owner under the same static budget runs 3 wide.
        let peer = OwnerId::Kernel(2);
        for p in 6..12 {
            c.execute(
                last,
                ChannelOp::Program,
                PhysicalPageAddr::new(0, 0, 0, p),
                peer,
                None,
            )
            .unwrap();
        }
        assert_eq!(c.owner_peak_tags()[&peer], 3);
        // Clearing the override falls back to the static grant.
        c.set_owner_budget_override(hog, None);
        assert_eq!(c.owner_budget_override(hog), None);
        // Clearing an owner that never had an override is a no-op and must
        // not grow the override table.
        c.set_owner_budget_override(OwnerId::Kernel(999), None);
        assert_eq!(c.owner_budget_override(OwnerId::Kernel(999)), None);
    }

    #[test]
    fn two_budgeted_owners_interleave_fairly_on_a_shared_queue() {
        // Two owners, budget 2 each, 4-tag queue, both flooding 8 programs
        // at t=0 in strict alternation: admission must interleave them (no
        // owner's whole burst finishes before the other's starts), both
        // reach their 2-tag peak, and neither exceeds it.
        let geom = FlashGeometry::tiny_for_tests();
        let timing = FlashTiming::fast_for_tests();
        let mut c = ChannelController::new(0, &geom, timing, 1_000, 4);
        c.set_qos_budgets(QosBudgets {
            per_owner: Some(2),
            background: Some(2),
        });
        let a = OwnerId::Kernel(1);
        let b = OwnerId::Kernel(2);
        let mut completions: Vec<(SimTime, OwnerId)> = Vec::new();
        for p in 0..8 {
            for (owner, die_block) in [(a, 0), (b, 1)] {
                let done = c
                    .execute(
                        SimTime::ZERO,
                        ChannelOp::Program,
                        PhysicalPageAddr::new(0, 0, die_block, p),
                        owner,
                        None,
                    )
                    .unwrap();
                completions.push((done, owner));
            }
        }
        assert_eq!(c.owner_peak_tags()[&a], 2);
        assert_eq!(c.owner_peak_tags()[&b], 2);
        // Fairness: order completions by time; the first half of the
        // timeline must contain commands of both owners, i.e. the last
        // completion of each owner's first four commands precedes the other
        // owner's final completion.
        completions.sort();
        let first_half: Vec<OwnerId> = completions[..8].iter().map(|(_, o)| *o).collect();
        assert!(first_half.contains(&a) && first_half.contains(&b));
        let second_half: Vec<OwnerId> = completions[8..].iter().map(|(_, o)| *o).collect();
        assert!(second_half.contains(&a) && second_half.contains(&b));
    }

    #[test]
    fn unlimited_budgets_reproduce_untagged_admission() {
        // The QoS default must be byte-identical to the pre-owner FIFO tag
        // queue: identical command streams under different owner labels
        // complete at identical instants when no budget is set.
        let geom = FlashGeometry::tiny_for_tests();
        let timing = FlashTiming::fast_for_tests();
        let mut untagged = ChannelController::new(0, &geom, timing, 1_000, 2);
        let mut tagged = ChannelController::new(0, &geom, timing, 1_000, 2);
        for p in 0..8 {
            let addr = PhysicalPageAddr::new(0, 0, 0, p);
            let u = untagged
                .execute(
                    SimTime::ZERO,
                    ChannelOp::Program,
                    addr,
                    OwnerId::Unattributed,
                    None,
                )
                .unwrap();
            let owner = if p % 2 == 0 {
                OwnerId::Kernel(p as u32)
            } else {
                OwnerId::Gc
            };
            let t = tagged
                .execute(SimTime::ZERO, ChannelOp::Program, addr, owner, None)
                .unwrap();
            assert_eq!(u, t, "page {p}");
        }
        assert_eq!(untagged.stats(), tagged.stats());
    }

    #[test]
    fn invalid_die_is_rejected() {
        let mut c = controller();
        let err = c
            .execute(
                SimTime::ZERO,
                ChannelOp::Read,
                PhysicalPageAddr::new(0, 99, 0, 0),
                OwnerId::Unattributed,
                None,
            )
            .unwrap_err();
        assert!(matches!(err, FlashError::OutOfRange(_)));
    }

    #[test]
    fn injected_program_failure_scraps_the_page_and_retires_the_block() {
        use crate::fault::{threshold_from_probability, FaultPlan, FaultState};
        use std::sync::Arc;
        let mut c = controller();
        let plan = Arc::new(FaultPlan {
            program_threshold: threshold_from_probability(1.0),
            retire_after: 2,
            ..FaultPlan::default()
        });
        c.install_fault_state(FaultState::new(plan, 0));
        for page in 0..2 {
            let err = c
                .execute(
                    SimTime::ZERO,
                    ChannelOp::Program,
                    PhysicalPageAddr::new(0, 0, 0, page),
                    OwnerId::Unattributed,
                    None,
                )
                .unwrap_err();
            assert!(matches!(err, FlashError::InjectedProgramFailure(_)));
        }
        // The scrapped pages are Invalid, never Valid: the incremental
        // channel count and the brute-force recount agree at zero.
        assert_eq!(c.total_valid_pages(), 0);
        assert_eq!(c.recount_valid_pages(), 0);
        // The write cursor moved past the scrapped pages, so the block's
        // next legal program is page 2.
        assert_eq!(c.die(0).unwrap().programmed_pages_in(0), 2);
        // Two failures crossed retire_after=2: the block is pending
        // retirement, exactly once.
        assert_eq!(
            c.fault_state_mut().unwrap().take_retired_pending(),
            vec![(0, 0)]
        );
    }

    #[test]
    fn injected_erase_failure_preserves_block_state_and_wear() {
        use crate::fault::{threshold_from_probability, FaultPlan, FaultState};
        use std::sync::Arc;
        let mut c = controller();
        let addr = PhysicalPageAddr::new(0, 0, 0, 0);
        c.execute(
            SimTime::ZERO,
            ChannelOp::Program,
            addr,
            OwnerId::Unattributed,
            None,
        )
        .unwrap();
        let plan = Arc::new(FaultPlan {
            erase_threshold: threshold_from_probability(1.0),
            ..FaultPlan::default()
        });
        c.install_fault_state(FaultState::new(plan, 0));
        let busy_before = c.die(0).unwrap().next_free();
        let err = c
            .execute(
                SimTime::ZERO,
                ChannelOp::Erase,
                addr,
                OwnerId::Unattributed,
                None,
            )
            .unwrap_err();
        assert!(matches!(err, FlashError::InjectedEraseFailure(_)));
        // The block kept its data, its wear counter, and the channel count.
        assert_eq!(c.total_valid_pages(), 1);
        assert_eq!(c.die(0).unwrap().erase_count(0), 0);
        assert_eq!(c.stats().erases, 0);
        // The die was still busy for the failed pulse: the failed erase
        // charged real device time.
        assert!(c.die(0).unwrap().next_free() > busy_before);
    }

    #[test]
    fn read_disturb_retries_then_queues_the_page_for_relocation() {
        use crate::fault::{threshold_from_probability, FaultPlan, FaultState};
        use std::sync::Arc;
        let mut clean = controller();
        let mut disturbed = controller();
        let addr = PhysicalPageAddr::new(0, 0, 0, 0);
        for c in [&mut clean, &mut disturbed] {
            c.execute(
                SimTime::ZERO,
                ChannelOp::Program,
                addr,
                OwnerId::Unattributed,
                None,
            )
            .unwrap();
        }
        let plan = Arc::new(FaultPlan {
            read_disturb_threshold: threshold_from_probability(1.0),
            ..FaultPlan::default()
        });
        disturbed.install_fault_state(FaultState::new(plan, 0));
        let t_clean = clean
            .execute(
                SimTime::from_ms(1),
                ChannelOp::Read,
                addr,
                OwnerId::Unattributed,
                None,
            )
            .unwrap();
        let t_disturbed = disturbed
            .execute(
                SimTime::from_ms(1),
                ChannelOp::Read,
                addr,
                OwnerId::Unattributed,
                None,
            )
            .unwrap();
        // The disturbed read still succeeds, but pays the retry sense.
        assert!(t_disturbed > t_clean);
        assert_eq!(
            disturbed.fault_state_mut().unwrap().take_disturbed(),
            vec![addr]
        );
        assert_eq!(disturbed.fault_state().unwrap().stats().read_disturbs, 1);
    }

    #[test]
    fn valid_page_accounting() {
        let mut c = controller();
        assert_eq!(c.total_valid_pages(), 0);
        for p in 0..3 {
            c.execute(
                SimTime::ZERO,
                ChannelOp::Program,
                PhysicalPageAddr::new(0, 0, 0, p),
                OwnerId::Unattributed,
                None,
            )
            .unwrap();
        }
        assert_eq!(c.total_valid_pages(), 3);
        c.invalidate(PhysicalPageAddr::new(0, 0, 0, 1)).unwrap();
        assert_eq!(c.total_valid_pages(), 2);
    }
}

//! Incremental valid-page index over the whole backbone.
//!
//! Storengine's victim selection needs two questions answered on every GC
//! pass: "how many valid pages does block *b* hold?" and "which block has
//! garbage to reclaim at the lowest migration cost?". Recounting page
//! states across the backbone makes both O(total pages); this index keeps
//! the answers current as the backbone executes commands, so both are
//! O(1)–O(log n).
//!
//! The structure is a per-block valid/programmed counter pair plus *garbage
//! buckets*: every block holding at least one superseded (invalid) page
//! sits in the bucket keyed by its current valid count. The greedy victim
//! policy pops the lowest-keyed non-empty bucket — the block that frees
//! space for the fewest migrated pages. `BTreeSet` buckets make the pick
//! deterministic (smallest block index wins ties), which the campaign
//! determinism contract relies on.
//!
//! Two richer victim policies read further fields of the same structure:
//!
//! * **Wear.** Every [`ValidPageIndex::on_erase`] bumps a per-block erase
//!   counter and records the block in a pending *erase event* list. The
//!   translation layer drains that list ([`ValidPageIndex::take_erased_blocks`])
//!   to keep its min-wear placement structure current without ever
//!   rescanning the dies.
//! * **Age.** Every program stamps its block's `last_program_ns`, so the
//!   classic cost-benefit score `age × garbage / valid` is computable per
//!   garbage block from index state alone
//!   ([`ValidPageIndex::cost_benefit_victim`]).
//!
//! The index is maintained by [`crate::backbone::FlashBackbone`] for every
//! command routed through it. Mutating a die directly (tests using
//! `die_mut`) bypasses the hooks; the property-test oracle recounts from
//! page states to catch any such drift in paths that matter.
//!
//! # Examples
//!
//! ```
//! use fa_flash::ValidPageIndex;
//!
//! let mut idx = ValidPageIndex::new(2, 4);
//! // Two programs land in block 0; one page is later superseded.
//! idx.on_program(0, 0, 10);
//! idx.on_program(0, 1, 20);
//! idx.on_invalidate(0, 1);
//! assert_eq!(idx.valid_in(0), 1);
//! assert_eq!(idx.garbage_in(0), 1);
//! // Block 0 is now the cheapest (and only) reclaim candidate.
//! assert_eq!(idx.min_valid_garbage_block(), Some(0));
//! assert_eq!(idx.cost_benefit_victim(1_000), Some(0));
//! // Erasing it bumps the wear counter and queues an erase event.
//! idx.on_erase(0);
//! assert_eq!(idx.block_erase_count(0), 1);
//! assert_eq!(idx.take_erased_blocks(), vec![0]);
//! ```

/// Optional page-group accounting layered over the per-block counters.
///
/// A *page group* is `pages_per_group` consecutive flat pages — the
/// allocation unit of the translation layer above. The tracker answers the
/// question the group-reclaim leak fix needs: *which groups did this erase
/// make reusable?* It keeps per-group programmed/valid page counts plus,
/// per block, the groups holding programmed pages in that block (a group
/// stripes across channels, so it spans several blocks of one block row).
/// When an erase clears a group's last programmed page anywhere on the
/// device, the group lands in `fully_erased` for the caller to drain —
/// including overwritten (unmapped) garbage groups that no migration ever
/// recycled.
#[derive(Debug, Clone)]
struct GroupTracker {
    pages_per_group: u64,
    /// Programmed (not yet erased) pages per group.
    programmed: Vec<u32>,
    /// Valid pages per group.
    valid: Vec<u32>,
    /// Per block: the groups holding programmed pages in this block, as a
    /// sorted dense run of `(group, programmed, valid)`. NAND programs land
    /// on ascending pages within a block, and ascending pages map to
    /// non-decreasing flat indices (hence non-decreasing groups), so the
    /// hot-path maintenance is "increment the last entry or append" —
    /// contiguous memory, no tree nodes, no per-command allocation beyond
    /// amortized `Vec` growth. Out-of-order landings (preloads) fall back
    /// to a binary-search insert.
    by_block: Vec<Vec<(u32, u32, u32)>>,
    /// Groups whose last programmed page an erase just cleared, pending a
    /// drain by the reclaim path.
    fully_erased: Vec<u64>,
}

impl GroupTracker {
    /// Records one programmed page of group `g` residing in block `b`.
    fn note_program(&mut self, b: usize, g: u32) {
        let list = &mut self.by_block[b];
        match list.last_mut() {
            Some(entry) if entry.0 == g => {
                entry.1 += 1;
                entry.2 += 1;
            }
            Some(entry) if entry.0 < g => list.push((g, 1, 1)),
            None => list.push((g, 1, 1)),
            _ => match list.binary_search_by_key(&g, |entry| entry.0) {
                Ok(i) => {
                    list[i].1 += 1;
                    list[i].2 += 1;
                }
                Err(i) => list.insert(i, (g, 1, 1)),
            },
        }
    }
}

/// Backbone-wide incremental valid-page accounting.
#[derive(Debug, Clone)]
pub struct ValidPageIndex {
    pages_per_block: u32,
    /// Valid pages per block, indexed by [`crate::FlashGeometry::block_index`].
    valid: Vec<u32>,
    /// Programmed pages (valid or superseded) per block.
    programmed: Vec<u32>,
    /// Bucket `v` holds the blocks with `v` valid pages *and* at least one
    /// invalid page (i.e. something to reclaim). Stored as one block-index
    /// bitmap per valid level, flattened (`level × words_per_level` words):
    /// the per-command membership flips are single bit operations, and the
    /// per-GC-pass minimum lookups scan words in ascending order, which
    /// preserves the deterministic smallest-block-wins tie-break.
    buckets: Vec<u64>,
    words_per_level: usize,
    /// Blocks per bucket, so emptiness is known without scanning.
    level_counts: Vec<u32>,
    /// Bitmap over valid levels whose bucket is non-empty.
    occupied: Vec<u64>,
    total_valid: u64,
    /// Erase cycles per block, maintained on every [`ValidPageIndex::on_erase`].
    erase_counts: Vec<u64>,
    /// Blocks erased since the last [`ValidPageIndex::take_erased_blocks`]
    /// drain (one entry per erase, so repeated erases of one block are all
    /// visible to the wear structure above).
    erase_events: Vec<u64>,
    /// Instant (ns) of the last program landing in each block — the age
    /// base of the cost-benefit score.
    last_program_ns: Vec<u64>,
    /// Blocks promoted into the bad-block table: permanently excluded from
    /// the garbage buckets, so no victim policy ever proposes erasing a
    /// block the media already rejected. All-false unless a fault plan
    /// retired something.
    retired: Vec<bool>,
    /// Page-group accounting, when enabled.
    groups: Option<GroupTracker>,
}

impl ValidPageIndex {
    /// Creates an all-erased index for `total_blocks` blocks of
    /// `pages_per_block` pages each.
    pub fn new(total_blocks: usize, pages_per_block: usize) -> Self {
        let levels = pages_per_block + 1;
        let words_per_level = total_blocks.div_ceil(64);
        ValidPageIndex {
            pages_per_block: pages_per_block as u32,
            valid: vec![0; total_blocks],
            programmed: vec![0; total_blocks],
            buckets: vec![0; levels * words_per_level],
            words_per_level,
            level_counts: vec![0; levels],
            occupied: vec![0; levels.div_ceil(64)],
            total_valid: 0,
            erase_counts: vec![0; total_blocks],
            erase_events: Vec::new(),
            last_program_ns: vec![0; total_blocks],
            retired: vec![false; total_blocks],
            groups: None,
        }
    }

    /// Enables page-group accounting: `pages_per_group` consecutive flat
    /// pages form one of `total_groups` allocation groups. Must be enabled
    /// on an all-erased index (it is installed at construction time, before
    /// any command runs).
    pub fn enable_group_tracking(&mut self, pages_per_group: u64, total_groups: u64) {
        self.groups = Some(GroupTracker {
            pages_per_group: pages_per_group.max(1),
            programmed: vec![0; total_groups as usize],
            valid: vec![0; total_groups as usize],
            by_block: vec![Vec::new(); self.valid.len()],
            fully_erased: Vec::new(),
        });
    }

    /// True when page-group accounting is enabled.
    pub fn tracks_groups(&self) -> bool {
        self.groups.is_some()
    }

    fn garbage(&self, block: usize) -> u32 {
        self.programmed[block] - self.valid[block]
    }

    fn bucket_remove(&mut self, level: u32, block: u32) {
        let l = level as usize;
        let word = &mut self.buckets[l * self.words_per_level + (block as usize >> 6)];
        let bit = 1u64 << (block & 63);
        if *word & bit != 0 {
            *word &= !bit;
            self.level_counts[l] -= 1;
            if self.level_counts[l] == 0 {
                self.occupied[l >> 6] &= !(1u64 << (l & 63));
            }
        }
    }

    fn bucket_insert(&mut self, level: u32, block: u32) {
        // Retired blocks never re-enter the victim structure, no matter how
        // much garbage they accumulate.
        if self.retired[block as usize] {
            return;
        }
        let l = level as usize;
        let word = &mut self.buckets[l * self.words_per_level + (block as usize >> 6)];
        let bit = 1u64 << (block & 63);
        if *word & bit == 0 {
            *word |= bit;
            self.level_counts[l] += 1;
            self.occupied[l >> 6] |= 1u64 << (l & 63);
        }
    }

    /// The set bit indices of `words`, ascending.
    fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
        words.iter().enumerate().flat_map(|(i, &w)| {
            std::iter::successors((w != 0).then_some(w), |w| {
                let w = w & (w - 1);
                (w != 0).then_some(w)
            })
            .map(move |w| i * 64 + w.trailing_zeros() as usize)
        })
    }

    /// Records one page program (or preload) of flat page `flat` landing in
    /// `block` at instant `now_ns` (preloads pass 0: pre-experiment data is
    /// "as old as the run").
    pub fn on_program(&mut self, block: u64, flat: u64, now_ns: u64) {
        let b = block as usize;
        let had_garbage = self.garbage(b) > 0;
        if had_garbage {
            self.bucket_remove(self.valid[b], block as u32);
        }
        self.programmed[b] += 1;
        self.valid[b] += 1;
        self.total_valid += 1;
        self.last_program_ns[b] = self.last_program_ns[b].max(now_ns);
        if had_garbage {
            self.bucket_insert(self.valid[b], block as u32);
        }
        if let Some(t) = &mut self.groups {
            let g = (flat / t.pages_per_group) as usize;
            if g < t.programmed.len() {
                t.programmed[g] += 1;
                t.valid[g] += 1;
                t.note_program(b, g as u32);
            }
        }
    }

    /// Records a batch of page programs — the once-per-`submit_batch` entry
    /// point. Each `(block, flat)` entry is accounted exactly as a matching
    /// sequence of [`ValidPageIndex::on_program`] calls would, but the
    /// device-wide group counters are coalesced per run of same-group pages
    /// (a vectored group write is one such run striped across channels), so
    /// the per-page work is only the per-block counter touch.
    pub fn on_program_batch<I>(&mut self, entries: I, now_ns: u64)
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        // (group, pages) accumulated for the current same-group run.
        let mut pending: Option<(usize, u32)> = None;
        for (block, flat) in entries {
            let b = block as usize;
            let had_garbage = self.garbage(b) > 0;
            if had_garbage {
                self.bucket_remove(self.valid[b], block as u32);
            }
            self.programmed[b] += 1;
            self.valid[b] += 1;
            self.total_valid += 1;
            self.last_program_ns[b] = self.last_program_ns[b].max(now_ns);
            if had_garbage {
                self.bucket_insert(self.valid[b], block as u32);
            }
            if let Some(t) = &mut self.groups {
                let g = (flat / t.pages_per_group) as usize;
                if g < t.programmed.len() {
                    t.note_program(b, g as u32);
                    pending = match pending {
                        Some((run, pages)) if run == g => Some((run, pages + 1)),
                        Some((run, pages)) => {
                            t.programmed[run] += pages;
                            t.valid[run] += pages;
                            Some((g, 1))
                        }
                        None => Some((g, 1)),
                    };
                }
            }
        }
        if let (Some(t), Some((run, pages))) = (&mut self.groups, pending) {
            t.programmed[run] += pages;
            t.valid[run] += pages;
        }
    }

    /// Records the page at flat index `flat` of `block` being superseded.
    pub fn on_invalidate(&mut self, block: u64, flat: u64) {
        let b = block as usize;
        if self.garbage(b) > 0 {
            self.bucket_remove(self.valid[b], block as u32);
        }
        self.valid[b] -= 1;
        self.total_valid -= 1;
        self.bucket_insert(self.valid[b], block as u32);
        if let Some(t) = &mut self.groups {
            let g = (flat / t.pages_per_group) as usize;
            if g < t.valid.len() {
                t.valid[g] -= 1;
                let list = &mut t.by_block[b];
                if let Ok(i) = list.binary_search_by_key(&(g as u32), |entry| entry.0) {
                    list[i].2 -= 1;
                }
            }
        }
    }

    /// Records a batch of page invalidations — the vectored counterpart of
    /// [`ValidPageIndex::on_invalidate`], with the device-wide group valid
    /// counter coalesced per run of same-group pages (a group overwrite
    /// invalidates one such run striped across channels).
    pub fn on_invalidate_batch<I>(&mut self, entries: I)
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        // (group, pages) accumulated for the current same-group run.
        let mut pending: Option<(usize, u32)> = None;
        for (block, flat) in entries {
            let b = block as usize;
            if self.garbage(b) > 0 {
                self.bucket_remove(self.valid[b], block as u32);
            }
            self.valid[b] -= 1;
            self.total_valid -= 1;
            self.bucket_insert(self.valid[b], block as u32);
            if let Some(t) = &mut self.groups {
                let g = (flat / t.pages_per_group) as usize;
                if g < t.valid.len() {
                    let list = &mut t.by_block[b];
                    if let Ok(i) = list.binary_search_by_key(&(g as u32), |entry| entry.0) {
                        list[i].2 -= 1;
                    }
                    pending = match pending {
                        Some((run, pages)) if run == g => Some((run, pages + 1)),
                        Some((run, pages)) => {
                            t.valid[run] -= pages;
                            Some((g, 1))
                        }
                        None => Some((g, 1)),
                    };
                }
            }
        }
        if let (Some(t), Some((run, pages))) = (&mut self.groups, pending) {
            t.valid[run] -= pages;
        }
    }

    /// Records `block` being erased.
    pub fn on_erase(&mut self, block: u64) {
        let b = block as usize;
        if self.garbage(b) > 0 {
            self.bucket_remove(self.valid[b], block as u32);
        }
        self.total_valid -= self.valid[b] as u64;
        self.valid[b] = 0;
        self.programmed[b] = 0;
        self.erase_counts[b] += 1;
        self.erase_events.push(block);
        if let Some(t) = &mut self.groups {
            // Take the list out so the per-group counters can be updated
            // while walking it; hand back the emptied allocation afterwards
            // so a recycled block's next programs reuse the capacity.
            let mut resident = std::mem::take(&mut t.by_block[b]);
            for &(g, programmed, valid) in &resident {
                let g = g as usize;
                t.programmed[g] -= programmed;
                t.valid[g] -= valid;
                if t.programmed[g] == 0 {
                    // The erase cleared this group's last programmed page
                    // anywhere on the device: it is reusable again.
                    t.fully_erased.push(g as u64);
                }
            }
            resident.clear();
            t.by_block[b] = resident;
        }
    }

    /// Drains the groups whose last programmed page an erase cleared since
    /// the previous drain (empty without group tracking). The reclaim path
    /// above returns the unmapped ones to the allocator — the fix for the
    /// "erased but never recycled" overwrite-garbage leak.
    pub fn take_fully_erased_groups(&mut self) -> Vec<u64> {
        match &mut self.groups {
            Some(t) => std::mem::take(&mut t.fully_erased),
            None => Vec::new(),
        }
    }

    /// The garbage groups currently resident in `block`: groups holding at
    /// least one programmed page in the block but no valid page anywhere.
    /// Empty without group tracking.
    pub fn garbage_groups_in(&self, block: u64) -> Vec<u64> {
        match &self.groups {
            Some(t) => t.by_block[block as usize]
                .iter()
                .filter(|&&(g, _, _)| t.valid[g as usize] == 0)
                .map(|&(g, _, _)| g as u64)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Programmed (not yet erased) pages of group `g`, device-wide. Zero
    /// without group tracking.
    pub fn group_programmed_pages(&self, g: u64) -> u32 {
        self.groups
            .as_ref()
            .and_then(|t| t.programmed.get(g as usize).copied())
            .unwrap_or(0)
    }

    /// Valid pages of group `g`, device-wide. Zero without group tracking.
    pub fn group_valid_pages(&self, g: u64) -> u32 {
        self.groups
            .as_ref()
            .and_then(|t| t.valid.get(g as usize).copied())
            .unwrap_or(0)
    }

    /// Valid pages currently held by `block`.
    pub fn valid_in(&self, block: u64) -> u32 {
        self.valid[block as usize]
    }

    /// Programmed (valid or superseded) pages currently held by `block`.
    pub fn programmed_in(&self, block: u64) -> u32 {
        self.programmed[block as usize]
    }

    /// Superseded pages reclaimable by erasing `block`.
    pub fn garbage_in(&self, block: u64) -> u32 {
        self.garbage(block as usize)
    }

    /// Valid pages across the whole backbone.
    pub fn total_valid(&self) -> u64 {
        self.total_valid
    }

    /// The reclaimable block with the fewest valid pages (cheapest
    /// migration), smallest block index on ties; `None` when no block holds
    /// garbage. O(log n).
    pub fn min_valid_garbage_block(&self) -> Option<u64> {
        let level = Self::set_bits(&self.occupied).next()?;
        let base = level * self.words_per_level;
        Self::set_bits(&self.buckets[base..base + self.words_per_level])
            .next()
            .map(|block| block as u64)
    }

    /// Erase cycles recorded for `block` — the per-block wear counter the
    /// dies also track, mirrored here so wear queries never walk the dies.
    pub fn block_erase_count(&self, block: u64) -> u64 {
        self.erase_counts
            .get(block as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Drains the blocks erased since the previous drain, one entry per
    /// erase in execution order. The translation layer feeds these into its
    /// incrementally maintained min-wear placement structure.
    pub fn take_erased_blocks(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.erase_events)
    }

    /// Instant (ns) of the last page program that landed in `block`.
    pub fn last_program_ns_of(&self, block: u64) -> u64 {
        self.last_program_ns
            .get(block as usize)
            .copied()
            .unwrap_or_default()
    }

    /// The reclaimable block maximizing the classic cost-benefit score
    /// `age × garbage / valid` at instant `now_ns`, where `age` is the time
    /// since the block last absorbed a program: stale blocks full of
    /// garbage are the best victims, hot blocks about to gather more
    /// garbage are the worst. `None` when no block holds garbage.
    ///
    /// Walks only the garbage buckets — O(blocks with garbage), never a
    /// device rescan — with exact integer cross-multiplied comparison so
    /// the pick is deterministic (score ties go to the first candidate in
    /// (valid-level, block-index) order).
    pub fn cost_benefit_victim(&self, now_ns: u64) -> Option<u64> {
        let mut best: Option<(u128, u128, u32)> = None;
        for level in Self::set_bits(&self.occupied) {
            let base = level * self.words_per_level;
            for block in Self::set_bits(&self.buckets[base..base + self.words_per_level]) {
                let block = block as u32;
                let b = block as usize;
                let age = now_ns.saturating_sub(self.last_program_ns[b]).max(1) as u128;
                let numerator = age * self.garbage(b) as u128;
                let denominator = self.valid[b].max(1) as u128;
                let better = match best {
                    None => true,
                    // score = num/den; compare num_a * den_b vs num_b * den_a
                    // exactly instead of dividing.
                    Some((bn, bd, _)) => numerator * bd > bn * denominator,
                };
                if better {
                    best = Some((numerator, denominator, block));
                }
            }
        }
        best.map(|(_, _, block)| block as u64)
    }

    /// Promotes `block` into the bad-block table: it leaves the garbage
    /// buckets immediately and never re-enters, so neither victim policy
    /// can propose erasing it again. Counters (valid, programmed, wear)
    /// keep tracking it — retirement hides the block from GC, it does not
    /// rewrite its state. Idempotent.
    pub fn retire_block(&mut self, block: u64) {
        let b = block as usize;
        if b >= self.retired.len() || self.retired[b] {
            return;
        }
        if self.garbage(b) > 0 {
            self.bucket_remove(self.valid[b], block as u32);
        }
        self.retired[b] = true;
    }

    /// True when `block` sits in the bad-block table.
    pub fn is_block_retired(&self, block: u64) -> bool {
        self.retired
            .get(block as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Pages per block the index was built for.
    pub fn pages_per_block(&self) -> u32 {
        self.pages_per_block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_track_garbage_blocks_only() {
        let mut idx = ValidPageIndex::new(4, 8);
        // Fully valid blocks never appear as victims.
        for _ in 0..8 {
            idx.on_program(0, 0, 0);
        }
        assert_eq!(idx.valid_in(0), 8);
        assert_eq!(idx.min_valid_garbage_block(), None);
        // Invalidation makes block 0 reclaimable at valid level 7.
        idx.on_invalidate(0, 0);
        assert_eq!(idx.min_valid_garbage_block(), Some(0));
        assert_eq!(idx.garbage_in(0), 1);
        assert_eq!(idx.total_valid(), 7);
    }

    #[test]
    fn greedy_pick_prefers_fewest_valid_then_smallest_index() {
        let mut idx = ValidPageIndex::new(4, 8);
        for block in [1u64, 2, 3] {
            for _ in 0..4 {
                idx.on_program(block, 0, 0);
            }
        }
        idx.on_invalidate(1, 0); // 3 valid, 1 garbage
        idx.on_invalidate(3, 0); // 3 valid, 1 garbage
        idx.on_invalidate(3, 0);
        idx.on_invalidate(3, 0); // 1 valid, 3 garbage
        idx.on_invalidate(2, 0); // 3 valid, 1 garbage
        assert_eq!(idx.min_valid_garbage_block(), Some(3));
        idx.on_erase(3);
        assert_eq!(idx.valid_in(3), 0);
        assert_eq!(idx.programmed_in(3), 0);
        // Blocks 1 and 2 tie at 3 valid pages; the smaller index wins.
        assert_eq!(idx.min_valid_garbage_block(), Some(1));
        assert_eq!(idx.total_valid(), 3 + 3 + 1 - 1);
    }

    #[test]
    fn erase_clears_membership_and_totals() {
        let mut idx = ValidPageIndex::new(2, 4);
        for _ in 0..4 {
            idx.on_program(1, 0, 0);
        }
        idx.on_invalidate(1, 0);
        idx.on_erase(1);
        assert_eq!(idx.min_valid_garbage_block(), None);
        assert_eq!(idx.total_valid(), 0);
        // The block is reusable from scratch.
        idx.on_program(1, 0, 0);
        assert_eq!(idx.valid_in(1), 1);
    }

    #[test]
    fn group_tracking_reports_fully_erased_groups() {
        // 2 blocks × 4 pages, 2-page groups: group g covers flat pages
        // 2g..2g+2. Treat flat pages 0..4 as living in block 0 and 4..8 in
        // block 1 (the caller supplies the mapping).
        let mut idx = ValidPageIndex::new(2, 4);
        idx.enable_group_tracking(2, 4);
        assert!(idx.tracks_groups());
        for flat in 0..4u64 {
            idx.on_program(0, flat, 0);
        }
        assert_eq!(idx.group_programmed_pages(0), 2);
        assert_eq!(idx.group_valid_pages(1), 2);
        // Overwrite group 0: both its pages go invalid → it is garbage.
        idx.on_invalidate(0, 0);
        idx.on_invalidate(0, 1);
        assert_eq!(idx.group_valid_pages(0), 0);
        assert_eq!(idx.garbage_groups_in(0), vec![0]);
        // Nothing is reclaimable before the erase.
        assert!(idx.take_fully_erased_groups().is_empty());
        // The erase clears both resident groups; both report fully erased
        // (group 1 was still valid — the caller filters mapped groups).
        idx.on_erase(0);
        let mut erased = idx.take_fully_erased_groups();
        erased.sort_unstable();
        assert_eq!(erased, vec![0, 1]);
        // The drain is one-shot.
        assert!(idx.take_fully_erased_groups().is_empty());
        assert_eq!(idx.group_programmed_pages(0), 0);
    }

    #[test]
    fn group_spanning_two_blocks_reclaims_only_after_both_erases() {
        // Group 0's two pages: flat 0 in block 0, flat 1 in block 1 — the
        // striped layout where a group crosses a block row.
        let mut idx = ValidPageIndex::new(2, 4);
        idx.enable_group_tracking(2, 2);
        idx.on_program(0, 0, 0);
        idx.on_program(1, 1, 0);
        idx.on_invalidate(0, 0);
        idx.on_invalidate(1, 1);
        idx.on_erase(0);
        // One page still programmed in block 1: not reclaimable yet.
        assert!(idx.take_fully_erased_groups().is_empty());
        idx.on_erase(1);
        assert_eq!(idx.take_fully_erased_groups(), vec![0]);
    }

    #[test]
    fn retired_block_leaves_and_never_reenters_victim_selection() {
        let mut idx = ValidPageIndex::new(2, 8);
        for _ in 0..2 {
            idx.on_program(0, 0, 0);
        }
        idx.on_invalidate(0, 0); // garbage → block 0 enters the buckets
        assert_eq!(idx.min_valid_garbage_block(), Some(0));
        idx.retire_block(0);
        assert!(idx.is_block_retired(0));
        assert_eq!(idx.min_valid_garbage_block(), None);
        // Accumulating more garbage cannot resurrect a retired block.
        idx.on_invalidate(0, 1);
        assert_eq!(idx.min_valid_garbage_block(), None);
        assert_eq!(idx.cost_benefit_victim(1_000), None);
        // Counters keep tracking it; retirement only hides it from GC.
        assert_eq!(idx.valid_in(0), 0);
        assert_eq!(idx.garbage_in(0), 2);
        idx.retire_block(0); // idempotent
        assert!(idx.is_block_retired(0));
    }

    #[test]
    fn reprogramming_a_garbage_block_moves_its_bucket() {
        let mut idx = ValidPageIndex::new(2, 8);
        for _ in 0..3 {
            idx.on_program(0, 0, 0);
        }
        idx.on_invalidate(0, 0); // 2 valid, 1 garbage
        idx.on_program(0, 0, 0); // 3 valid, 1 garbage — bucket must move 2 → 3
        assert_eq!(idx.valid_in(0), 3);
        assert_eq!(idx.garbage_in(0), 1);
        assert_eq!(idx.min_valid_garbage_block(), Some(0));
    }
}

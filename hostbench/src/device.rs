//! Counters read from one simulated device after a simulation call, the
//! conservation law they must satisfy, and the digest of simulated results.

use crate::bench::Layers;
use crate::report::ratio;
use flashabacus::{Flashvisor, Storengine};

/// FNV-1a over 64-bit words: a digest of simulated results that changes
/// when any of them does.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Pushes the bit pattern of `x`.
    pub fn push_f64(&mut self, x: f64) {
        self.push(x.to_bits());
    }

    pub fn push_str(&mut self, s: &str) {
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.push(u64::from_le_bytes(word));
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Per-layer counters summed over every device a pass simulated.
#[derive(Debug, Default, Clone)]
pub struct DeviceTotals {
    pub gc_passes: u64,
    group_reads: u64,
    group_writes: u64,
    mapping_lookups: u64,
    lock_denials: u64,
    pages_migrated: u64,
    migrated_groups: u64,
    migrated_bytes: u64,
    reclaimed_bytes: u64,
    gc_erases: u64,
    journal_dumps: u64,
    reads: u64,
    programs: u64,
    erases: u64,
    peak_tags: usize,
    windows: u64,
    read_fallbacks: u64,
    write_fallbacks: u64,
    free_fraction_end: f64,
}

impl DeviceTotals {
    /// Adds one device's counters. Returns its backbone command count, or
    /// `None` when the per-owner command sums differ from the backbone's
    /// totals.
    pub fn add(&mut self, v: &Flashvisor, s: &Storengine) -> Option<u64> {
        let fv = v.stats();
        let st = s.stats();
        let backbone = v.backbone();
        let bb = backbone.stats();
        let owners = backbone.owner_stats();
        let sums = owners.values().fold((0, 0, 0), |(r, p, e), o| {
            (r + o.reads, p + o.programs, e + o.erases)
        });
        let config = v.config();
        let pages_per_group = config.pages_per_group().max(1);
        self.group_reads += fv.group_reads;
        self.group_writes += fv.group_writes;
        self.mapping_lookups += fv.mapping_lookups;
        self.lock_denials += fv.lock_denials;
        self.pages_migrated += st.pages_migrated;
        self.migrated_groups += st.pages_migrated / pages_per_group;
        self.migrated_bytes += st.pages_migrated * config.flash_geometry.page_bytes as u64;
        self.reclaimed_bytes += st.groups_reclaimed * config.page_group_bytes;
        self.gc_erases += st.erases;
        self.journal_dumps += st.journal_dumps;
        self.reads += bb.reads;
        self.programs += bb.programs;
        self.erases += bb.erases;
        self.peak_tags = owners
            .values()
            .map(|o| o.peak_tags)
            .fold(self.peak_tags, usize::max);
        self.windows += backbone.sharded_windows();
        self.read_fallbacks += fv.sharded_read_fallbacks;
        self.write_fallbacks += fv.sharded_write_fallbacks;
        self.free_fraction_end = v.free_fraction();
        (sums == (bb.reads, bb.programs, bb.erases)).then_some(bb.reads + bb.programs + bb.erases)
    }

    pub fn write(&self, out: &mut Layers) {
        let entries = [
            ("flashvisor.group_reads", self.group_reads as f64),
            ("flashvisor.group_writes", self.group_writes as f64),
            ("flashvisor.mapping_lookups", self.mapping_lookups as f64),
            ("rangelock.lock_denials", self.lock_denials as f64),
            (
                "freespace.allocations",
                (self.group_writes + self.migrated_groups) as f64,
            ),
            ("freespace.free_fraction_end", self.free_fraction_end),
            ("storengine.gc_passes", self.gc_passes as f64),
            ("storengine.pages_migrated", self.pages_migrated as f64),
            ("storengine.erases", self.gc_erases as f64),
            (
                "storengine.migrated_per_reclaimed",
                ratio(self.migrated_bytes as f64, self.reclaimed_bytes as f64),
            ),
            ("storengine.journal_dumps", self.journal_dumps as f64),
            ("backbone.reads", self.reads as f64),
            ("backbone.programs", self.programs as f64),
            ("backbone.erases", self.erases as f64),
            ("backbone.peak_channel_tags", self.peak_tags as f64),
            ("sharded.windows", self.windows as f64),
            ("sharded.read_fallbacks", self.read_fallbacks as f64),
            ("sharded.write_fallbacks", self.write_fallbacks as f64),
        ];
        out.extend(entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_digest_sees_every_word_and_its_order() {
        let mut a = Digest::default();
        a.push(1);
        a.push(2);
        let mut b = Digest::default();
        b.push(2);
        b.push(1);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.push_f64(0.0);
        let mut d = Digest::default();
        d.push_f64(-0.0);
        assert_ne!(c.value(), d.value(), "bit patterns, not values");
    }
}

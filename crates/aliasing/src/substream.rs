//! Substream statistics: the *substream ratio* and *compulsory aliasing*
//! columns of Table 2.
//!
//! The substream ratio is "the average number of different history values
//! encountered for a given conditional branch address"; compulsory
//! aliasing is the number of distinct `(address, history)` pairs divided
//! by the dynamic conditional branch count.

use crate::pairs::{walk_ids, PairId, Reference};
use bpred_trace::soa::TraceColumns;
use std::collections::HashSet;

/// Substream statistics for one history length, fed by a pair walk.
#[derive(Debug, Clone, Default)]
pub struct SubstreamStats {
    pairs: u64,
    /// Addresses of the pairs seen, inserted once per pair.
    addresses: HashSet<u64>,
    dynamic: u64,
}

impl SubstreamStats {
    /// The statistics of `cols` under `history_bits` of global history.
    ///
    /// # Panics
    ///
    /// Panics if `history_bits` exceeds 64.
    pub fn measure(cols: &TraceColumns, history_bits: u32) -> Self {
        let mut stats = SubstreamStats::default();
        walk_ids(cols, history_bits, |r, pair| stats.observe(&r, pair));
        stats
    }

    /// Account one reference of a [`walk_ids`] walk.
    #[inline]
    pub fn observe(&mut self, r: &Reference, pair: PairId) {
        self.dynamic += 1;
        if pair.first {
            self.pairs += 1;
            self.addresses.insert(r.vector.addr());
        }
    }

    /// Distinct `(address, history)` pairs seen.
    pub fn distinct_pairs(&self) -> u64 {
        self.pairs
    }

    /// Distinct conditional branch addresses seen.
    pub fn distinct_addresses(&self) -> u64 {
        self.addresses.len() as u64
    }

    /// Dynamic conditional branches seen.
    pub fn dynamic_branches(&self) -> u64 {
        self.dynamic
    }

    /// Table 2's *substream ratio*: distinct pairs per distinct address.
    pub fn substream_ratio(&self) -> f64 {
        if self.addresses.is_empty() {
            0.0
        } else {
            self.pairs as f64 / self.addresses.len() as f64
        }
    }

    /// Table 2's *compulsory aliasing*: distinct pairs over dynamic
    /// branches.
    pub fn compulsory_ratio(&self) -> f64 {
        if self.dynamic == 0 {
            0.0
        } else {
            self.pairs as f64 / self.dynamic as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_trace::prelude::*;

    fn measure(records: &[BranchRecord], history_bits: u32) -> SubstreamStats {
        SubstreamStats::measure(&TraceColumns::from_records(records), history_bits)
    }

    #[test]
    fn zero_history_ratio_is_one() {
        let records = vec![
            BranchRecord::conditional(0x100, true),
            BranchRecord::conditional(0x200, false),
            BranchRecord::conditional(0x100, false),
        ];
        let s = measure(&records, 0);
        assert_eq!(s.distinct_pairs(), 2);
        assert_eq!(s.distinct_addresses(), 2);
        assert!((s.substream_ratio() - 1.0).abs() < 1e-12);
        assert!((s.compulsory_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn longer_history_multiplies_substreams() {
        let records: Vec<_> = IbsBenchmark::Groff.spec().build().take(100_000).collect();
        let h0 = measure(&records, 0);
        let h4 = measure(&records, 4);
        let h12 = measure(&records, 12);
        assert!((h0.substream_ratio() - 1.0).abs() < 1e-12);
        assert!(h4.substream_ratio() > 1.2, "h4: {}", h4.substream_ratio());
        assert!(
            h12.substream_ratio() > h4.substream_ratio(),
            "h12 {} <= h4 {}",
            h12.substream_ratio(),
            h4.substream_ratio()
        );
        assert_eq!(h0.distinct_addresses(), h12.distinct_addresses());
    }

    #[test]
    fn empty_stream() {
        let s = measure(&[], 4);
        assert_eq!(s.substream_ratio(), 0.0);
        assert_eq!(s.compulsory_ratio(), 0.0);
    }

    #[test]
    fn unconditionals_counted_in_history_not_pairs() {
        let records = vec![
            BranchRecord::conditional(0x100, false),
            BranchRecord::unconditional(0x104),
            BranchRecord::conditional(0x100, false),
        ];
        let s = measure(&records, 2);
        // Histories at the two executions of 0x100 are 00 and 10 (the
        // unconditional shifted a 1 in): two pairs, one address.
        assert_eq!(s.distinct_pairs(), 2);
        assert_eq!(s.distinct_addresses(), 1);
        assert_eq!(s.dynamic_branches(), 2);
    }
}

//! The information vector `V` that identifies a branch substream.
//!
//! Section 4.2 of the paper fixes the vector of information used to divide
//! branches into substreams as the concatenation of the branch address and
//! the `k` bits of global history: `V = (a_N .. a_2, h_k .. h_1)`. Branch
//! addresses are instruction-aligned, so the two low address bits carry no
//! information and are dropped.

use crate::history::history_mask;
use std::fmt;

/// A branch substream identifier: `(address, history)` with the packed form
/// used by the skewing functions.
///
/// ```
/// use bpred_core::vector::InfoVector;
///
/// let v = InfoVector::new(0x4000_1008, 0b1011, 4);
/// // address bits a_N..a_2 sit above the 4 history bits:
/// assert_eq!(v.packed(), ((0x4000_1008u64 >> 2) << 4) | 0b1011);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InfoVector {
    addr: u64,
    hist: u64,
    hist_bits: u32,
}

impl InfoVector {
    /// Build the vector for the branch at `pc` under `hist_bits` bits of
    /// global history `hist`.
    ///
    /// `hist` is truncated to `hist_bits`; `pc` is right-shifted by 2
    /// (instruction alignment, `a_2` is the lowest useful bit).
    #[inline]
    pub fn new(pc: u64, hist: u64, hist_bits: u32) -> Self {
        InfoVector::from_masked(pc, hist & history_mask(hist_bits), hist_bits)
    }

    /// [`InfoVector::new`] for a history already masked to `hist_bits`
    /// bits (as [`crate::history::GlobalHistory`] keeps it).
    #[inline]
    pub(crate) fn from_masked(pc: u64, hist: u64, hist_bits: u32) -> Self {
        InfoVector {
            addr: pc >> 2,
            hist,
            hist_bits,
        }
    }

    /// The word-aligned address component `a_N..a_2`.
    #[inline]
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// The history component `h_k..h_1`.
    #[inline]
    pub fn hist(&self) -> u64 {
        self.hist
    }

    /// Number of history bits in the vector.
    #[inline]
    pub fn hist_bits(&self) -> u32 {
        self.hist_bits
    }

    /// The packed binary representation `(a_N..a_2, h_k..h_1)`.
    ///
    /// High address bits that do not fit in 64 bits after the shift are
    /// discarded; with word-aligned addresses below 2^40 and history lengths
    /// up to 24 bits (far beyond anything the paper evaluates) the packing
    /// is exact.
    #[inline]
    pub fn packed(&self) -> u64 {
        if self.hist_bits >= 64 {
            self.hist
        } else {
            (self.addr << self.hist_bits) | self.hist
        }
    }

    /// The `(address, history)` pair as a tuple, the tag identity used by
    /// the tagged table simulations of section 3.
    #[inline]
    pub fn pair(&self) -> (u64, u64) {
        (self.addr, self.hist)
    }
}

impl fmt::Display for InfoVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(addr={:#x}, hist={:0width$b})",
            self.addr << 2,
            self.hist,
            width = self.hist_bits as usize
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_address_above_history() {
        let v = InfoVector::new(0x1000, 0b11, 2);
        assert_eq!(v.addr(), 0x400);
        assert_eq!(v.hist(), 0b11);
        assert_eq!(v.packed(), (0x400 << 2) | 0b11);
    }

    #[test]
    fn zero_history_packs_address_only() {
        let v = InfoVector::new(0x1004, 0b1111, 0);
        assert_eq!(v.hist(), 0);
        assert_eq!(v.packed(), 0x1004 >> 2);
    }

    #[test]
    fn history_truncated_to_declared_bits() {
        let v = InfoVector::new(0, 0b110101, 3);
        assert_eq!(v.hist(), 0b101);
    }

    #[test]
    fn alignment_bits_dropped() {
        let a = InfoVector::new(0x4000, 0, 4);
        let b = InfoVector::new(0x4001, 0, 4);
        let c = InfoVector::new(0x4004, 0, 4);
        assert_eq!(a, b, "low two pc bits carry no information");
        assert_ne!(a, c);
    }

    #[test]
    fn pair_matches_components() {
        let v = InfoVector::new(0x8000, 0b1010, 4);
        assert_eq!(v.pair(), (0x2000, 0b1010));
    }
}

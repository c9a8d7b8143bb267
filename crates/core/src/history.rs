//! The global branch history register.
//!
//! Global-history schemes key their tables with a shift register containing
//! the directions of the most recent branches. Following the paper,
//! unconditional branches are also shifted in (as taken).

use crate::predictor::Outcome;
use crate::vector::InfoVector;
use std::fmt;

/// Maximum supported history length in bits.
pub const MAX_HISTORY_BITS: u32 = 64;

/// The mask selecting the low `bits` bits of a history word: 0 for a
/// zero-length history, all ones from 64 bits up.
///
/// ```
/// use bpred_core::history::history_mask;
///
/// assert_eq!(history_mask(0), 0);
/// assert_eq!(history_mask(4), 0b1111);
/// assert_eq!(history_mask(64), u64::MAX);
/// ```
#[inline]
pub const fn history_mask(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// A global history shift register of up to [`MAX_HISTORY_BITS`] bits.
///
/// Bit 0 is the most recent branch; a taken branch shifts in a 1.
/// A zero-length history is legal and always reads as 0 (this is how the
/// history-length sweeps of figures 7 and 12 include the `h = 0` point,
/// where gshare degenerates to bimodal).
///
/// ```
/// use bpred_core::history::GlobalHistory;
/// use bpred_core::predictor::Outcome;
///
/// let mut h = GlobalHistory::new(4);
/// h.push(Outcome::Taken);
/// h.push(Outcome::NotTaken);
/// h.push(Outcome::Taken);
/// assert_eq!(h.value(), 0b101);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct GlobalHistory {
    bits: u64,
    len: u32,
    mask: u64,
}

impl GlobalHistory {
    /// A cleared history register of `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len > MAX_HISTORY_BITS`.
    pub fn new(len: u32) -> Self {
        assert!(
            len <= MAX_HISTORY_BITS,
            "history length {len} exceeds {MAX_HISTORY_BITS}"
        );
        GlobalHistory {
            bits: 0,
            len,
            mask: history_mask(len),
        }
    }

    /// The register length in bits.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// `true` when the register has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The current history pattern (low `len` bits).
    #[inline]
    pub fn value(&self) -> u64 {
        self.bits
    }

    /// Shift a branch direction into the register.
    #[inline]
    pub fn push(&mut self, outcome: Outcome) {
        self.bits = ((self.bits << 1) | u64::from(outcome.is_taken())) & self.mask;
    }

    /// The information vector of the branch at `pc` under this history.
    #[inline]
    pub fn vector(&self, pc: u64) -> InfoVector {
        InfoVector::from_masked(pc, self.bits, self.len)
    }

    /// Clear the register.
    #[inline]
    pub fn clear(&mut self) {
        self.bits = 0;
    }
}

impl fmt::Display for GlobalHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len == 0 {
            return f.write_str("<empty>");
        }
        write!(f, "{:0width$b}", self.bits, width = self.len as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_shifts_most_recent_into_bit0() {
        let mut h = GlobalHistory::new(8);
        h.push(Outcome::Taken);
        assert_eq!(h.value(), 0b1);
        h.push(Outcome::NotTaken);
        assert_eq!(h.value(), 0b10);
        h.push(Outcome::Taken);
        assert_eq!(h.value(), 0b101);
    }

    #[test]
    fn register_truncates_to_length() {
        let mut h = GlobalHistory::new(3);
        for _ in 0..10 {
            h.push(Outcome::Taken);
        }
        assert_eq!(h.value(), 0b111);
        h.push(Outcome::NotTaken);
        assert_eq!(h.value(), 0b110);
    }

    #[test]
    fn zero_length_history_is_always_zero() {
        let mut h = GlobalHistory::new(0);
        h.push(Outcome::Taken);
        h.push(Outcome::Taken);
        assert_eq!(h.value(), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn full_width_history_works() {
        let mut h = GlobalHistory::new(64);
        for _ in 0..128 {
            h.push(Outcome::Taken);
        }
        assert_eq!(h.value(), u64::MAX);
        h.push(Outcome::NotTaken);
        assert_eq!(h.value(), u64::MAX - 1);
    }

    #[test]
    fn clear_resets_pattern_not_length() {
        let mut h = GlobalHistory::new(5);
        h.push(Outcome::Taken);
        h.clear();
        assert_eq!(h.value(), 0);
        assert_eq!(h.len(), 5);
    }

    #[test]
    fn display_pads_to_length() {
        let mut h = GlobalHistory::new(4);
        h.push(Outcome::Taken);
        assert_eq!(h.to_string(), "0001");
        assert_eq!(GlobalHistory::new(0).to_string(), "<empty>");
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn too_long_history_panics() {
        let _ = GlobalHistory::new(65);
    }
}

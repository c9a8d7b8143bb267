//! Structure-of-arrays form of a trace — the only in-memory form the
//! trace cache keeps.
//!
//! The simulation engine (`bpred-sim`'s `engine::simulate`) walks a
//! trace as parallel columns instead of an array of [`BranchRecord`]
//! structs: the 16-byte record becomes one `u64` pc, two packed bitset
//! bits (taken, conditional) and one `u8` kind-and-privilege code per
//! record — about 9.25 bytes each, and the hot predict/update loop only
//! ever touches the pc column and two bit words per 64 records. The
//! columns are lossless: [`TraceColumns::records`] yields the exact
//! records they were built from, for consumers that walk whole records
//! (trace statistics, the aliasing instruments).

use crate::record::{BranchKind, BranchRecord, Privilege};

/// Bit of a kind-column byte set for kernel-mode records; the low bits
/// hold the [`BranchKind`] code (the binary trace formats pack a
/// record's flags the same way).
const KERNEL: u8 = 0x80;

/// A trace decomposed into per-field columns.
///
/// The column view is a pure function of the records it was built from:
/// neither [`TraceColumns::from_records`] nor collecting a stream
/// reorders or filters, so index `i` of every column describes record
/// `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceColumns {
    pc: Vec<u64>,
    /// Bit `i` set when record `i` was taken.
    taken: Vec<u64>,
    /// Bit `i` set when record `i` is a conditional branch.
    conditional: Vec<u64>,
    /// [`BranchKind`] codes, with [`KERNEL`] set for kernel records.
    kind: Vec<u8>,
    len: usize,
    conditional_count: u64,
}

/// Columns straight from a record stream, without materializing the
/// records first. The columns are trimmed to length afterwards, so
/// [`TraceColumns::heap_bytes`] carries no growth slack.
impl FromIterator<BranchRecord> for TraceColumns {
    fn from_iter<I: IntoIterator<Item = BranchRecord>>(records: I) -> Self {
        let records = records.into_iter();
        let mut columns = TraceColumns::with_capacity(records.size_hint().0);
        columns.extend(records);
        columns.pc.shrink_to_fit();
        columns.taken.shrink_to_fit();
        columns.conditional.shrink_to_fit();
        columns.kind.shrink_to_fit();
        columns
    }
}

impl Extend<BranchRecord> for TraceColumns {
    fn extend<I: IntoIterator<Item = BranchRecord>>(&mut self, records: I) {
        for r in records {
            let i = self.len;
            if i.is_multiple_of(64) {
                self.taken.push(0);
                self.conditional.push(0);
            }
            self.pc.push(r.pc);
            let kernel = if r.privilege == Privilege::Kernel {
                KERNEL
            } else {
                0
            };
            self.kind.push(r.kind.code() | kernel);
            if r.taken {
                self.taken[i >> 6] |= 1 << (i & 63);
            }
            if r.kind == BranchKind::Conditional {
                self.conditional[i >> 6] |= 1 << (i & 63);
                self.conditional_count += 1;
            }
            self.len += 1;
        }
    }
}

#[inline]
fn bit(words: &[u64], i: usize) -> bool {
    (words[i >> 6] >> (i & 63)) & 1 == 1
}

#[inline]
fn decode_kind(code: u8) -> BranchKind {
    BranchKind::from_code(code & !KERNEL).expect("column codes come from BranchKind::code")
}

impl TraceColumns {
    /// Decompose `records` into columns.
    pub fn from_records(records: &[BranchRecord]) -> TraceColumns {
        let mut columns = TraceColumns::with_capacity(records.len());
        columns.extend(records.iter().copied());
        columns
    }

    fn with_capacity(len: usize) -> TraceColumns {
        TraceColumns {
            pc: Vec::with_capacity(len),
            taken: Vec::with_capacity(len.div_ceil(64)),
            conditional: Vec::with_capacity(len.div_ceil(64)),
            kind: Vec::with_capacity(len),
            len: 0,
            conditional_count: 0,
        }
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the trace holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of conditional records.
    #[inline]
    pub fn conditional_count(&self) -> u64 {
        self.conditional_count
    }

    /// The pc of record `i`.
    #[inline]
    pub fn pc(&self, i: usize) -> u64 {
        self.pc[i]
    }

    /// Whether record `i` was taken.
    #[inline]
    pub fn taken(&self, i: usize) -> bool {
        bit(&self.taken, i)
    }

    /// Whether record `i` is a conditional branch.
    #[inline]
    pub fn is_conditional(&self, i: usize) -> bool {
        bit(&self.conditional, i)
    }

    /// `(is_conditional, taken)` of record `i` in one call — the pair
    /// every history-tracking kernel needs per record.
    #[inline]
    pub fn cond_taken(&self, i: usize) -> (bool, bool) {
        (bit(&self.conditional, i), bit(&self.taken, i))
    }

    /// The kind of record `i`.
    #[inline]
    pub fn kind(&self, i: usize) -> BranchKind {
        decode_kind(self.kind[i])
    }

    /// Record `i`, reassembled from the columns.
    #[inline]
    pub fn record(&self, i: usize) -> BranchRecord {
        let code = self.kind[i];
        BranchRecord {
            pc: self.pc[i],
            kind: decode_kind(code),
            taken: bit(&self.taken, i),
            privilege: if code & KERNEL != 0 {
                Privilege::Kernel
            } else {
                Privilege::User
            },
        }
    }

    /// Every record in order, reassembled on demand — the record stream
    /// the columns were built from.
    pub fn records(&self) -> impl ExactSizeIterator<Item = BranchRecord> + '_ {
        (0..self.len).map(move |i| self.record(i))
    }

    /// The records in blocks of 64: each block's pcs with its
    /// conditional and taken bit words (bit `j` describes record `j` of
    /// the block) — one load of each bitset per 64 records for loops
    /// that walk the whole trace.
    #[inline]
    pub fn blocks(&self) -> impl Iterator<Item = (&[u64], u64, u64)> + '_ {
        self.pc
            .chunks(64)
            .zip(self.conditional.iter().zip(&self.taken))
            .map(|(pcs, (&conditional, &taken))| (pcs, conditional, taken))
    }

    /// The pc column as a slice (for kernels that index it directly).
    #[inline]
    pub fn pcs(&self) -> &[u64] {
        &self.pc
    }

    /// Heap bytes held by the columns — what the trace cache charges
    /// against its byte budget.
    pub fn heap_bytes(&self) -> usize {
        self.pc.capacity() * std::mem::size_of::<u64>()
            + self.taken.capacity() * std::mem::size_of::<u64>()
            + self.conditional.capacity() * std::mem::size_of::<u64>()
            + self.kind.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::TraceSourceExt;
    use crate::workload::IbsBenchmark;

    #[test]
    fn columns_mirror_the_record_slice() {
        let records: Vec<BranchRecord> = IbsBenchmark::Groff
            .spec()
            .build()
            .take_conditionals(2_000)
            .collect();
        let cols = TraceColumns::from_records(&records);
        assert_eq!(cols.len(), records.len());
        assert!(!cols.is_empty());
        assert_eq!(cols.conditional_count(), 2_000);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(cols.pc(i), r.pc);
            assert_eq!(cols.taken(i), r.taken);
            assert_eq!(cols.is_conditional(i), r.kind.is_conditional());
            assert_eq!(cols.cond_taken(i), (r.kind.is_conditional(), r.taken));
            assert_eq!(cols.kind(i), r.kind);
            assert_eq!(cols.record(i), *r);
        }
        assert_eq!(cols.pcs().len(), records.len());
    }

    #[test]
    fn collecting_a_stream_equals_from_records() {
        let records: Vec<BranchRecord> = IbsBenchmark::Gs
            .spec()
            .build()
            .take_conditionals(3_000)
            .collect();
        let streamed: TraceColumns = IbsBenchmark::Gs
            .spec()
            .build()
            .take_conditionals(3_000)
            .collect();
        let sliced = TraceColumns::from_records(&records);
        assert_eq!(streamed, sliced);
        assert_eq!(
            streamed.heap_bytes(),
            sliced.heap_bytes(),
            "a collected stream is trimmed to length"
        );
        assert!(records.iter().any(|r| r.privilege == Privilege::Kernel));
        assert!(streamed.records().eq(records.iter().copied()));
        assert_eq!(
            sliced.heap_bytes(),
            8 * records.len() + 16 * records.len().div_ceil(64) + records.len()
        );
        let blocks: Vec<_> = sliced.blocks().collect();
        assert_eq!(blocks.len(), records.len().div_ceil(64));
        for (b, (pcs, conditional, taken)) in blocks.into_iter().enumerate() {
            for (j, &pc) in pcs.iter().enumerate() {
                let r = records[64 * b + j];
                assert_eq!(pc, r.pc);
                assert_eq!((conditional >> j) & 1 == 1, r.kind.is_conditional());
                assert_eq!((taken >> j) & 1 == 1, r.taken);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn records_roundtrip_through_the_columns(raw in proptest::collection::vec(
            (
                proptest::any::<u64>(),
                0u8..4,
                proptest::any::<bool>(),
                proptest::any::<bool>(),
            ),
            0..300
        )) {
            let records: Vec<BranchRecord> = raw
                .iter()
                .map(|&(pc, kind, taken, kernel)| BranchRecord {
                    pc,
                    kind: BranchKind::from_code(kind).unwrap(),
                    taken,
                    privilege: if kernel { Privilege::Kernel } else { Privilege::User },
                })
                .collect();
            let cols = TraceColumns::from_records(&records);
            let yielded: Vec<BranchRecord> = cols.records().collect();
            proptest::prop_assert_eq!(&yielded, &records);
            proptest::prop_assert_eq!(cols.records().len(), records.len());
            for (i, r) in records.iter().enumerate() {
                proptest::prop_assert_eq!(cols.record(i), *r);
            }
            let collected: TraceColumns = records.iter().copied().collect();
            proptest::prop_assert_eq!(&collected, &cols);
            proptest::prop_assert_eq!(collected.heap_bytes(), cols.heap_bytes());
        }
    }

    #[test]
    fn bitsets_handle_word_boundaries() {
        // Exactly 64, 65 and 127 records: boundary words must index right.
        for n in [64usize, 65, 127, 128] {
            let records: Vec<BranchRecord> = (0..n)
                .map(|i| {
                    if i % 3 == 0 {
                        BranchRecord::unconditional(0x100 + 4 * i as u64)
                    } else {
                        BranchRecord::conditional(0x100 + 4 * i as u64, i % 2 == 0)
                    }
                })
                .collect();
            let cols = TraceColumns::from_records(&records);
            for (i, r) in records.iter().enumerate() {
                assert_eq!(cols.taken(i), r.taken, "n={n} i={i}");
                assert_eq!(
                    cols.is_conditional(i),
                    r.kind.is_conditional(),
                    "n={n} i={i}"
                );
            }
        }
    }

    #[test]
    fn empty_trace() {
        let cols = TraceColumns::from_records(&[]);
        assert!(cols.is_empty());
        assert_eq!(cols.len(), 0);
        assert_eq!(cols.conditional_count(), 0);
    }

    #[test]
    fn heap_bytes_beat_the_aos_footprint() {
        let records: Vec<BranchRecord> = IbsBenchmark::Verilog
            .spec()
            .build()
            .take_conditionals(4_000)
            .collect();
        let cols = TraceColumns::from_records(&records);
        let aos = std::mem::size_of_val(&records[..]);
        assert!(
            cols.heap_bytes() < aos,
            "SoA {} bytes should undercut AoS {} bytes",
            cols.heap_bytes(),
            aos
        );
    }
}

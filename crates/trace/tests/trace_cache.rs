//! The process-wide trace cache keeps one form of each trace: its
//! columns. One test function, so the global counters and the resident
//! set are this binary's alone and can be asserted exactly.

use bpred_trace::cache;
use bpred_trace::record::BranchRecord;
use bpred_trace::stream::TraceSourceExt;
use bpred_trace::workload::{IbsBenchmark, DEFAULT_SEED_BASE};
use std::sync::Arc;

fn fresh(bench: IbsBenchmark, len: u64, seed: u64) -> Vec<BranchRecord> {
    bench
        .spec_seeded(seed)
        .build()
        .take_conditionals(len)
        .collect()
}

#[test]
fn one_miss_per_key_serves_columns_and_records() {
    cache::clear();
    let start = cache::stats();
    assert_eq!((start.entries, start.resident_bytes), (0, 0));

    let gs = cache::columns_seeded(IbsBenchmark::Gs, 4_000, DEFAULT_SEED_BASE);
    let after_miss = cache::stats();
    assert_eq!(after_miss.misses, start.misses + 1);
    assert_eq!(after_miss.hits, start.hits);

    // Record iteration of the same key is served by the same entry: a
    // hit, no second generation, the same allocation.
    let records: Vec<BranchRecord> = cache::columns(IbsBenchmark::Gs, 4_000).records().collect();
    assert_eq!(records, fresh(IbsBenchmark::Gs, 4_000, DEFAULT_SEED_BASE));
    let again = cache::columns_seeded(IbsBenchmark::Gs, 4_000, DEFAULT_SEED_BASE);
    assert!(Arc::ptr_eq(&gs, &again));
    let after_hits = cache::stats();
    assert_eq!(after_hits.misses, start.misses + 1);
    assert_eq!(after_hits.hits, start.hits + 2);

    // Resident bytes are exactly the resident columns' heap bytes.
    let groff = cache::columns_seeded(IbsBenchmark::Groff, 2_500, 0x51);
    let resident = cache::stats();
    assert_eq!(resident.entries, 2);
    assert_eq!(
        resident.resident_bytes,
        gs.heap_bytes() + groff.heap_bytes()
    );
    // About 9.25 bytes per record: no record copy, no growth slack.
    let per_record = resident.resident_bytes as f64 / (gs.len() + groff.len()) as f64;
    assert!((9.0..9.5).contains(&per_record), "{per_record} B/record");

    // The uncached record generator neither stores nor counts.
    let generated = cache::materialize_seeded(IbsBenchmark::Groff, 2_500, 0x51);
    assert!(groff.records().eq(generated.iter().copied()));
    let unchanged = cache::stats();
    assert_eq!(
        (unchanged.hits, unchanged.misses, unchanged.entries),
        (resident.hits, resident.misses, resident.entries)
    );
    assert_eq!(unchanged.resident_bytes, resident.resident_bytes);

    cache::clear();
    assert_eq!(cache::stats().resident_bytes, 0);
}

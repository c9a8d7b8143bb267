//! Fuzz-style hardening of every decoder a file or store can reach: the
//! BPT1 binary and text trace readers, the BPT2 compact reader, the
//! JSON parser and the results-store loader must answer arbitrary bytes
//! — and single-byte corruptions or truncations of valid encodings —
//! with `Ok` or `Err`, never a panic or an abort. The store loader must
//! also serve only records that were put, and lose nothing but the
//! damaged line.

use gskew::results::json::Json;
use gskew::results::record::{CellKey, ResultRecord};
use gskew::results::store::{ResultsStore, StoreWarning};
use gskew::trace::io::{read_binary, read_text, write_binary, write_text};
use gskew::trace::io2::{read_compact, write_compact};
use gskew::trace::record::{BranchKind, BranchRecord, Privilege};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Feed `bytes` to every decoder. Each call must return; the results
/// themselves are free to be `Ok` or `Err`.
fn decode_all(bytes: &[u8]) {
    let _ = read_binary(bytes);
    let _ = read_text(bytes);
    let _ = read_compact(bytes);
    if let Ok(json) = Json::parse(&String::from_utf8_lossy(bytes)) {
        let _ = ResultRecord::from_json(&json);
    }
}

fn arb_record() -> impl Strategy<Value = BranchRecord> {
    (
        any::<u64>(),
        prop_oneof![
            Just(BranchKind::Conditional),
            Just(BranchKind::Unconditional),
            Just(BranchKind::Call),
            Just(BranchKind::Return),
        ],
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(pc, kind, taken, kernel)| BranchRecord {
            pc,
            kind,
            taken,
            privilege: if kernel {
                Privilege::Kernel
            } else {
                Privilege::User
            },
        })
}

/// Every valid encoding of `records`: BPT1, text, BPT2, and a stored
/// result record as JSON.
fn encodings(records: &[BranchRecord], counts: (u64, u64, u64)) -> Vec<Vec<u8>> {
    let mut binary = Vec::new();
    write_binary(&mut binary, records.iter().copied()).unwrap();
    let mut text = Vec::new();
    write_text(&mut text, records.iter().copied()).unwrap();
    let mut compact = Vec::new();
    write_compact(&mut compact, records.iter().copied()).unwrap();
    let record = ResultRecord {
        experiment: "fig5".into(),
        key: CellKey {
            bench: "groff".into(),
            spec: "gskew:n=12,h=4 \"quoted\" \u{e9}".into(),
            len: counts.0,
            seed: counts.1,
            policy: "count".into(),
        },
        fingerprint: counts.2,
        engine_version: "1".into(),
        conditional: counts.0,
        mispredicted: counts.1,
        novel: counts.2,
        elapsed_ms: counts.0 as f64 / 7.0,
    };
    let json = record.to_json().to_string_compact().into_bytes();
    vec![binary, text, compact, json]
}

/// A fresh, empty directory for one store.
fn store_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gskew-store-fuzz-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Three storable records (distinct fingerprints) whose counts derive
/// from `counts`. Counts stay below 2^53, the largest integer a JSON
/// number carries exactly.
fn store_records(counts: (u64, u64, u64)) -> Vec<ResultRecord> {
    let exact = |v: u64| v % (1 << 53);
    (0..3u64)
        .map(|i| {
            let key = CellKey {
                bench: "groff".into(),
                spec: format!("gskew:n={},h=4 \"q\" \u{e9}", 8 + i),
                len: exact(counts.0),
                seed: counts.1,
                policy: "count".into(),
            };
            let fingerprint = key.fingerprint("fuzz", "1");
            ResultRecord {
                experiment: "fig5".into(),
                key,
                fingerprint,
                engine_version: "1".into(),
                conditional: exact(counts.0),
                mispredicted: exact(counts.1),
                novel: exact(counts.2.wrapping_add(i)),
                elapsed_ms: counts.2 as f64 / 7.0,
            }
        })
        .collect()
}

/// The bytes of the one segment and of the index a store holding
/// `records` leaves on disk, written through the public API.
fn store_files(records: &[ResultRecord]) -> (Vec<u8>, Vec<u8>) {
    let dir = store_dir();
    let mut store = ResultsStore::open(&dir).unwrap();
    for record in records {
        store.put(record).unwrap();
    }
    // Reopening brings the derived index up to date.
    drop(ResultsStore::open(&dir).unwrap());
    let segments: Vec<_> = fs::read_dir(dir.join("segments"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    let [segment] = &segments[..] else {
        panic!("one handle writes one segment: {segments:?}")
    };
    let files = (
        fs::read(segment).unwrap(),
        fs::read(dir.join("index.json")).unwrap(),
    );
    fs::remove_dir_all(&dir).unwrap();
    files
}

/// Open a store whose files are exactly `segment` (as `0.seg`) and
/// `index` (as `index.json`), each when given; return what it serves
/// and the warnings it raised. `open` itself must not fail: a damaged
/// line is skipped, not an error.
fn open_store(
    segment: Option<&[u8]>,
    index: Option<&[u8]>,
) -> (Vec<ResultRecord>, Vec<StoreWarning>) {
    let dir = store_dir();
    fs::create_dir_all(dir.join("segments")).unwrap();
    if let Some(bytes) = segment {
        fs::write(dir.join("segments").join("0.seg"), bytes).unwrap();
    }
    if let Some(bytes) = index {
        fs::write(dir.join("index.json"), bytes).unwrap();
    }
    let store = ResultsStore::open(&dir).unwrap();
    let served = store.records();
    for record in &served {
        assert_eq!(store.get(record.fingerprint).as_ref(), Some(record));
    }
    let warnings = store.warnings().to_vec();
    fs::remove_dir_all(&dir).unwrap();
    (served, warnings)
}

/// Byte ranges of each line of a segment, newline included.
fn line_spans(segment: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    let mut start = 0;
    for (i, &b) in segment.iter().enumerate() {
        if b == b'\n' {
            spans.push(start..i + 1);
            start = i + 1;
        }
    }
    spans
}

fn sorted(mut records: Vec<ResultRecord>) -> Vec<ResultRecord> {
    records.sort_by_key(|r| r.fingerprint);
    records
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        decode_all(&bytes);
        // Past each trace format's magic, so the body parsers see the
        // bytes too.
        for magic in [&b"BPT1"[..], &b"BPT2"[..]] {
            decode_all(&[magic, &bytes].concat());
        }
    }

    #[test]
    fn store_open_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        counts in (any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        // As a segment, alone and behind a valid line's frame: nothing
        // was put, so nothing may be served.
        let (served, _) = open_store(Some(&bytes), None);
        prop_assert!(served.is_empty(), "{served:?}");
        let framed = [&b"{\"checksum\":\""[..], &bytes].concat();
        let (served, _) = open_store(Some(&framed), None);
        prop_assert!(served.is_empty(), "{served:?}");
        // As the index beside a valid segment: the index is never
        // trusted, so the segment's records are served as put.
        let records = store_records(counts);
        let (segment, _) = store_files(&records);
        let (served, warnings) = open_store(Some(&segment), Some(&bytes));
        prop_assert_eq!(served, sorted(records));
        prop_assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn store_open_skips_only_the_damaged_line(
        counts in (any::<u64>(), any::<u64>(), any::<u64>()),
        at in any::<usize>(),
        value in any::<u8>(),
        cut in any::<usize>(),
    ) {
        let records = store_records(counts);
        let (segment, index) = store_files(&records);
        let spans = line_spans(&segment);
        prop_assert_eq!(spans.len(), records.len());
        prop_assert_eq!(spans.last().map(|s| s.end), Some(segment.len()));

        // One corrupted byte: every line it does not touch is served,
        // and everything served was put.
        let at = at % segment.len();
        let mut corrupted = segment.clone();
        corrupted[at] = value;
        let (served, _) = open_store(Some(&corrupted), None);
        for record in &served {
            prop_assert!(records.contains(record), "served a record never put: {record:?}");
        }
        for (line, span) in spans.iter().enumerate() {
            // A line is touched by a byte inside it, or, through its
            // newline, by the line before it.
            let touched = span.contains(&at) || (line > 0 && at == span.start - 1);
            if !touched || value == segment[at] {
                prop_assert!(served.contains(&records[line]), "line {line} lost");
            }
        }

        // A truncation: every complete line is served, and a torn last
        // line is skipped with one warning.
        let cut = cut % (segment.len() + 1);
        let complete = spans.iter().filter(|s| s.end <= cut).count();
        let (served, warnings) = open_store(Some(&segment[..cut]), None);
        prop_assert_eq!(served, sorted(records[..complete].to_vec()));
        let torn = spans.get(complete).is_some_and(|s| s.start < cut);
        if torn {
            prop_assert_eq!(
                warnings,
                vec![StoreWarning::TornTail { segment: "0.seg".into(), line: complete + 1 }]
            );
        } else {
            prop_assert!(warnings.is_empty(), "{warnings:?}");
        }

        // A corrupted or truncated index changes nothing served.
        let mut bad_index = index.clone();
        let at = at % index.len();
        bad_index[at] = value;
        for index in [&bad_index[..], &index[..cut % (index.len() + 1)]] {
            let (served, warnings) = open_store(Some(&segment), Some(index));
            prop_assert_eq!(served, sorted(records.clone()));
            prop_assert!(warnings.is_empty(), "{warnings:?}");
        }
    }

    #[test]
    fn corrupted_and_truncated_encodings_never_panic(
        records in proptest::collection::vec(arb_record(), 0..40),
        counts in (any::<u64>(), any::<u64>(), any::<u64>()),
        at in any::<usize>(),
        value in any::<u8>(),
        cut in any::<usize>(),
    ) {
        for valid in encodings(&records, counts) {
            decode_all(&valid);
            if valid.is_empty() {
                continue;
            }
            let mut corrupted = valid.clone();
            corrupted[at % valid.len()] = value;
            decode_all(&corrupted);
            decode_all(&valid[..cut % valid.len()]);
        }
    }
}

#[test]
fn valid_encodings_decode_back() {
    let records = [
        BranchRecord::conditional(0x4000, true),
        BranchRecord::unconditional(0x4010),
    ];
    let [binary, text, compact, json] = &encodings(&records, (3, 4, 5))[..] else {
        unreachable!("four encodings")
    };
    assert_eq!(read_binary(&binary[..]).unwrap(), records);
    assert_eq!(read_text(&text[..]).unwrap(), records);
    assert_eq!(read_compact(&compact[..]).unwrap(), records);
    let json = Json::parse(std::str::from_utf8(json).unwrap()).unwrap();
    assert_eq!(ResultRecord::from_json(&json).unwrap().fingerprint, 5);
}

#[test]
fn forged_headers_fail_cleanly() {
    // A BPT1 header claiming u64::MAX records over two bytes of body.
    let mut forged = b"BPT1".to_vec();
    forged.extend(u64::MAX.to_le_bytes());
    forged.extend([0, 1]);
    assert!(read_binary(&forged[..]).is_err());
    // A BPT2 count varint longer than any u64.
    let mut overlong = b"BPT2".to_vec();
    overlong.extend([0xff; 11]);
    assert!(read_compact(&overlong[..]).is_err());
    // A BPT2 header claiming u64::MAX records over one record.
    let mut forged = b"BPT2".to_vec();
    forged.extend([0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
    forged.extend([0x00, 0x04]);
    assert!(read_compact(&forged[..]).is_err());
}

#[test]
fn deeply_nested_json_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"a\":"] {
        let text = open.repeat(1_000_000);
        assert!(Json::parse(&text).is_err(), "{open}");
    }
}

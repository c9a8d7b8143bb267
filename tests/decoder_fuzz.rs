//! Fuzz-style hardening of every decoder a file or store can reach: the
//! BPT1 binary and text trace readers, the BPT2 compact reader and the
//! JSON parser must answer arbitrary bytes — and single-byte corruptions
//! or truncations of valid encodings — with `Ok` or `Err`, never a panic
//! or an abort.

use gskew::results::json::Json;
use gskew::results::record::{CellKey, ResultRecord};
use gskew::trace::io::{read_binary, read_text, write_binary, write_text};
use gskew::trace::io2::{read_compact, write_compact};
use gskew::trace::record::{BranchKind, BranchRecord, Privilege};
use proptest::prelude::*;

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

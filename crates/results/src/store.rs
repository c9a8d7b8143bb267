//! The on-disk results store: append-only, checksummed, byte-budgeted.
//!
//! Layout under the store root (default `.gskew/results/`):
//!
//! ```text
//! segments/<name>.seg   one line per put: {"checksum":"<fnv1a hex>","record":{...}}
//! index.json            derived cache: segment names and where each record lives
//! ```
//!
//! The segments are the only source of truth. A handle creates its own
//! segment on its first [`ResultsStore::put`] — named by time, process
//! id and a per-process counter, so no two handles ever share one — and
//! appends each record to it as one line with a single write. Nothing is
//! buffered until `Drop`: a record is on disk when `put` returns.
//! Concurrent processes therefore never write the same file, and none of
//! them loses a record.
//!
//! [`ResultsStore::open`] lists `segments/` itself and loads every line
//! whose checksum and shape hold into memory, so [`ResultsStore::get`]
//! is a map lookup. When two lines carry one fingerprint, the later one
//! (segment name, then line) wins. A line that fails its checks is
//! skipped (the cell just re-simulates) and reported as a
//! [`StoreWarning`]; a torn last line — a write cut short — is one such
//! warning. `index.json` is never read for anything but a comparison:
//! `open` rewrites it atomically when it no longer describes the
//! segments, and no path it names is ever opened or deleted.
//!
//! [`ResultsStore::gc`] evicts the oldest-inserted records until a byte
//! budget holds and compacts the survivors into one new segment. Running
//! it while another process writes to the same store is unsupported: it
//! deletes the segments it read, and a writer's later lines could land
//! in a segment it has already deleted.
//!
//! A store in the earlier per-record layout (`records/<16-hex>.json`)
//! reads as empty, so its cells re-simulate once; `gc` deletes those
//! files.

use crate::fingerprint::{self, fnv1a};
use crate::json::Json;
use crate::record::ResultRecord;
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// The default store location, relative to the working directory.
pub const DEFAULT_STORE_DIR: &str = ".gskew/results";

/// Directory of segment files, under the store root.
const SEGMENTS_DIR: &str = "segments";
/// Extension of a segment file; anything else in `segments/` is ignored.
const SEGMENT_EXT: &str = "seg";
/// Schema version written into `index.json`.
const INDEX_VERSION: f64 = 2.0;
/// The fixed frame of a segment line around its checksum and payload.
const LINE_HEAD: &str = "{\"checksum\":\"";
const LINE_MID: &str = "\",\"record\":";

/// Segments created by this process so far: the third part of a new
/// segment's name.
static SEGMENTS_CREATED: AtomicU64 = AtomicU64::new(0);

/// One loaded record and where its line lives.
#[derive(Debug, Clone)]
struct Slot {
    record: ResultRecord,
    /// Length of its line, newline included.
    bytes: u64,
    /// Insertion order: smallest is garbage-collected first.
    seq: u64,
    /// Index into [`ResultsStore::segments`].
    segment: usize,
    /// Zero-based line number within that segment.
    line: usize,
}

/// The segment this handle appends to.
#[derive(Debug)]
struct Writer {
    file: File,
    /// Index into [`ResultsStore::segments`].
    segment: usize,
    /// Lines written so far.
    lines: usize,
}

/// A results store rooted at one directory.
#[derive(Debug)]
pub struct ResultsStore {
    root: PathBuf,
    records: HashMap<u64, Slot>,
    next_seq: u64,
    /// Names of the segments this handle read or wrote, in name order
    /// (this handle's own segment last).
    segments: Vec<String>,
    writer: Option<Writer>,
    warnings: Vec<StoreWarning>,
}

/// Something [`ResultsStore::open`] stepped over. The store still opens;
/// an affected record reads as absent and its cell re-simulates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreWarning {
    /// A segment's last line has no newline: its write was cut short.
    TornTail {
        /// Segment file name.
        segment: String,
        /// One-based line number.
        line: usize,
    },
    /// A complete line failed its checksum or shape check.
    BadLine {
        /// Segment file name.
        segment: String,
        /// One-based line number.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// `index.json` is stale and could not be rewritten. The records are
    /// unaffected: the index is only a derived cache.
    IndexNotWritten {
        /// The filesystem error.
        reason: String,
    },
}

impl fmt::Display for StoreWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreWarning::TornTail { segment, line } => {
                write!(f, "{segment}:{line}: torn last line skipped")
            }
            StoreWarning::BadLine {
                segment,
                line,
                reason,
            } => write!(f, "{segment}:{line}: {reason}; line skipped"),
            StoreWarning::IndexNotWritten { reason } => {
                write!(f, "index.json not rewritten: {reason}")
            }
        }
    }
}

/// What one [`ResultsStore::gc`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcStats {
    /// Records deleted.
    pub removed: usize,
    /// Bytes freed.
    pub freed_bytes: u64,
    /// Bytes still resident after the pass.
    pub remaining_bytes: u64,
}

impl ResultsStore {
    /// Open (creating if needed) a store rooted at `root` and load every
    /// valid record of its segments. Lines that fail their checks are
    /// skipped and listed in [`Self::warnings`].
    ///
    /// # Errors
    ///
    /// Returns a message when the root cannot be created or a segment
    /// cannot be listed or read.
    pub fn open(root: impl Into<PathBuf>) -> Result<ResultsStore, String> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        let mut store = ResultsStore {
            root,
            records: HashMap::new(),
            next_seq: 0,
            segments: Vec::new(),
            writer: None,
            warnings: Vec::new(),
        };
        for name in store.list_segments()? {
            store.load_segment(name)?;
        }
        if let Err(reason) = store.refresh_index() {
            store
                .warnings
                .push(StoreWarning::IndexNotWritten { reason });
        }
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total bytes of the lines of every record held.
    pub fn total_bytes(&self) -> u64 {
        self.records.values().map(|s| s.bytes).sum()
    }

    /// Every held fingerprint, in unspecified order.
    pub fn fingerprints(&self) -> Vec<u64> {
        self.records.keys().copied().collect()
    }

    /// Whether a record with this fingerprint is held.
    pub fn contains(&self, fp: u64) -> bool {
        self.records.contains_key(&fp)
    }

    /// What [`Self::open`] stepped over, in the order it met them.
    pub fn warnings(&self) -> &[StoreWarning] {
        &self.warnings
    }

    fn segments_dir(&self) -> PathBuf {
        self.root.join(SEGMENTS_DIR)
    }

    fn index_path(&self) -> PathBuf {
        self.root.join("index.json")
    }

    /// Insert (or overwrite) a record, addressed by its fingerprint: one
    /// line appended to this handle's segment, created on first use.
    ///
    /// # Errors
    ///
    /// Returns a message on filesystem errors. A failed append retires
    /// the segment, so a partial line can only ever be its last one.
    pub fn put(&mut self, record: &ResultRecord) -> Result<(), String> {
        let line = encode_line(record);
        let mut writer = match self.writer.take() {
            Some(writer) => writer,
            None => {
                let (file, name) = create_segment(&self.segments_dir())?;
                self.segments.push(name);
                Writer {
                    file,
                    segment: self.segments.len() - 1,
                    lines: 0,
                }
            }
        };
        if let Err(e) = writer.file.write_all(line.as_bytes()) {
            let path = self.segments_dir().join(&self.segments[writer.segment]);
            return Err(format!("append {}: {e}", path.display()));
        }
        self.insert(
            record.clone(),
            line.len() as u64,
            writer.segment,
            writer.lines,
        );
        writer.lines += 1;
        self.writer = Some(writer);
        Ok(())
    }

    /// The record with this fingerprint, or `None` when no valid line
    /// holds it — a corrupt record is indistinguishable from a missing
    /// one, so the caller simply re-simulates.
    pub fn get(&self, fp: u64) -> Option<ResultRecord> {
        self.records.get(&fp).map(|slot| slot.record.clone())
    }

    /// Every record held, by ascending fingerprint.
    pub fn records(&self) -> Vec<ResultRecord> {
        let mut records: Vec<ResultRecord> =
            self.records.values().map(|s| s.record.clone()).collect();
        records.sort_unstable_by_key(|r| r.fingerprint);
        records
    }

    /// Delete oldest-inserted records until at most `budget_bytes` of
    /// lines remain, compact the survivors into one new segment, delete
    /// the segments this handle read or wrote and any `records/<16-hex>.json`
    /// file of the earlier per-record layout, then rewrite the index.
    /// Every path it deletes comes from listing the store's own
    /// directories. Unsupported while another process writes to the
    /// store.
    ///
    /// # Errors
    ///
    /// Returns a message on filesystem errors (deletion of an
    /// already-missing file is not an error).
    pub fn gc(&mut self, budget_bytes: u64) -> Result<GcStats, String> {
        let mut order: Vec<(u64, u64)> = self.records.iter().map(|(&fp, s)| (s.seq, fp)).collect();
        order.sort_unstable();
        let mut stats = GcStats::default();
        let mut resident = self.total_bytes();
        let mut evicted = 0;
        for &(_, fp) in &order {
            if resident <= budget_bytes {
                break;
            }
            if let Some(slot) = self.records.remove(&fp) {
                resident -= slot.bytes;
                stats.removed += 1;
                stats.freed_bytes += slot.bytes;
            }
            evicted += 1;
        }
        stats.remaining_bytes = resident;

        let survivors = &order[evicted..];
        let mut text = String::new();
        for &(_, fp) in survivors {
            if let Some(slot) = self.records.get(&fp) {
                text.push_str(&encode_line(&slot.record));
            }
        }
        let mut compacted = Vec::new();
        if !survivors.is_empty() {
            let dir = self.segments_dir();
            fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            let name = segment_name();
            write_atomic(&dir.join(&name), text.as_bytes())?;
            compacted.push(name);
        }
        self.writer = None;
        let old = std::mem::replace(&mut self.segments, compacted);
        for name in &old {
            remove_if_present(&self.segments_dir().join(name))?;
        }
        self.remove_legacy_records()?;
        for (line, &(_, fp)) in survivors.iter().enumerate() {
            if let Some(slot) = self.records.get_mut(&fp) {
                slot.segment = 0;
                slot.line = line;
            }
        }
        self.refresh_index()?;
        Ok(stats)
    }

    fn insert(&mut self, record: ResultRecord, bytes: u64, segment: usize, line: usize) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.records.insert(
            record.fingerprint,
            Slot {
                record,
                bytes,
                seq,
                segment,
                line,
            },
        );
    }

    /// Names of the segment files under `segments/`, in name order.
    fn list_segments(&self) -> Result<Vec<String>, String> {
        let dir = self.segments_dir();
        let entries = match fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(format!("list {}: {e}", dir.display())),
        };
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| format!("list {}: {e}", dir.display()))?;
            let path = entry.path();
            if path.extension().is_some_and(|x| x == SEGMENT_EXT) {
                if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                    names.push(name.to_string());
                }
            }
        }
        names.sort_unstable();
        Ok(names)
    }

    /// Load one segment line by line (never holding its whole text).
    fn load_segment(&mut self, name: String) -> Result<(), String> {
        let path = self.segments_dir().join(&name);
        let file = match File::open(&path) {
            Ok(file) => file,
            // Deleted since it was listed: nothing to load.
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(format!("read {}: {e}", path.display())),
        };
        let segment = self.segments.len();
        self.segments.push(name.clone());
        let mut reader = BufReader::new(file);
        let mut buf = Vec::new();
        for line in 0.. {
            buf.clear();
            let read = reader
                .read_until(b'\n', &mut buf)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            if read == 0 {
                break;
            }
            let Some(body) = buf.strip_suffix(b"\n") else {
                self.warnings.push(StoreWarning::TornTail {
                    segment: name,
                    line: line + 1,
                });
                break;
            };
            match decode_line(body) {
                Ok(record) => self.insert(record, buf.len() as u64, segment, line),
                Err(reason) => self.warnings.push(StoreWarning::BadLine {
                    segment: name.clone(),
                    line: line + 1,
                    reason,
                }),
            }
        }
        Ok(())
    }

    /// The index this store's state derives: its segments and, in
    /// insertion order, where each record's line lives.
    fn index_text(&self) -> String {
        let mut slots: Vec<(&u64, &Slot)> = self.records.iter().collect();
        slots.sort_unstable_by_key(|(_, s)| s.seq);
        Json::obj(vec![
            ("version", Json::Num(INDEX_VERSION)),
            (
                "segments",
                Json::Arr(self.segments.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "entries",
                Json::Arr(
                    slots
                        .into_iter()
                        .map(|(fp, s)| {
                            Json::obj(vec![
                                ("fingerprint", Json::Str(fingerprint::to_hex(*fp))),
                                ("segment", Json::Num(s.segment as f64)),
                                ("line", Json::Num(s.line as f64)),
                                ("bytes", Json::Num(s.bytes as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_string_compact()
    }

    /// Rewrite `index.json` unless it already holds [`Self::index_text`].
    fn refresh_index(&self) -> Result<(), String> {
        let path = self.index_path();
        let text = self.index_text();
        if fs::read(&path).is_ok_and(|current| current == text.as_bytes()) {
            return Ok(());
        }
        write_atomic(&path, text.as_bytes())
    }

    /// Delete `records/<16-hex>.json` files of the earlier per-record
    /// layout (nothing else), then the directory if that empties it.
    fn remove_legacy_records(&self) -> Result<(), String> {
        let dir = self.root.join("records");
        let entries = match fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(format!("list {}: {e}", dir.display())),
        };
        for entry in entries {
            let entry = entry.map_err(|e| format!("list {}: {e}", dir.display()))?;
            let name = entry.file_name();
            let is_legacy = name
                .to_str()
                .and_then(|n| n.strip_suffix(".json"))
                .is_some_and(|hex| {
                    hex.len() == 16 && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
                });
            if is_legacy {
                remove_if_present(&entry.path())?;
            }
        }
        // Still holds something that is not ours: leave it.
        let _ = fs::remove_dir(&dir);
        Ok(())
    }
}

/// One segment line: the record's compact JSON framed with its FNV-1a
/// checksum, newline-terminated.
fn encode_line(record: &ResultRecord) -> String {
    let payload = record.to_json().to_string_compact();
    let checksum = fingerprint::to_hex(fnv1a(payload.as_bytes()));
    format!("{LINE_HEAD}{checksum}{LINE_MID}{payload}}}\n")
}

/// Check one line's frame and checksum and parse its record.
fn decode_line(line: &[u8]) -> Result<ResultRecord, String> {
    let shape = || "not a checksummed record line".to_string();
    let rest = line.strip_prefix(LINE_HEAD.as_bytes()).ok_or_else(shape)?;
    let (checksum, rest) = rest.split_at_checked(16).ok_or_else(shape)?;
    let payload = rest
        .strip_prefix(LINE_MID.as_bytes())
        .and_then(|r| r.strip_suffix(b"}"))
        .ok_or_else(shape)?;
    let checksum = std::str::from_utf8(checksum)
        .ok()
        .and_then(fingerprint::from_hex)
        .ok_or_else(shape)?;
    if fnv1a(payload) != checksum {
        return Err("checksum mismatch".to_string());
    }
    let payload = std::str::from_utf8(payload).map_err(|e| format!("record: {e}"))?;
    let json = Json::parse(payload).map_err(|e| format!("record: {e}"))?;
    ResultRecord::from_json(&json)
}

/// A fresh segment name: creation time, process id and a per-process
/// counter, so names sort by creation and never repeat.
fn segment_name() -> String {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let count = SEGMENTS_CREATED.fetch_add(1, Ordering::Relaxed);
    format!(
        "{nanos:020}-{:010}-{count:06}.{SEGMENT_EXT}",
        std::process::id()
    )
}

/// Create a new, empty segment for appending, and return it with its
/// name.
fn create_segment(dir: &Path) -> Result<(File, String), String> {
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let name = segment_name();
    let path = dir.join(&name);
    let file = OpenOptions::new()
        .append(true)
        .create_new(true)
        .open(&path)
        .map_err(|e| format!("create {}: {e}", path.display()))?;
    Ok((file, name))
}

fn remove_if_present(path: &Path) -> Result<(), String> {
    match fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {}: {e}", path.display())),
    }
}

/// Write `contents` to `path` atomically: a tmp file in the same
/// directory, flushed, then renamed over the destination.
///
/// # Errors
///
/// Returns a message on filesystem errors.
pub fn write_atomic(path: &Path, contents: &[u8]) -> Result<(), String> {
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    fs::write(&tmp, contents).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CellKey;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bpred-results-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record(spec: &str, mispredicted: u64) -> ResultRecord {
        let key = CellKey {
            bench: "groff".into(),
            spec: spec.into(),
            len: 1_000,
            seed: 0x5EED_0000,
            policy: "count".into(),
        };
        let fingerprint = key.fingerprint("wl", "1");
        ResultRecord {
            experiment: "test".into(),
            key,
            fingerprint,
            engine_version: "1".into(),
            conditional: 1_000,
            mispredicted,
            novel: 0,
            elapsed_ms: 1.0,
        }
    }

    /// Paths of every segment file, in name order.
    fn segment_files(root: &Path) -> Vec<PathBuf> {
        let mut paths: Vec<PathBuf> = fs::read_dir(root.join(SEGMENTS_DIR))
            .map(|entries| entries.filter_map(|e| e.ok()).map(|e| e.path()).collect())
            .unwrap_or_default();
        paths.sort();
        paths
    }

    #[test]
    fn put_get_roundtrip_and_reopen() {
        let root = temp_root("roundtrip");
        let mut store = ResultsStore::open(&root).unwrap();
        let r = record("gshare:n=10,h=4", 123);
        store.put(&r).unwrap();
        assert_eq!(store.get(r.fingerprint), Some(r.clone()));
        assert_eq!(store.len(), 1);
        assert!(store.total_bytes() > 0);

        // A fresh handle sees the persisted state.
        let reopened = ResultsStore::open(&root).unwrap();
        assert_eq!(reopened.get(r.fingerprint), Some(r.clone()));
        assert!(reopened.contains(r.fingerprint));
        assert_eq!(reopened.records(), vec![r]);
        assert_eq!(reopened.total_bytes(), store.total_bytes());
        assert!(reopened.warnings().is_empty());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn line_frames_the_payload_exactly_as_a_json_object() {
        let r = record("gskew:n=12,h=4 \"quoted\"", 7);
        let payload = r.to_json().to_string_compact();
        let framed = Json::obj(vec![
            (
                "checksum",
                Json::Str(fingerprint::to_hex(fnv1a(payload.as_bytes()))),
            ),
            ("record", Json::parse(&payload).unwrap()),
        ])
        .to_string_compact();
        assert_eq!(encode_line(&r), format!("{framed}\n"));
        assert_eq!(decode_line(framed.as_bytes()), Ok(r));
    }

    #[test]
    fn a_handle_that_writes_nothing_creates_no_segment() {
        let root = temp_root("readonly");
        let store = ResultsStore::open(&root).unwrap();
        drop(store);
        assert!(segment_files(&root).is_empty());
        assert!(
            root.join("index.json").exists(),
            "the derived index is written"
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_record_fails_checksum_and_reads_as_absent() {
        let root = temp_root("corrupt");
        let mut store = ResultsStore::open(&root).unwrap();
        let r = record("gshare:n=10,h=4", 123);
        store.put(&r).unwrap();
        let [path] = &segment_files(&root)[..] else {
            panic!("one segment")
        };
        let tampered = fs::read_to_string(path).unwrap().replace("123", "124");
        fs::write(path, tampered).unwrap();
        let reopened = ResultsStore::open(&root).unwrap();
        assert_eq!(reopened.get(r.fingerprint), None);
        assert!(reopened.records().is_empty(), "corrupt records are skipped");
        match reopened.warnings() {
            [StoreWarning::BadLine {
                line: 1, reason, ..
            }] => {
                assert!(reason.contains("checksum"), "{reason}")
            }
            other => panic!("{other:?}"),
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_last_line_skips_that_line_only() {
        let root = temp_root("torn");
        let mut store = ResultsStore::open(&root).unwrap();
        let a = record("gshare:n=10,h=4", 1);
        let b = record("gshare:n=11,h=4", 2);
        store.put(&a).unwrap();
        store.put(&b).unwrap();
        let [path] = &segment_files(&root)[..] else {
            panic!("one segment")
        };
        let bytes = fs::read(path).unwrap();
        fs::write(path, &bytes[..bytes.len() - 5]).unwrap();
        let reopened = ResultsStore::open(&root).unwrap();
        assert_eq!(reopened.records(), vec![a]);
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        assert_eq!(
            reopened.warnings(),
            [StoreWarning::TornTail {
                segment: name,
                line: 2
            }]
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn misfiled_record_is_rejected() {
        // The index is a derived cache: an index.json that files one
        // record's line under another's fingerprint, or names a file
        // outside the store, changes nothing that is served.
        let root = temp_root("misfiled");
        let mut store = ResultsStore::open(&root).unwrap();
        let a = record("gshare:n=10,h=4", 1);
        let b = record("gshare:n=11,h=4", 2);
        store.put(&a).unwrap();
        store.put(&b).unwrap();
        let forged = format!(
            "{{\"version\":2,\"segments\":[\"../../elsewhere.seg\"],\"entries\":[\
             {{\"fingerprint\":\"{}\",\"segment\":0,\"line\":1,\"bytes\":1}}]}}",
            fingerprint::to_hex(a.fingerprint)
        );
        fs::write(root.join("index.json"), &forged).unwrap();
        let reopened = ResultsStore::open(&root).unwrap();
        assert_eq!(reopened.get(a.fingerprint), Some(a));
        assert_eq!(reopened.get(b.fingerprint), Some(b));
        let rewritten = fs::read_to_string(root.join("index.json")).unwrap();
        assert_eq!(
            rewritten,
            reopened.index_text(),
            "open rewrites a stale index"
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn gc_enforces_budget_oldest_first() {
        let root = temp_root("gc");
        let mut store = ResultsStore::open(&root).unwrap();
        let first = record("gshare:n=8,h=4", 1);
        let second = record("gshare:n=9,h=4", 2);
        let third = record("gshare:n=10,h=4", 3);
        for r in [&first, &second, &third] {
            store.put(r).unwrap();
        }
        let written = segment_files(&root);
        // A budget one byte short of the total must evict exactly the
        // oldest record.
        let budget = store.total_bytes() - 1;
        let stats = store.gc(budget).unwrap();
        assert_eq!(stats.removed, 1);
        assert!(stats.freed_bytes > 0);
        assert!(store.total_bytes() <= budget);
        assert_eq!(store.get(first.fingerprint), None, "oldest evicted");
        assert!(store.get(second.fingerprint).is_some());
        assert!(store.get(third.fingerprint).is_some());
        // The survivors were compacted into one new segment.
        let compacted = segment_files(&root);
        assert_eq!(compacted.len(), 1);
        assert!(!written.contains(&compacted[0]));
        let reopened = ResultsStore::open(&root).unwrap();
        assert_eq!(reopened.records(), store.records());
        assert_eq!(reopened.total_bytes(), store.total_bytes());

        // A put after gc opens a new segment; the compacted records
        // stay oldest.
        let fourth = record("gshare:n=11,h=4", 4);
        store.put(&fourth).unwrap();
        let stats = store.gc(store.total_bytes() - 1).unwrap();
        assert_eq!(stats.removed, 1);
        assert_eq!(store.get(second.fingerprint), None);

        // A zero budget clears everything; gc on an empty store is a no-op.
        let stats = store.gc(0).unwrap();
        assert_eq!(stats.removed, 2);
        assert_eq!(stats.remaining_bytes, 0);
        assert!(store.is_empty());
        assert!(segment_files(&root).is_empty());
        assert_eq!(store.gc(0).unwrap(), GcStats::default());
        assert!(ResultsStore::open(&root).unwrap().is_empty());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn gc_deletes_legacy_record_files_by_exact_name_only() {
        let root = temp_root("legacy");
        let records = root.join("records");
        fs::create_dir_all(&records).unwrap();
        let legacy = records.join("00000000deadbeef.json");
        let kept = ["notes.json", "00000000DEADBEEF.json", "0123.json"].map(|n| records.join(n));
        fs::write(&legacy, "{}").unwrap();
        for path in &kept {
            fs::write(path, "{}").unwrap();
        }
        let mut store = ResultsStore::open(&root).unwrap();
        assert!(store.is_empty(), "the old layout reads as empty");
        store.gc(0).unwrap();
        assert!(!legacy.exists());
        for path in &kept {
            assert!(path.exists(), "{}", path.display());
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn overwrite_same_fingerprint_keeps_one_entry() {
        let root = temp_root("overwrite");
        let mut store = ResultsStore::open(&root).unwrap();
        let r = record("gshare:n=10,h=4", 123);
        store.put(&r).unwrap();
        store.put(&r).unwrap();
        assert_eq!(store.len(), 1);
        // Across handles, the later line wins.
        let mut newer = ResultsStore::open(&root).unwrap();
        let mut changed = r.clone();
        changed.experiment = "rerun".into();
        newer.put(&changed).unwrap();
        let reopened = ResultsStore::open(&root).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.get(r.fingerprint), Some(changed));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn no_tmp_files_survive_writes() {
        let root = temp_root("tmp");
        let mut store = ResultsStore::open(&root).unwrap();
        store.put(&record("gshare:n=10,h=4", 9)).unwrap();
        store.put(&record("gshare:n=11,h=4", 9)).unwrap();
        store.gc(u64::MAX).unwrap();
        let stray: Vec<_> = fs::read_dir(root.join(SEGMENTS_DIR))
            .unwrap()
            .chain(fs::read_dir(&root).unwrap())
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.path()
                    .extension()
                    .map(|x| x.to_string_lossy().starts_with("tmp"))
                    .unwrap_or(false)
            })
            .collect();
        assert!(stray.is_empty(), "{stray:?}");
        fs::remove_dir_all(&root).unwrap();
    }
}

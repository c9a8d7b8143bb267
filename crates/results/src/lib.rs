//! # bpred-results — persistent experiment results
//!
//! The paper is a grid of sweeps whose value lies in comparing cells
//! across configurations; this crate makes those cells durable,
//! comparable artifacts instead of stdout that evaporates:
//!
//! * [`json`] — a small in-tree JSON value, serializer and strict
//!   recursive-descent parser (the workspace is offline; no serde).
//! * [`fingerprint`] — stable FNV-1a fingerprints keying the store.
//! * [`record`] — the canonical [`record::ResultRecord`] schema: cell
//!   key (benchmark, spec, length, seed, policy), fingerprint, engine
//!   version, misprediction counts and wall-clock time.
//! * [`store`] — the on-disk store: append-only segment files, one
//!   checksummed line per record, validated and loaded into memory on
//!   open, and a byte-budgeted, compacting [`store::ResultsStore::gc`].
//! * [`campaign`] — campaign artifacts (every table cell of a named
//!   experiment set) and tolerance-based regression [`campaign::diff`].
//!
//! `bpred-sim`'s experiment helpers consult a configured store before
//! simulating a cell and skip fingerprint-identical hits, which makes
//! whole experiment reruns incremental across processes.
//!
//! ```
//! use bpred_results::record::{CellKey, ResultRecord};
//! use bpred_results::store::ResultsStore;
//!
//! let dir = std::env::temp_dir().join(format!("results-doc-{}", std::process::id()));
//! let mut store = ResultsStore::open(&dir)?;
//! let key = CellKey {
//!     bench: "groff".into(),
//!     spec: "gskew:n=12,h=4".into(),
//!     len: 1000,
//!     seed: 0x5EED_0000,
//!     policy: "count".into(),
//! };
//! let fingerprint = key.fingerprint("workload-params", "1");
//! store.put(&ResultRecord {
//!     experiment: "doc".into(),
//!     key,
//!     fingerprint,
//!     engine_version: "1".into(),
//!     conditional: 1000,
//!     mispredicted: 55,
//!     novel: 0,
//!     elapsed_ms: 0.4,
//! })?;
//! assert_eq!(store.get(fingerprint).unwrap().mispredicted, 55);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod fingerprint;
pub mod json;
pub mod record;
pub mod store;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::campaign::{diff, CampaignArtifact, CampaignDiff, ExperimentData, TableData};
    pub use crate::json::Json;
    pub use crate::record::{CellKey, ResultRecord};
    pub use crate::store::{GcStats, ResultsStore, StoreWarning, DEFAULT_STORE_DIR};
}

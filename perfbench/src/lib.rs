//! End-to-end and per-layer benchmark of the gskew reproduction.
//!
//! Three workloads — `campaign quick --resume` cold and warm, and
//! `experiment all --quick` — are driven in one process through
//! `bpred_cli::dispatch`, the entry point a user's command reaches. A
//! traced run replays the same work through the library calls, with a
//! span around each, and then times every layer by direct calls. See
//! `README.md` for the metric map.

pub mod checks;
mod heap;
mod layers;
pub mod report;
mod spans;
pub mod sys;
pub mod workload;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

//! In-memory spans recorded around calls into each layer, with the
//! engine, trace-cache and results-store counters read at every
//! boundary. Spans are kept in memory and written out once, at the end
//! of the traced run.

use bpred_results::json::Json;
use bpred_sim::{resume, timing};
use bpred_trace::cache as trace_cache;
use std::time::Instant;

/// The process-global counters the layers keep, read at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Trace-cache hits.
    pub cache_hits: u64,
    /// Trace-cache misses (traces generated).
    pub cache_misses: u64,
    /// Record applications on the kernel path.
    pub kernel_apps: u64,
    /// Summed worker nanoseconds on the kernel path.
    pub kernel_nanos: u64,
    /// Record applications on the dyn path.
    pub dyn_apps: u64,
    /// Summed worker nanoseconds on the dyn path.
    pub dyn_nanos: u64,
    /// Cells served from the results store.
    pub skipped: u64,
    /// Cells simulated while a store was attached.
    pub simulated: u64,
    /// Records written to the store.
    pub saved: u64,
}

impl Counters {
    /// Read every counter now.
    pub fn now() -> Counters {
        let cache = trace_cache::stats();
        let engine = timing::stats();
        let store = resume::stats();
        Counters {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            kernel_apps: engine.kernel_applications,
            kernel_nanos: engine.kernel_nanos,
            dyn_apps: engine.dyn_applications,
            dyn_nanos: engine.dyn_nanos,
            skipped: store.cells_skipped,
            simulated: store.cells_simulated,
            saved: store.records_saved,
        }
    }

    /// `self - earlier`, field by field. Counters that were reset in
    /// between (`timing::reset`) read as their new value.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let d = |now: u64, then: u64| now.checked_sub(then).unwrap_or(now);
        Counters {
            cache_hits: d(self.cache_hits, earlier.cache_hits),
            cache_misses: d(self.cache_misses, earlier.cache_misses),
            kernel_apps: d(self.kernel_apps, earlier.kernel_apps),
            kernel_nanos: d(self.kernel_nanos, earlier.kernel_nanos),
            dyn_apps: d(self.dyn_apps, earlier.dyn_apps),
            dyn_nanos: d(self.dyn_nanos, earlier.dyn_nanos),
            skipped: d(self.skipped, earlier.skipped),
            simulated: d(self.simulated, earlier.simulated),
            saved: d(self.saved, earlier.saved),
        }
    }

    fn to_json(self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        Json::obj(vec![
            ("cache_hits", n(self.cache_hits)),
            ("cache_misses", n(self.cache_misses)),
            ("kernel_apps", n(self.kernel_apps)),
            ("kernel_nanos", n(self.kernel_nanos)),
            ("dyn_apps", n(self.dyn_apps)),
            ("dyn_nanos", n(self.dyn_nanos)),
            ("skipped", n(self.skipped)),
            ("simulated", n(self.simulated)),
            ("saved", n(self.saved)),
        ])
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`exp.fig5`, `results.store.open`, …).
    pub name: String,
    /// Seconds from the tracer's origin to entry.
    pub start_s: f64,
    /// Seconds from the tracer's origin to exit.
    pub end_s: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Counter movement between entry and exit.
    pub delta: Counters,
    entry: Counters,
}

impl Span {
    /// Wall seconds between entry and exit.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// A span recorder: `enter`/`exit` pairs nest, `leaf` times one call.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Open a span inside the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: 0.0,
            parent: self.open.last().copied(),
            delta: Counters::default(),
            entry: Counters::now(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_s = self.origin.elapsed().as_secs_f64();
        span.delta = Counters::now().since(&span.entry);
    }

    /// Time one call as a span of its own.
    pub fn leaf<R>(&mut self, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
        self.leaf_s(name, f).0
    }

    /// [`leaf`](Self::leaf), also returning the span's wall seconds.
    pub fn leaf_s<R>(&mut self, name: impl Into<String>, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.enter(name);
        let result = f();
        self.exit(id);
        (result, self.spans[id].duration_s())
    }

    /// Every recorded span, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of span `id` covered by its direct children.
    pub fn child_s(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_s)
            .sum()
    }

    /// A span's own time: its duration minus what its children cover.
    pub fn self_s(&self, id: usize) -> f64 {
        self.spans[id].duration_s() - self.child_s(id)
    }

    /// Every span as JSON, with its self time.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj(vec![
                        ("name", Json::Str(s.name.clone())),
                        ("start_s", Json::Num(s.start_s)),
                        ("end_s", Json::Num(s.end_s)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("self_s", Json::Num(self.self_s(id))),
                        ("counters", s.delta.to_json()),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::default();
        let root = tracer.enter("root");
        tracer.leaf("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tracer.exit(root);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert!(tracer.child_s(root) >= 0.005);
        let self_s = tracer.self_s(root);
        assert!(self_s >= 0.0 && self_s < spans[root].duration_s());
    }
}

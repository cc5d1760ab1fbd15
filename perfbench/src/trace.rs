//! Spans recorded from outside the program.
//!
//! The benchmark wraps a span around each call it makes into a crate's
//! public functions, keeps the spans in memory and writes them out when
//! the run ends. A span has a name (`<layer>.<what>`), a start, an end, a
//! parent, an optional request id (serve spans) and counters recorded at
//! the same boundary. With tracing off, opening and closing a span is one
//! branch each.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use gsim_json::{obj, Json};

/// Handle of an open or finished span; [`SpanId::NONE`] when tracing is
/// off or the span has no parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    pub const NONE: SpanId = SpanId(usize::MAX);
}

struct Span {
    name: String,
    start: Instant,
    end: Option<Instant>,
    parent: Option<usize>,
    request: Option<u64>,
    counters: Vec<(&'static str, f64)>,
}

/// A finished span as the metric code reads it.
pub struct SpanView {
    pub name: String,
    pub secs: f64,
    pub request: Option<u64>,
    pub counters: Vec<(&'static str, f64)>,
}

impl SpanView {
    /// The counter `name`, or 0 when the span did not record it.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Busy and self time of one layer, summed over its spans.
pub struct LayerTime {
    pub spans: usize,
    pub total_s: f64,
    pub self_s: f64,
}

pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on: AtomicBool::new(on),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Pauses or resumes recording; spans already open still close.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Opens a span starting now.
    pub fn open(&self, name: &str, parent: SpanId, request: Option<u64>) -> SpanId {
        if !self.on() {
            return SpanId::NONE;
        }
        self.push(name, Instant::now(), None, parent, request, Vec::new())
    }

    /// Ends a span now, attaching its counters.
    pub fn close(&self, id: SpanId, counters: &[(&'static str, f64)]) {
        if id == SpanId::NONE {
            return;
        }
        let mut spans = self.spans.lock().expect("span list poisoned");
        let span = &mut spans[id.0];
        span.end = Some(Instant::now());
        span.counters.extend_from_slice(counters);
    }

    /// Records a finished span with explicit times (used where the
    /// parent lives on another thread and is joined by request id).
    pub fn record(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        request: Option<u64>,
        counters: Vec<(&'static str, f64)>,
    ) {
        if self.on() {
            self.push(name, start, Some(end), SpanId::NONE, request, counters);
        }
    }

    fn push(
        &self,
        name: &str,
        start: Instant,
        end: Option<Instant>,
        parent: SpanId,
        request: Option<u64>,
        counters: Vec<(&'static str, f64)>,
    ) -> SpanId {
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent: (parent != SpanId::NONE).then_some(parent.0),
            request,
            counters,
        });
        SpanId(spans.len() - 1)
    }

    /// Gives every parentless span carrying a request id the span named
    /// `parent_name` with the same id as its parent.
    pub fn link_requests(&self, parent_name: &str) {
        let mut spans = self.spans.lock().expect("span list poisoned");
        let by_request: BTreeMap<u64, usize> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == parent_name)
            .filter_map(|(i, s)| s.request.map(|r| (r, i)))
            .collect();
        for span in spans.iter_mut() {
            if span.parent.is_none() && span.name != parent_name {
                if let Some(r) = span.request {
                    span.parent = by_request.get(&r).copied();
                }
            }
        }
    }

    /// Every finished span, in recording order.
    pub fn finished(&self) -> Vec<SpanView> {
        let spans = self.spans.lock().expect("span list poisoned");
        spans
            .iter()
            .filter_map(|s| {
                s.end.map(|end| SpanView {
                    name: s.name.clone(),
                    secs: end.duration_since(s.start).as_secs_f64(),
                    request: s.request,
                    counters: s.counters.clone(),
                })
            })
            .collect()
    }

    /// Busy and self time per layer (the name up to its first `.`). A
    /// span's self time is its duration minus the part of it that the
    /// union of its children's intervals covers.
    pub fn layer_times(&self) -> BTreeMap<String, LayerTime> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut layers: BTreeMap<String, LayerTime> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let Some(end) = s.end else { continue };
            let mut covered: Vec<(Instant, Instant)> = children[i]
                .iter()
                .filter_map(|&c| {
                    let child = &spans[c];
                    let (lo, hi) = (child.start.max(s.start), child.end?.min(end));
                    (lo < hi).then_some((lo, hi))
                })
                .collect();
            covered.sort();
            let mut covered_s = 0.0;
            let mut reach: Option<Instant> = None;
            for (lo, hi) in covered {
                let lo = reach.map_or(lo, |r| lo.max(r));
                if hi > lo {
                    covered_s += hi.duration_since(lo).as_secs_f64();
                }
                reach = Some(reach.map_or(hi, |r| r.max(hi)));
            }
            let total = end.duration_since(s.start).as_secs_f64();
            let layer = s.name.split('.').next().unwrap_or(&s.name).to_string();
            let entry = layers.entry(layer).or_insert(LayerTime {
                spans: 0,
                total_s: 0.0,
                self_s: 0.0,
            });
            entry.spans += 1;
            entry.total_s += total;
            entry.self_s += (total - covered_s).max(0.0);
        }
        layers
    }

    /// The spans plus the per-layer table as one JSON document.
    pub fn to_json(&self) -> Json {
        let table = self.layer_times();
        let spans = self.spans.lock().expect("span list poisoned");
        let micros = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        let span_json: Vec<Json> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                obj([
                    ("id", Json::from(i)),
                    ("name", Json::from(s.name.as_str())),
                    ("start_us", Json::from(micros(s.start))),
                    (
                        "end_us",
                        s.end.map_or(Json::Null, |e| Json::from(micros(e))),
                    ),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("request", s.request.map_or(Json::Null, Json::from)),
                    (
                        "counters",
                        Json::Obj(
                            s.counters
                                .iter()
                                .map(|(k, v)| (k.to_string(), Json::from(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let layer_json: Vec<Json> = table
            .iter()
            .map(|(layer, t)| {
                obj([
                    ("layer", Json::from(layer.as_str())),
                    ("spans", Json::from(t.spans)),
                    ("total_s", Json::from(t.total_s)),
                    ("self_s", Json::from(t.self_s)),
                ])
            })
            .collect();
        obj([
            ("schema", Json::from("perfbench-trace-v1")),
            ("layers", Json::Arr(layer_json)),
            ("spans", Json::Arr(span_json)),
        ])
    }

    /// Writes the spans and the layer table to
    /// `perfbench/out/trace-<workload>-seed<seed>.json`.
    pub fn write(&self, workload: &str, seed: u64) -> Result<(), String> {
        let dir = std::path::Path::new(crate::OUT_DIR);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
        std::fs::write(&path, self.to_json().render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
        Ok(())
    }
}

//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with a parent and a job id, opened and
//! closed by the benchmark around its calls into each layer. Spans stay in
//! memory until the run ends; then [`Spans::write`] saves them as JSON. A
//! recorder built disabled records nothing, so the same pipeline can be
//! timed with and without spans.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use qre_json::{ObjectBuilder, Value};

/// Handle of an open span (`None` when recording is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The parent of a root span.
    pub const NONE: SpanId = SpanId(None);
}

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    job: u64,
}

pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId, job: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: parent.0,
            job,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end = self.origin.elapsed();
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, job);
        let out = f();
        self.close(id);
        out
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Self time per span name: each span's duration minus the part of its
    /// interval that its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut intervals: Vec<(Duration, Duration)> = children[i]
                .iter()
                .map(|&c| (self.spans[c].start, self.spans[c].end))
                .collect();
            intervals.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            *out.entry(s.name).or_insert(Duration::ZERO) +=
                (s.end - s.start).saturating_sub(covered);
        }
        out
    }

    /// Save every span as JSON: `{"spans": [{"name", "startNs", "endNs",
    /// "parent", "job"}, ...], "selfNs": {name: ns}}`.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                ObjectBuilder::new()
                    .field("name", s.name)
                    .field("startNs", s.start.as_nanos() as u64)
                    .field("endNs", s.end.as_nanos() as u64)
                    .field(
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                    )
                    .field("job", s.job)
                    .build()
            })
            .collect();
        let mut self_ns = ObjectBuilder::new();
        for (name, d) in self.self_times() {
            self_ns = self_ns.field(name, d.as_nanos() as u64);
        }
        let doc = ObjectBuilder::new()
            .field("spans", Value::Array(spans))
            .field("selfNs", self_ns.build())
            .build();
        std::fs::write(path, doc.to_string_compact())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

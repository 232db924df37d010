//! In-memory spans for the traced run. Each span has a name, a start, an
//! end and the span that was open when it began; a span's self time is
//! its duration minus the time its children cover.

use std::time::Instant;

use oversub::metrics::json::{obj, JsonValue};

/// One closed span, in nanoseconds since the recorder started.
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder: spans are kept in memory and written out once, when
/// the benchmark ends.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Record `f` as a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn durations_s<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).sum()
    }

    /// Median duration of the spans named `name`, in seconds.
    pub fn median_s(&self, name: &str) -> f64 {
        crate::median(&self.durations_s(name).collect::<Vec<_>>())
    }

    /// Self time of span `id`: its duration minus its children's.
    fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns().saturating_sub(children)
    }

    pub fn to_json(&self) -> JsonValue {
        JsonValue::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    obj(vec![
                        ("id", JsonValue::UInt(id as u128)),
                        ("name", JsonValue::Str(s.name.clone())),
                        (
                            "parent",
                            s.parent
                                .map_or(JsonValue::Null, |p| JsonValue::UInt(p as u128)),
                        ),
                        ("start_ns", JsonValue::UInt(s.start_ns as u128)),
                        ("end_ns", JsonValue::UInt(s.end_ns as u128)),
                        ("self_ns", JsonValue::UInt(self.self_ns(id) as u128)),
                    ])
                })
                .collect(),
        )
    }
}

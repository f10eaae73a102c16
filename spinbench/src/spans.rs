//! In-memory span log for the traced run.
//!
//! A span records one call the benchmark makes into a layer's public
//! function: name, start, end, the span that caused it, the request it
//! belongs to, and how many calls it covers (codec probes batch many
//! nanosecond-scale calls into one span). Spans stay in memory and are
//! written out once, when the run ends.

use spinamm_telemetry::json::JsonValue;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `server.handle`.
    pub name: &'static str,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin (0 while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request the span belongs to.
    pub request: u64,
    /// Calls covered by the span.
    pub calls: u32,
}

impl Span {
    /// Duration per covered call, µs.
    #[must_use]
    pub fn per_call_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3 / f64::from(self.calls.max(1))
    }
}

/// The span store of one thread (merge per-thread logs with
/// [`SpanLog::absorb`]).
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts at `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        self.open_at(name, parent, request, Instant::now())
    }

    /// Opens a span that began at `at` (e.g. a request's due time).
    pub fn open_at(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        at: Instant,
    ) -> SpanId {
        let start_ns =
            u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request,
            calls: 1,
        });
        self.spans.len() - 1
    }

    /// Closes a span.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `calls` invocations of `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        calls: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        self.spans[id].calls = calls.max(1);
        out
    }

    /// Moves `other`'s spans into this log, re-basing parent links.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// All spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-call durations (µs) of every span named `name`.
    #[must_use]
    pub fn per_call_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::per_call_us)
            .collect()
    }

    /// Writes every span as a JSON array of
    /// `{name, start_ns, end_ns, parent, request, calls}` objects.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating the directory or the file.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let doc = JsonValue::Array(
            self.spans
                .iter()
                .map(|s| {
                    JsonValue::object([
                        ("name", JsonValue::Str(s.name.to_owned())),
                        ("start_ns", JsonValue::Uint(s.start_ns)),
                        ("end_ns", JsonValue::Uint(s.end_ns)),
                        (
                            "parent",
                            s.parent
                                .map_or(JsonValue::Null, |p| JsonValue::Uint(p as u64)),
                        ),
                        ("request", JsonValue::Uint(s.request)),
                        ("calls", JsonValue::Uint(u64::from(s.calls))),
                    ])
                })
                .collect(),
        );
        std::fs::write(path, doc.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_link_parent_and_request() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.open("request", None, 7);
        log.time("child", Some(root), 7, 4, || {
            std::thread::sleep(std::time::Duration::from_millis(4));
        });
        log.close(root);
        let spans = log.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].request, 7);
        // Four calls share the child span's 4+ ms.
        assert!(log.per_call_us("child")[0] >= 1_000.0);
        assert!(log.per_call_us("request")[0] >= 4_000.0);
        let mut other = SpanLog::new(Instant::now());
        let id = other.open("late", Some(0), 9);
        other.close(id);
        log.absorb(other);
        assert_eq!(log.spans()[2].parent, Some(2), "parent re-based");
    }
}

//! Harness-side spans: one record per call into a layer's public
//! functions, held in memory and written out when the workload ends.
//! Spans inside the program are a later change; these wrap it from the
//! benchmark's own files.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one ingest→refresh cycle share its epoch number.
    pub epoch_id: Option<u64>,
}

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last; a new span's parent is the top.
    stack: Vec<usize>,
    epoch_id: Option<u64>,
    /// Off in the untraced blocks of a run: calls are still timed for the
    /// end-to-end latencies, but no span is kept.
    pub enabled: bool,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            epoch_id: None,
            enabled: true,
        }
    }
}

impl Trace {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn set_epoch(&mut self, epoch_id: Option<u64>) {
        self.epoch_id = epoch_id;
    }

    fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record an already-timed call as a leaf under the innermost open
    /// span.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: self.ns_at(start),
                end_ns: self.ns_at(end),
                parent: self.stack.last().copied(),
                epoch_id: self.epoch_id,
            });
        }
    }

    /// Open a span under the innermost open one; spans recorded until the
    /// matching [`Trace::close`] become its children.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            epoch_id: self.epoch_id,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.stack.retain(|&open| open != id);
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Time `f`, record it as a leaf span, and hand back its duration in
    /// milliseconds.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.leaf(name, start, end);
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Per span name: count, total time, and self time (the span minus
    /// the part of its interval its children cover).
    pub fn summary(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, u64, f64, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = (s.end_ns - s.start_ns) as f64 / 1e6;
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e6;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }

    pub fn to_json(&self) -> Json {
        let num = |n: u64| Json::Num(n as f64);
        let opt = |n: Option<u64>| n.map_or(Json::Null, num);
        Json::obj([
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::str(s.name)),
                                ("start_ns", num(s.start_ns)),
                                ("end_ns", num(s.end_ns)),
                                ("parent", opt(s.parent.map(|p| p as u64))),
                                ("epoch_id", opt(s.epoch_id)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "summary",
                Json::Arr(
                    self.summary()
                        .into_iter()
                        .map(|(name, count, total, own)| {
                            Json::obj([
                                ("name", Json::str(name)),
                                ("count", num(count)),
                                ("total_ms", Json::Num(total)),
                                ("self_ms", Json::Num(own)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Trace::default();
        let outer = t.open("outer");
        t.timed("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close(outer);
        let rows = t.summary();
        let outer = rows.iter().find(|r| r.0 == "outer").unwrap();
        let inner = rows.iter().find(|r| r.0 == "inner").unwrap();
        assert!(inner.2 >= 5.0 && outer.2 >= inner.2);
        assert!(outer.3 <= outer.2 - inner.2 + 1e-9);
        assert_eq!(t.spans[1].parent, Some(0));

        // A disabled trace still times, but keeps nothing.
        t.enabled = false;
        assert_eq!(t.open("ignored"), None);
        assert!(t.timed("ignored", || ()).1 >= 0.0);
        assert_eq!(t.spans.len(), 2);
    }
}

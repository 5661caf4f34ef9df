//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer: its name, start and end (nanoseconds
//! since the recorder was created), the span open around it (its parent)
//! and the request it served. A call that finishes in well under a
//! microsecond is recorded once per chunk of queries, with the chunk's
//! query count attached. Spans stay in a preallocated vector while the
//! workload runs and are written out once it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call into a layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, or [`NO_PARENT`].
    pub parent: u32,
    /// The request (batch, write or query) the call served.
    pub request: u64,
    /// Queries or rows the call handled (1 for a single call).
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Calls recorded.
    pub calls: u64,
    /// Sum of the attached counts.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by direct children.
    pub self_ns: u64,
}

impl LayerTime {
    /// Self time per counted item, in nanoseconds (0 with nothing counted).
    pub fn self_ns_per_item(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }

    /// Self time in seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

/// Records spans; opening a span while another is open makes it a child.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    /// A recorder holding at most `capacity` spans; later spans are
    /// counted as dropped instead of growing the buffer mid-run.
    pub fn new(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str, request: u64, count: u64) -> Option<u32> {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return None;
        }
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            count,
        });
        self.open.push(index);
        Some(index)
    }

    /// Close the span `enter` returned (spans close innermost first).
    pub fn exit(&mut self, span: Option<u32>) {
        if let Some(index) = span {
            let end_ns = self.now_ns();
            debug_assert_eq!(
                self.open.last(),
                Some(&index),
                "spans close innermost first"
            );
            self.open.pop();
            self.spans[index as usize].end_ns = end_ns;
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        count: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let id = self.enter(name, request, count);
        let out = f(self);
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans refused because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-name totals with self time (see [`self_times`]).
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        self_times(&self.spans)
    }

    /// Write every span as one CSV line: name, start, end, parent,
    /// request, count.
    pub fn write_csv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "name,start_ns,end_ns,parent,request,count")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.name, s.start_ns, s.end_ns, parent, s.request, s.count
            )?;
        }
        Ok(())
    }
}

/// Per-name totals over `spans`. A span's self time is its duration minus
/// the durations of its direct children (children never overlap: the
/// recorder opens one span at a time per thread).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.duration_ns();
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let layer = layers.entry(s.name).or_default();
        layer.calls += 1;
        layer.count += s.count;
        layer.total_ns += s.duration_ns();
        layer.self_ns += s.duration_ns().saturating_sub(covered);
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32, count: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
            count,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0, 100) ⊃ merge [10, 90) ⊃ shard [20, 50) and [50, 80)
        let spans = [
            span("request", 0, 100, NO_PARENT, 1),
            span("merge", 10, 90, 0, 64),
            span("shard", 20, 50, 1, 64),
            span("shard", 50, 80, 1, 64),
        ];
        let layers = self_times(&spans);
        assert_eq!(layers["request"].self_ns, 20);
        assert_eq!(layers["request"].total_ns, 100);
        assert_eq!(layers["merge"].self_ns, 20);
        assert_eq!(layers["shard"].self_ns, 60);
        assert_eq!(layers["shard"].calls, 2);
        assert_eq!(layers["shard"].count, 128);
        assert!((layers["merge"].self_ns_per_item() - 20.0 / 64.0).abs() < 1e-12);
        // Self times add up to the root's duration.
        let sum: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn recorder_links_parents_and_respects_capacity() {
        let mut t = Tracer::new(3);
        t.span("outer", 7, 1, |t| {
            t.span("inner", 7, 2, |_| ());
            t.span("inner", 7, 2, |_| ());
        });
        t.span("late", 8, 1, |_| ());
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[2].end_ns <= spans[0].end_ns);
        assert_eq!(t.dropped(), 1);
        let layers = t.layers();
        assert_eq!(layers["inner"].count, 4);
        assert!(layers["outer"].self_ns <= layers["outer"].total_ns);
        let mut csv = Vec::new();
        t.write_csv(&mut csv).unwrap();
        let text = String::from_utf8(csv).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.lines().nth(2).unwrap().starts_with("inner,"));
    }
}

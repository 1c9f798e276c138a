//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out when the run ends.
//!
//! A span is a name, a start and an end (nanoseconds since the run's
//! origin), the span that caused it and the request it belongs to. A span's
//! self time is its duration minus the part of it that its children cover;
//! children may overlap each other, so the covered part is the length of
//! the union of their intervals, clipped to the parent.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps, as `<module>.<call>`.
    pub name: &'static str,
    /// Request (or training seed) the span belongs to.
    pub request: u64,
    /// Index of the parent span in the same [`Tracer`].
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

/// An append-only span log. Each thread keeps its own and the logs are
/// merged with [`Tracer::absorb`] once the threads are joined.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log whose times count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds from the origin to `t` (0 for instants before it).
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span and return its index.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            request,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Move every span of `other` (same origin) into this log, keeping
    /// parent links intact.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the log as tab-separated lines: id, parent (`-` for roots),
    /// name, request, start and end in nanoseconds, self time.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\trequest\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, each clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let duration = s.end_ns.saturating_sub(s.start_ns);
            duration.saturating_sub(union_length(kids))
        })
        .collect()
}

/// Total length covered by a set of possibly overlapping intervals.
fn union_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(lo, hi) in intervals.iter() {
        current = match current {
            Some((clo, chi)) if lo <= chi => Some((clo, chi.max(hi))),
            Some((clo, chi)) => {
                covered += chi - clo;
                Some((lo, hi))
            }
            None => Some((lo, hi)),
        };
    }
    covered + current.map_or(0, |(lo, hi)| hi - lo)
}

/// Per span name: (count, mean duration ns, mean self time ns).
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut sums: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let entry = sums.entry(s.name).or_default();
        entry.0 += 1;
        entry.1 += s.end_ns.saturating_sub(s.start_ns);
        entry.2 += own;
    }
    sums.into_iter()
        .map(|(name, (n, total, own))| (name, (n, total as f64 / n as f64, own as f64 / n as f64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("root", None, 0, 100),
            // Two children overlapping on [20, 30) plus one disjoint child:
            // covered = [10, 40) ∪ [60, 70) = 40, not 20 + 20 + 10.
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 40),
            span("c", Some(0), 60, 70),
            // A grandchild counts against its own parent only.
            span("a.inner", Some(1), 12, 18),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![60, 14, 20, 10, 6]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span("root", None, 100, 200),
            span("early", Some(0), 50, 120),
            span("late", Some(0), 190, 400),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 20 - 10);
    }

    #[test]
    fn self_times_along_a_chain_sum_to_the_root() {
        let spans = vec![
            span("root", None, 0, 1_000),
            span("x", Some(0), 100, 400),
            span("y", Some(0), 400, 900),
            span("y.z", Some(2), 500, 600),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 1_000);
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.record("a", 0, None, origin, origin);
        let mut b = Tracer::new(origin);
        let root = b.record("b", 1, None, origin, origin);
        b.record("b.child", 1, Some(root), origin, origin);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let summary = summarize(a.spans());
        assert_eq!(summary["b.child"].0, 1);
    }
}

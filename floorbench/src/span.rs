//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is named `<layer>.<call>` (`gateway.submit_batch`,
//! `petri.reachability`, ...). The client is single-threaded, so a span's
//! children never overlap and its self time is its duration minus the sum of
//! its children's durations. Spans stay in memory until the run ends; then
//! [`write_tsv`] writes them out.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Request id, document index or round number the call served.
    pub id: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder. A disabled tracer records nothing and reads no clock.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (spans already recorded are kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that encloses later spans; returns its index for
    /// [`Tracer::close`] and as their parent ([`ROOT`] when disabled).
    pub fn open(&mut self, name: &'static str, parent: u32, id: u64) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes a span returned by [`Tracer::open`].
    pub fn close(&mut self, index: u32) {
        if index == ROOT {
            return;
        }
        let end_ns = self.ns(Instant::now());
        self.spans[index as usize].end_ns = end_ns;
    }

    /// The start instant for a leaf span, or `None` when disabled.
    pub fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Records a leaf span from `start` (see [`Tracer::start`]) to now.
    pub fn leaf(&mut self, name: &'static str, parent: u32, id: u64, start: Option<Instant>) {
        if let Some(start) = start {
            let start_ns = self.ns(start);
            let end_ns = self.ns(Instant::now());
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                id,
            });
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Writes spans as tab-separated lines (`index name start_ns end_ns parent
/// id`, parent -1 for a root).
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tid")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start_ns, s.end_ns, s.id
        )?;
    }
    out.flush()
}

/// Self time of every span: its duration minus its children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Total self time per layer.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *totals.entry(s.layer()).or_insert(0) += own;
    }
    totals
}

/// Durations of every span named `name`, in nanoseconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                name: "bench.round",
                start_ns: 0,
                end_ns: 100,
                parent: ROOT,
                id: 0,
            },
            Span {
                name: "gateway.submit_batch",
                start_ns: 10,
                end_ns: 40,
                parent: 0,
                id: 1,
            },
            Span {
                name: "gateway.session_view",
                start_ns: 50,
                end_ns: 60,
                parent: 0,
                id: 2,
            },
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 10]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["bench"], 60);
        assert_eq!(layers["gateway"], 40);
        assert_eq!(durations(&spans, "gateway.submit_batch"), vec![30]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.open("bench.round", ROOT, 0);
        let s = t.start();
        t.leaf("gateway.submit_batch", root, 1, s);
        t.close(root);
        assert!(t.spans().is_empty());
    }
}

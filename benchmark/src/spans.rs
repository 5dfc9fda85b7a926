//! The benchmark's own span recorder: spans are recorded from outside
//! the program, around the calls into each layer, kept in memory and
//! written out once when the run ends. End-to-end metrics are always
//! measured with no recorder in use.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` indexes into the recorder's span
/// list; spans of one client op (or one ladder call) share `op_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span list with a common clock origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span and return its index (the `parent` of its
    /// children).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Time `call` as a root span.
    pub fn time<R>(&mut self, name: &'static str, op_id: u64, call: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let result = call();
        let end_ns = self.now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            op_id,
        });
        result
    }

    /// Record a child whose duration the program reported without
    /// timestamps. Children are packed from the parent's start in the
    /// order they are recorded, so only a child's length and nesting
    /// carry meaning. Clamped to what is left of the parent.
    pub fn push_reported(&mut self, name: &'static str, parent: usize, nanos: u64) -> usize {
        let (parent_start, parent_end, op_id) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.op_id)
        };
        let start_ns = self.spans[parent + 1..]
            .iter()
            .rev()
            .find(|s| s.parent == Some(parent))
            .map_or(parent_start, |sibling| sibling.end_ns);
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns + nanos.min(parent_end - start_ns),
            parent: Some(parent),
            op_id,
        })
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (siblings never overlap).
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Write every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
        )?;
        for (index, (span, self_ns)) in self.spans.iter().zip(&own).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{},\"self_ns\":{self_ns}}}",
                if index == 0 { "" } else { "," },
                span.name,
                span.start_ns,
                span.end_ns,
                span.op_id,
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Recorder::new();
        let root = rec.push(span("op", 0, 1000, None));
        let request = rec.push_reported("request", root, 800);
        let invocation = rec.push_reported("invocation", request, 500);
        rec.push_reported("inference", invocation, 450);
        assert_eq!(rec.self_times(), vec![200, 300, 50, 450]);
        // Self times of a tree sum back to the root.
        assert_eq!(rec.self_times().iter().sum::<u64>(), 1000);
        // Reported children sit inside their parents.
        for s in rec.spans() {
            if let Some(p) = s.parent {
                assert!(rec.spans()[p].start_ns <= s.start_ns && s.end_ns <= rec.spans()[p].end_ns);
            }
        }
    }

    #[test]
    fn sibling_steps_subtract_from_one_parent() {
        let mut rec = Recorder::new();
        let root = rec.push(span("op", 0, 900, None));
        for _ in 0..3 {
            rec.push_reported("request", root, 250);
        }
        assert_eq!(rec.self_times()[root], 150);
        assert_eq!(rec.durations("request"), vec![250, 250, 250]);
        let starts: Vec<u64> = rec.spans()[1..].iter().map(|s| s.start_ns).collect();
        assert_eq!(starts, vec![0, 250, 500]);
    }

    #[test]
    fn a_reported_duration_longer_than_its_parent_is_clamped() {
        let mut rec = Recorder::new();
        let root = rec.push(span("op", 10, 110, None));
        let child = rec.push_reported("request", root, 500);
        assert_eq!(rec.spans()[child].duration_ns(), 100);
        assert_eq!(rec.self_times()[root], 0);
    }
}

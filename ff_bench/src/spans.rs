//! Harness-owned spans: recorded around calls into each crate's public
//! functions, kept in memory, written out when the traced run ends.

use crate::stats::{median, Op};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one op (step, request, wave, replay pass) share an id.
    pub op_id: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op_id: u64) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(id);
        id
    }

    /// Closes the span `enter` returned; returns its duration in ms.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].ns() as f64 / 1e6
    }

    /// Times one call as a span; returns its result and duration in ms.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op_id: u64,
        call: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.enter(name, op_id);
        let out = std::hint::black_box(call());
        (out, self.exit(id))
    }

    /// Adds client-side op records (timed on load-generator threads) as
    /// spans under the innermost open span. `window_origin_ns` is this
    /// recorder's clock at the moment the ops' window opened.
    pub fn push_ops(&mut self, name: &'static str, window_origin_ns: u64, ops: &[Op]) {
        let parent = self.open.last().copied();
        for (index, op) in ops.iter().enumerate() {
            self.spans.push(Span {
                name,
                start_ns: window_origin_ns + op.start_ns,
                end_ns: window_origin_ns + op.end_ns,
                parent,
                op_id: index as u64,
            });
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.ns() as f64 / 1e6)
            .collect()
    }

    /// Median duration of the spans called `name`, in ms.
    pub fn median_ms(&self, name: &str) -> f64 {
        median(self.durations_ms(name))
    }

    /// A span's self time is its duration less the part its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.ns());
            }
        }
        own
    }

    /// Writes every span, with its self time, as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans\": [")?;
        for (index, (span, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = span
                .parent
                .map_or("null".to_string(), |parent| parent.to_string());
            let comma = if index + 1 == self.spans.len() {
                ""
            } else {
                ","
            };
            writeln!(
                out,
                "  {{\"id\": {index}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {self_ns}, \"parent\": {parent}, \"op_id\": {}}}{comma}",
                span.name, span.start_ns, span.end_ns, span.op_id
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut recorder = Recorder::new();
        let outer = recorder.enter("outer", 0);
        recorder.time("inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        recorder.exit(outer);
        let own = recorder.self_ns();
        let inner_ns = recorder.spans[1].ns();
        assert!(inner_ns >= 2_000_000);
        assert_eq!(own[0], recorder.spans[0].ns() - inner_ns);
        assert_eq!(recorder.spans[1].parent, Some(0));
        assert!(recorder.median_ms("inner") >= 2.0);
    }
}

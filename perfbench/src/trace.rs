//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! (spans inside the program are a later change). One span per timed
//! call: name, start, end, parent, and the id of the frame it served;
//! spans of one frame share that id. Nothing is written until the run
//! ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer call, e.g. `daemon.handle_frame`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The frame served (round-level spans carry the round's first
    /// frame).
    pub frame: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, frame: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            frame,
        });
        self.spans.len() - 1
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        let end = self.now();
        self.spans[id].end_ns = end;
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the union of the
    /// intervals its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| {
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                let mut sorted: Vec<&Span> = kids.iter().map(|&k| &self.spans[k]).collect();
                sorted.sort_by_key(|s| s.start_ns);
                for kid in sorted {
                    let start = kid.start_ns.max(reach);
                    let end = kid.end_ns.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Writes every span as one tab-separated line: `name start_ns
    /// end_ns self_ns parent frame` (`-` for no parent).
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from creating or writing the file.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tself_ns\tparent\tframe")?;
        for (s, own) in self.spans.iter().zip(self_ns) {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, own, parent, s.frame
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when a tracer is present.
pub fn span<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: Option<usize>,
    frame: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => {
            let id = t.open(name, parent, frame);
            let out = f();
            t.close(id);
            out
        }
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            Span {
                name: "round",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                frame: 0,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                frame: 0,
            },
            Span {
                name: "b",
                start_ns: 30,
                end_ns: 60,
                parent: Some(0),
                frame: 0,
            },
        ];
        assert_eq!(t.self_times(), vec![50, 30, 30]);
    }
}

//! In-memory spans around the benchmark's calls into each layer. Spans
//! are kept in memory and written out once, at exit. The recorder starts
//! disabled, and while disabled it records nothing and does not read the
//! clock; a traced run enables it for its traced phase only.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Handle of an open span (`NONE` when recording is off).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    /// The grid cell (or request) the span belongs to.
    cell: u32,
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    list: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            on: false,
            epoch: Instant::now(),
            list: Vec::new(),
        }
    }

    pub fn enable(&mut self) {
        self.on = true;
    }

    pub fn len(&self) -> usize {
        self.list.len()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, cell: u32) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        self.list.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            cell,
        });
        SpanId(self.list.len() as u32 - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if id != SpanId::NONE {
            let end = self.now_ns();
            self.list[id.0 as usize].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        cell: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, cell);
        let out = f();
        self.close(id);
        out
    }

    /// Total duration of the spans named `name`, in ms, and their count.
    pub fn total_ms(&self, name: &str) -> (f64, usize) {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| {
                (t + (s.end_ns - s.start_ns) as f64 / 1e6, n + 1)
            })
    }

    /// Mean duration of the spans named `name`, in ms (0 when none ran).
    pub fn mean_ms(&self, name: &str) -> f64 {
        match self.total_ms(name) {
            (_, 0) => 0.0,
            (t, n) => t / n as f64,
        }
    }

    /// Writes one JSON object per span: name, start, end, parent, cell.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.list.iter().enumerate() {
            let parent = match s.parent {
                SpanId::NONE => "null".to_string(),
                SpanId(p) => p.to_string(),
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"cell\":{}}}",
                s.name, s.start_ns, s.end_ns, s.cell
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

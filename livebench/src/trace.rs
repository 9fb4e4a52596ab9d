//! In-memory spans for the traced run. A span records its name, start, end,
//! parent and request id; spans are only ever recorded from the benchmark's
//! own code, around calls into each layer's public entry points.

use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Span recorder. With `on == false` it only runs the closures, so the same
/// replay can be timed with and without recording.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for request `req`; spans opened
    /// inside `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self time (µs) of every span named `name`: its duration minus the
    /// part its children cover. Children of one span never overlap (the
    /// replay is single-threaded), so that part is their summed duration.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_ns - s.start_ns - child_ns[i]) as f64 / 1e3)
            .collect()
    }

    /// Prints one line per span name: count, total and self time.
    pub fn print_summary(&self) {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let total: f64 = self.durations_us(name).iter().sum();
            let own: f64 = self.self_us(name).iter().sum();
            let n = self.spans.iter().filter(|s| s.name == name).count();
            println!("span {name}: n={n} total_us={total:.1} self_us={own:.1}");
        }
    }

    /// Writes every span as a tab-separated line.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "id\tname\tstart_ns\tend_ns\tparent\treq")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(f, "{i}\t{}\t{}\t{}\t{parent}\t{}", s.name, s.start_ns, s.end_ns, s.req)?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", 0, |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", 0, |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let outer = t.durations_us("outer")[0];
        let own = t.self_us("outer")[0];
        let inner = t.durations_us("inner")[0];
        assert!(inner >= 5000.0);
        assert!((outer - own - inner).abs() < 1.0);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, |_| 7), 7);
        assert!(t.durations_us("x").is_empty());
    }
}

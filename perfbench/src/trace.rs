//! In-memory spans around the benchmark's own calls into each layer's
//! public functions. Nothing inside the program is instrumented: a span
//! covers exactly one call the benchmark makes.

use std::time::{Duration, Instant};

/// One timed call: its layer name, the span open around it (if any), and
/// its start and end as offsets from the tracer's origin.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Records spans when on; when off, [`Tracer::span`] only calls through.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`. Spans opened by `f` through the
    /// tracer it receives become children of this one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.origin.elapsed();
        out
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Per name, in first-seen order: `(name, count, total s, self s)`,
    /// where self time is a span's duration minus its children's.
    pub fn rollup(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.secs() - child[i];
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.secs();
                    r.3 += own;
                }
                None => rows.push((s.name, 1, s.secs(), own)),
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_nesting_links_parents() {
        let mut off = Tracer::new(false);
        assert_eq!(off.span("a", |t| t.span("b", |_| 7)), 7);
        assert!(off.spans.is_empty());

        let mut on = Tracer::new(true);
        on.span("a", |t| {
            t.span("b", |_| ());
            t.span("b", |_| ());
        });
        let s = &on.spans;
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        let rows = on.rollup();
        assert_eq!(rows[1].0, "b");
        assert_eq!(rows[1].1, 2);
        assert!(rows[0].3 <= rows[0].2, "self time never exceeds total");
    }
}

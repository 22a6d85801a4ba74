//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a public function of the
//! program in [`Tracer::span`]. A span has a name, start, end, parent and
//! request id. Self time (the span minus the time its child spans cover)
//! is folded into per-name totals as each span closes, so the per-layer
//! numbers cover every call; the individual spans are also kept in
//! memory, up to [`KEEP_SPANS`] per tracer, and written out when the run
//! ends. A disabled tracer only calls the closure.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Spans kept for the written trace per tracer; later spans are still
/// counted in the per-name totals.
const KEEP_SPANS: usize = 200_000;

#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    /// Mean self time per call, ns.
    pub fn self_per_call(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    id: u64,
    parent: u64,
    request: u64,
}

struct Open {
    id: u64,
    start: Instant,
    child_ns: u64,
    max_child_self: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    id_base: u64,
    next_id: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Totals>,
    /// Spans whose child's self time exceeded the span itself.
    pub inconsistent: u64,
}

impl Tracer {
    /// Every tracer gets its own span-id range, so the spans of tracers
    /// merged with [`Tracer::absorb`] keep distinct ids.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        Tracer {
            enabled,
            epoch,
            id_base: NEXT.fetch_add(1, Ordering::Relaxed),
            next_id: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
            inconsistent: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Runs `f` inside a span named `name` for request `request`.
    #[inline]
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        self.next_id += 1;
        let id = (self.id_base << 48) | self.next_id;
        let parent = self.stack.last().map_or(0, |o| o.id);
        self.stack.push(Open {
            id,
            start: Instant::now(),
            child_ns: 0,
            max_child_self: 0,
        });
        let out = f(self);
        let end = Instant::now();
        let open = self
            .stack
            .pop()
            .expect("span stack holds the span opened above");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let self_ns = dur.saturating_sub(open.child_ns);
        if open.max_child_self > dur {
            self.inconsistent += 1;
        }
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += dur;
            p.max_child_self = p.max_child_self.max(self_ns);
        }
        let t = self.totals.entry(name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += self_ns;
        if self.spans.len() < KEEP_SPANS {
            self.spans.push(Span {
                name,
                start_ns: open.start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
                id,
                parent,
                request,
            });
        }
        out
    }

    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Folds another tracer's spans and totals into this one.
    pub fn absorb(&mut self, other: Tracer) {
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.total_ns += t.total_ns;
            mine.self_ns += t.self_ns;
        }
        let room = KEEP_SPANS.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.into_iter().take(room));
        self.inconsistent += other.inconsistent;
    }

    /// Writes the kept spans as tab-separated lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name\tstart_ns\tend_ns\tid\tparent\trequest")?;
        for s in &self.spans {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.id, s.parent, s.request
            )?;
        }
        w.flush()
    }

    /// Mean cost of one empty span on this host, ns.
    pub fn calibrate(epoch: Instant) -> f64 {
        let mut t = Tracer::new(true, epoch);
        let n = 100_000u64;
        let start = Instant::now();
        for i in 0..n {
            t.span("calibrate", i, |_| ());
        }
        start.elapsed().as_nanos() as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("parent", 7, |t| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("child", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let p = t.totals("parent");
        let c = t.totals("child");
        assert_eq!((p.count, c.count), (1, 1));
        assert_eq!(p.self_ns, p.total_ns - c.total_ns);
        assert!(c.self_ns >= 5_000_000 && p.self_ns >= 2_000_000);
        assert_eq!(t.inconsistent, 0);
        assert_eq!(t.spans.len(), 2);
        let (child, parent) = (t.spans[0], t.spans[1]);
        assert_eq!(child.parent, parent.id);
        assert_eq!(child.request, 7);
        assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", 0, |_| 5), 5);
        assert_eq!(t.totals("x").count, 0);
    }
}

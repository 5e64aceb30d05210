//! Benchmark-owned spans: name, start, end and parent on a nanosecond
//! clock, held in memory and written out when the run ends. Spans wrap
//! calls into the program's public functions; nothing inside the
//! program is instrumented.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder. A disabled tracer records nothing and
/// costs one branch per call.
pub struct Tracer {
    enabled: bool,
    base: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            base: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before its
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        self.exit_as(None);
    }

    /// Close the innermost open span, renaming it first when the name
    /// depends on the call's result (an admit's serving path).
    pub fn exit_as(&mut self, rename: Option<&'static str>) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = end_ns;
        if let Some(name) = rename {
            self.spans[i].name = name;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Self time of every span named `name`, in nanoseconds: its
    /// duration minus the time its direct children cover (children run
    /// sequentially inside their parent, so their durations add).
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.dur_ns().saturating_sub(child_ns[i]) as f64)
            .collect()
    }

    /// The spans as JSON lines, one span per line, in opening order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                r#"{{"id":{i},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let outer = &t.spans[0];
        let inner = &t.spans[1];
        assert_eq!(inner.parent, Some(0));
        let self_outer = t.self_ns("outer")[0];
        assert_eq!(self_outer, (outer.dur_ns() - inner.dur_ns()) as f64);
        assert!(inner.dur_ns() >= 2_000_000);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.span("x", || ());
        assert!(t.spans.is_empty());
    }
}

//! In-memory span tracing for the traced run.
//!
//! Spans wrap calls into the library crates from the benchmark's own code:
//! each records its name, start, end, parent span and pass id.  They stay in
//! memory until the run ends, when [`Tracer::write_jsonl`] writes them out.
//! Counters are recorded at the same boundaries with [`Tracer::add`].
//!
//! A disabled tracer ([`Tracer::off`]) runs the wrapped closure and records
//! nothing, so one recipe can serve both the timed and the traced passes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.  Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    pub pass: u32,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
    /// Per pass: counter name → summed value.
    counters: BTreeMap<u32, BTreeMap<&'static str, f64>>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer { enabled: false, origin: Instant::now(), state: RefCell::default() }
    }

    pub fn on() -> Self {
        Tracer { enabled: true, ..Tracer::off() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts pass `pass`: later spans and counters are attributed to it.
    /// Any span left open by a pass that panicked is abandoned.
    pub fn begin_pass(&self, pass: u32) {
        let mut s = self.state.borrow_mut();
        s.pass = pass;
        s.open.clear();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let start_ns = self.now_ns();
            let mut s = self.state.borrow_mut();
            let id = s.spans.len();
            let (parent, pass) = (s.open.last().copied(), s.pass);
            s.spans.push(Span { name, start_ns, end_ns: start_ns, parent, pass });
            s.open.push(id);
            id
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut s = self.state.borrow_mut();
        s.spans[id].end_ns = end_ns;
        s.open.pop();
        out
    }

    /// Adds `value` to the counter `name` of the current pass.
    pub fn add(&self, name: &'static str, value: f64) {
        if self.enabled {
            let mut s = self.state.borrow_mut();
            let pass = s.pass;
            *s.counters.entry(pass).or_default().entry(name).or_default() += value;
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// Counter totals over the given passes.
    pub fn counter_totals(&self, passes: &[u32]) -> BTreeMap<&'static str, f64> {
        let s = self.state.borrow();
        let mut out = BTreeMap::new();
        for pass in passes {
            for (name, v) in s.counters.get(pass).into_iter().flatten() {
                *out.entry(*name).or_default() += v;
            }
        }
        out
    }

    /// Writes a header line and then one JSON object per span.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, sp) in self.state.borrow().spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"pass\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                sp.pass, sp.name, sp.start_ns, sp.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per pass and span name, in nanoseconds: each span's duration
/// minus the durations of its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, BTreeMap<&'static str, u64>> {
    let mut child_ns = vec![0u64; spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            child_ns[p] += sp.end_ns - sp.start_ns;
        }
    }
    let mut out: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for (sp, children) in spans.iter().zip(child_ns) {
        let own = (sp.end_ns - sp.start_ns).saturating_sub(children);
        *out.entry(sp.pass).or_default().entry(sp.name).or_default() += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_counters_sum_per_pass() {
        let tr = Tracer::on();
        tr.begin_pass(7);
        tr.span("outer", || {
            tr.span("inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
            tr.add("work", 2.0);
            tr.add("work", 3.0);
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let times = &self_times(&spans)[&7];
        let (outer, inner) = (times["outer"], times["inner"]);
        assert!(inner >= 2_000_000, "{inner}");
        assert!(outer < inner, "outer self {outer} should exclude the inner span");
        assert_eq!(tr.counter_totals(&[7])["work"], 5.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::off();
        assert_eq!(tr.span("x", || 4), 4);
        tr.add("work", 1.0);
        assert!(tr.spans().is_empty());
        assert!(tr.counter_totals(&[0]).is_empty());
    }
}

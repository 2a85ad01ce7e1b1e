//! Spans recorded from the benchmark's own files, around each call it
//! makes into a simulator layer.
//!
//! Spans live in a `Vec` until the run ends, then go out as Chrome-trace
//! JSON. A disabled [`Tracer`] hands out inert guards, so the same
//! workload code runs traced and untraced; end-to-end metrics only ever
//! come from the untraced run.

use std::cell::RefCell;
use std::time::Instant;

use crate::json;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`, e.g. `trace.replay`.
    pub name: String,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which iteration of the workload the span belongs to.
    pub iter: u32,
    /// Operations done inside the span (0 when not counted).
    pub ops: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    iter: u32,
}

/// Records spans when enabled; free when not.
pub struct Tracer {
    state: Option<RefCell<State>>,
    t0: Instant,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Tracer {
        Tracer {
            state: Some(RefCell::new(State::default())),
            t0: Instant::now(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            state: None,
            t0: Instant::now(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Tag the spans opened from now on with iteration `iter`.
    pub fn set_iter(&self, iter: u32) {
        if let Some(state) = &self.state {
            state.borrow_mut().iter = iter;
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; it closes when the guard drops.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        let index = self.state.as_ref().map(|state| {
            let mut st = state.borrow_mut();
            let index = st.spans.len();
            let span = Span {
                name: name.to_owned(),
                start_ns: 0,
                end_ns: 0,
                parent: st.open.last().copied(),
                iter: st.iter,
                ops: 0,
            };
            st.spans.push(span);
            st.open.push(index);
            // Read the clock last so the bookkeeping above is charged to
            // the parent, not to this span.
            st.spans[index].start_ns = self.now_ns();
            index
        });
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state
            .as_ref()
            .map(|s| s.borrow().spans.clone())
            .unwrap_or_default()
    }
}

impl SpanGuard<'_> {
    /// Record how many operations ran inside this span.
    pub fn ops(&self, ops: u64) {
        if let (Some(state), Some(index)) = (&self.tracer.state, self.index) {
            state.borrow_mut().spans[index].ops = ops;
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(state), Some(index)) = (&self.tracer.state, self.index) {
            let end = self.tracer.now_ns();
            let mut st = state.borrow_mut();
            st.spans[index].end_ns = end;
            // Guards drop in reverse order of creation, so this is the top.
            st.open.retain(|&i| i != index);
        }
    }
}

/// Self time of span `index`: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let parent = &spans[index];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (start, end) in children {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    (parent.end_ns - parent.start_ns) - covered
}

/// Per-name totals: `(name, spans, total self ns, total ops)`, in order of
/// first appearance.
pub fn self_times_by_name(spans: &[Span]) -> Vec<(String, u64, u64, u64)> {
    let mut out: Vec<(String, u64, u64, u64)> = Vec::new();
    for (index, span) in spans.iter().enumerate() {
        let own = self_time_ns(spans, index);
        match out.iter_mut().find(|row| row.0 == span.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += own;
                row.3 += span.ops;
            }
            None => out.push((span.name.clone(), 1, own, span.ops)),
        }
    }
    out
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete (`"X"`)
/// event per span, microsecond timestamps, the span's own fields in `args`.
pub fn chrome_trace(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (index, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {}, \"dur\": {}, \
             \"args\": {{\"id\": {index}, \"parent\": {parent}, \"workload\": {}, \"iter\": {}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"ops\": {}}}}}{}\n",
            json::escape(&s.name),
            json::escape(s.name.split('.').next().unwrap_or("")),
            json::num(s.start_ns as f64 / 1e3),
            json::num((s.end_ns - s.start_ns) as f64 / 1e3),
            json::escape(workload),
            s.iter,
            s.start_ns,
            s.end_ns,
            self_time_ns(spans, index),
            s.ops,
            if index + 1 < spans.len() { "," } else { "" },
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
            iter: 0,
            ops: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span("root", 0, 100, None),
            span("child", 10, 40, Some(0)),
            span("grandchild", 15, 35, Some(1)),
            span("child", 60, 70, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 30 - 10);
        assert_eq!(self_time_ns(&spans, 1), 30 - 20);
        assert_eq!(self_time_ns(&spans, 2), 20);
        let rows = self_times_by_name(&spans);
        assert_eq!(rows[1], ("child".to_owned(), 2, 10 + 10, 0));
    }

    #[test]
    fn self_time_counts_overlapping_and_overhanging_children_once() {
        let spans = [
            span("root", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 130, 170, Some(0)), // overlaps a
            span("c", 140, 145, Some(0)), // inside a
            span("d", 190, 250, Some(0)), // overhangs the parent
        ];
        // covered: [110,170] = 60, plus [190,200] = 10
        assert_eq!(self_time_ns(&spans, 0), 100 - 70);
    }

    #[test]
    fn tracer_nests_by_guard_scope_and_off_records_nothing() {
        let tr = Tracer::on();
        tr.set_iter(3);
        {
            let outer = tr.span("outer");
            {
                let inner = tr.span("inner");
                inner.ops(7);
            }
            outer.ops(1);
        }
        let _sibling = tr.span("sibling");
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((spans[1].ops, spans[1].iter), (7, 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Tracer::off();
        off.span("x").ops(1);
        assert!(off.spans().is_empty() && !off.enabled());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let spans = [
            span("trace.replay", 0, 2_000, None),
            span("pricing.report", 500, 900, Some(0)),
        ];
        let doc = json::parse(&chrome_trace(&spans, "replay \"direct\"")).unwrap();
        let events = doc.get("traceEvents").unwrap().items();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat").unwrap().as_str(), Some("pricing"));
        assert_eq!(
            events[0]
                .get("args")
                .unwrap()
                .get("self_ns")
                .unwrap()
                .as_f64(),
            Some(1_600.0)
        );
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}

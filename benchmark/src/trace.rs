//! The benchmark's own spans, recorded around calls into the system's
//! public functions (nothing is added inside `crates/`).
//!
//! A span carries name, start, end, parent and request id. Spans stay in
//! memory and are written out as JSON lines when the run ends. The client
//! is one thread, so the recorder is thread-local: spans opened on pool
//! worker threads (where tracing was never switched on) cost one flag test
//! and record nothing.

use std::cell::RefCell;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since tracing was switched on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// 1-based id; a span's id is its position in the record plus one.
    pub id: u32,
    /// Id of the span that was open when this one started; 0 for a root.
    pub parent: u32,
    /// Request (operation index) the span belongs to.
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Switch tracing on for this thread.
pub fn enable() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        })
    });
}

/// Switch tracing off and hand back everything recorded.
pub fn finish() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map_or(Vec::new(), |t| t.spans))
}

/// Spans opened from now on belong to `request`.
pub fn set_request(request: u32) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.request = request;
        }
    });
}

/// Closes its span when dropped. Inert when tracing is off.
pub struct Guard(Option<u32>);

/// Open a span under whichever span is currently open on this thread.
pub fn span(name: &'static str) -> Guard {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(t) = t.as_mut() else {
            return Guard(None);
        };
        let id = t.spans.len() as u32 + 1;
        let now = t.origin.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            id,
            parent: t.open.last().copied().unwrap_or(0),
            request: t.request,
            name,
            start_ns: now,
            end_ns: now,
        });
        t.open.push(id);
        Guard(Some(id))
    })
}

/// Record an already finished span that began at `start` and ends now —
/// for calls whose name depends on what they returned.
pub fn closed(name: &'static str, start: Instant) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            let id = t.spans.len() as u32 + 1;
            t.spans.push(Span {
                id,
                parent: t.open.last().copied().unwrap_or(0),
                request: t.request,
                name,
                start_ns: start.saturating_duration_since(t.origin).as_nanos() as u64,
                end_ns: t.origin.elapsed().as_nanos() as u64,
            });
        }
    });
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.spans[id as usize - 1].end_ns = t.origin.elapsed().as_nanos() as u64;
                let top = t.open.pop();
                debug_assert_eq!(top, Some(id), "spans close innermost first");
            }
        });
    }
}

/// Self time per span, indexed like `spans`: a span's duration minus the
/// part of that interval its direct children cover (overlapping children
/// are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            children[s.parent as usize - 1].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Durations of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Self times of every span called `name`.
pub fn self_durations(spans: &[Span], name: &str) -> Vec<u64> {
    let selfs = self_times(spans);
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| t)
        .collect()
}

/// One JSON object per line, in recording order.
pub fn to_jsonl(workload: &str, spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        // request [0,100] ⊃ execute [10,90] ⊃ get [20,40], get [50,60].
        let spans = vec![
            sp(1, 0, "request", 0, 100),
            sp(2, 1, "execute", 10, 90),
            sp(3, 2, "get", 20, 40),
            sp(4, 2, "get", 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 20, 10]);
        assert_eq!(self_durations(&spans, "execute"), vec![50]);
        assert_eq!(durations(&spans, "get"), vec![20, 10]);
    }

    #[test]
    fn self_time_does_not_depend_on_sibling_call_order() {
        // The traced run rotates the order of the decomposed calls; the
        // arithmetic must give each span the same self time either way.
        let a_first = vec![
            sp(1, 0, "request", 0, 100),
            sp(2, 1, "a", 0, 30),
            sp(3, 1, "b", 30, 90),
        ];
        let b_first = vec![
            sp(1, 0, "request", 0, 100),
            sp(2, 1, "b", 0, 60),
            sp(3, 1, "a", 60, 90),
        ];
        assert_eq!(self_times(&a_first)[0], 10);
        assert_eq!(self_times(&b_first)[0], 10);
        assert_eq!(self_durations(&a_first, "a"), self_durations(&b_first, "a"));
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            sp(1, 0, "p", 0, 100),
            sp(2, 1, "c", 10, 60),
            sp(3, 1, "c", 40, 80),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        assert!(finish().is_empty());
        {
            let _g = span("ignored");
        }
        enable();
        set_request(7);
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let _after = span("after");
        drop(_after);
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", 0));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 1));
        assert_eq!((spans[2].name, spans[2].parent), ("after", 0));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let line = to_jsonl("w", &spans[..1]);
        assert!(line.starts_with("{\"workload\":\"w\",\"id\":1,\"parent\":0,\"request\":7"));
    }
}

//! In-memory spans and counters recorded by the benchmark around each
//! call into a layer's public function.
//!
//! A span has a name, the op it belongs to, its parent span, and a
//! start and duration measured from the tracer's epoch. Counters carry
//! the op id too, so ratios are taken where the work happens. Nothing
//! is written until the run ends and renders [`Tracer::to_jsonl`].

use ckpt_core::StageTimings;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub start: Duration,
    pub dur: Duration,
}

/// One counter sample.
#[derive(Debug, Clone)]
pub struct Counter {
    pub op: u64,
    pub name: &'static str,
    pub value: f64,
}

#[derive(Default)]
struct State {
    op: u64,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<usize>,
    counters: Vec<Counter>,
}

/// Span and counter recorder. Single-threaded: spans are opened and
/// closed by the thread driving the workload, around calls that may
/// fan out internally.
pub struct Tracer {
    epoch: Instant,
    state: RefCell<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: RefCell::default(),
        }
    }
}

impl Tracer {
    /// Tags every following span and counter with `op`.
    pub fn set_op(&self, op: u64) {
        self.state.borrow_mut().op = op;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = {
            let mut st = self.state.borrow_mut();
            let span = Span {
                op: st.op,
                name,
                parent: st.open.last().copied(),
                start: self.epoch.elapsed(),
                dur: Duration::ZERO,
            };
            st.spans.push(span);
            let idx = st.spans.len() - 1;
            st.open.push(idx);
            idx
        };
        let out = f();
        let end = self.epoch.elapsed();
        let mut st = self.state.borrow_mut();
        let popped = st.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans close innermost first");
        let span = &mut st.spans[idx];
        span.dur = end.saturating_sub(span.start);
        out
    }

    /// Records the codec's own stage timings as children of the
    /// innermost open span (which must have just run the codec). The
    /// stages are placed back to back from the parent's start; their
    /// durations are the codec's measurements.
    pub fn stages(&self, t: &StageTimings) {
        let mut st = self.state.borrow_mut();
        let parent = *st
            .open
            .last()
            .expect("stages are recorded inside the codec's span");
        let mut at = st.spans[parent].start;
        let op = st.op;
        for (name, dur) in [
            ("wavelet.fwd", t.wavelet),
            ("quant.encode", t.quantize_encode),
            ("core.format", t.format),
        ] {
            st.spans.push(Span {
                op,
                name,
                parent: Some(parent),
                start: at,
                dur,
            });
            at += dur;
        }
    }

    /// Records one counter sample for the current op.
    pub fn count(&self, name: &'static str, value: f64) {
        let mut st = self.state.borrow_mut();
        let op = st.op;
        st.counters.push(Counter { op, name, value });
    }

    /// Every closed span so far, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// Per op, the summed duration in ms of every span named `name`,
    /// in op order. Ops without such a span are left out.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let st = self.state.borrow();
        per_op(
            st.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.op, ms(s.dur))),
        )
    }

    /// Like [`Tracer::per_op_ms`], counting only spans whose outermost
    /// enclosing span is named `root`.
    pub fn per_op_ms_under(&self, name: &str, root: &str) -> Vec<f64> {
        let st = self.state.borrow();
        let root_of = |mut i: usize| {
            while let Some(p) = st.spans[i].parent {
                i = p;
            }
            st.spans[i].name
        };
        per_op(
            st.spans
                .iter()
                .enumerate()
                .filter(|(i, s)| s.name == name && s.parent.is_some() && root_of(*i) == root)
                .map(|(_, s)| (s.op, ms(s.dur))),
        )
    }

    /// Per op, the summed self time in ms of spans named `name`: each
    /// span's duration minus the part its direct children cover.
    pub fn per_op_self_ms(&self, name: &str) -> Vec<f64> {
        let st = self.state.borrow();
        per_op(
            st.spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == name)
                .map(|(i, s)| {
                    let covered: Duration = st
                        .spans
                        .iter()
                        .filter(|c| c.parent == Some(i))
                        .map(|c| c.dur)
                        .sum();
                    (s.op, ms(s.dur.saturating_sub(covered)))
                }),
        )
    }

    /// Per op, the summed value of counter `name`.
    pub fn per_op_count(&self, name: &str) -> Vec<f64> {
        let st = self.state.borrow();
        per_op(
            st.counters
                .iter()
                .filter(|c| c.name == name)
                .map(|c| (c.op, c.value)),
        )
    }

    /// Every span and counter as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let st = self.state.borrow();
        let mut out = String::new();
        for (i, s) in st.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.op,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
            );
        }
        for c in &st.counters {
            let _ = writeln!(
                out,
                "{{\"op\":{},\"counter\":\"{}\",\"value\":{}}}",
                c.op, c.name, c.value
            );
        }
        out
    }
}

/// Milliseconds of `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sums `(op, value)` pairs per op, keeping ops in first-seen order.
fn per_op(items: impl Iterator<Item = (u64, f64)>) -> Vec<f64> {
    let mut out: Vec<(u64, f64)> = Vec::new();
    for (op, v) in items {
        match out.iter_mut().find(|(o, _)| *o == op) {
            Some((_, sum)) => *sum += v,
            None => out.push((op, v)),
        }
    }
    out.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_per_op() {
        let tr = Tracer::default();
        tr.set_op(1);
        tr.span("outer", || {
            tr.span("inner", || std::thread::sleep(Duration::from_millis(2)));
            tr.span("inner", || std::thread::sleep(Duration::from_millis(2)));
        });
        tr.set_op(2);
        tr.span("inner", || ());
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        let inner = tr.per_op_ms("inner");
        assert_eq!(inner.len(), 2);
        assert!(inner[0] >= 4.0);
        assert_eq!(tr.per_op_ms_under("inner", "outer").len(), 1);
        assert!(tr.per_op_ms_under("inner", "other").is_empty());
        let outer_self = tr.per_op_self_ms("outer");
        assert_eq!(outer_self.len(), 1);
        assert!(outer_self[0] < tr.per_op_ms("outer")[0] - 3.9);
    }

    #[test]
    fn stages_are_children_of_the_open_span() {
        let tr = Tracer::default();
        let t = StageTimings {
            wavelet: Duration::from_millis(3),
            quantize_encode: Duration::from_millis(2),
            format: Duration::from_millis(1),
            ..StageTimings::default()
        };
        tr.span("core.compress", || tr.stages(&t));
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        assert_eq!(tr.per_op_ms("quant.encode"), vec![2.0]);
        assert_eq!(spans[2].start, spans[1].start + spans[1].dur);
    }

    #[test]
    fn counters_sum_per_op_and_jsonl_has_one_line_each() {
        let tr = Tracer::default();
        tr.set_op(7);
        tr.count("serve.tokens", 3.0);
        tr.count("serve.tokens", 2.0);
        tr.span("x", || ());
        assert_eq!(tr.per_op_count("serve.tokens"), vec![5.0]);
        let text = tr.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}

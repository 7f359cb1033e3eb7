//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Kept in memory, written once at exit as a Chrome trace.
//!
//! All spans come from the one generator thread, so they nest strictly
//! and a stack of open spans gives every span its parent. A layer's
//! *self time* is its span minus the part its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use spawn_merge::obs::json::Json;

/// Parent id of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;
/// Op id of a span that belongs to no timed op (set-up, probes).
pub const NO_OP: u64 = u64::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span. Ending a span also ends any span still open
/// inside it (an early `?` return on a failed op abandons its children).
#[derive(Debug, Clone, Copy)]
#[must_use = "a span measures nothing unless ended"]
pub struct Open(u32);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Tracer {
    /// A tracer that records nothing and reads no clock.
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: NO_OP,
        }
    }

    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Spans begun from here on belong to op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op: self.op,
        });
        self.open.push(id);
        Open(id)
    }

    pub fn end(&mut self, span: Open) {
        if !self.on || !self.open.contains(&span.0) {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == span.0 {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur());
        }
    }
    own
}

/// For one span name: the summed duration per op, in op order. A name
/// that occurs several times in an op (two frame encodes) counts once,
/// with the sum; spans outside any op (set-up) count one by one.
pub fn per_op_sums(spans: &[Span], name: &str) -> Vec<u64> {
    let mut by_op: BTreeMap<u64, u64> = BTreeMap::new();
    let mut out = Vec::new();
    for s in spans.iter().filter(|s| s.name == name) {
        if s.op == NO_OP {
            out.push(s.dur());
        } else {
            *by_op.entry(s.op).or_default() += s.dur();
        }
    }
    out.extend(by_op.into_values());
    out
}

/// Rough size of one rendered event; only steers the sampling stride.
const EVENT_BYTES: usize = 160;

/// Render a Chrome trace-event document (`chrome://tracing`, Perfetto)
/// no larger than `max_bytes`: whole ops are dropped by a stride on the
/// op id, so every op that is kept keeps all of its spans.
pub fn chrome_json(spans: &[Span], max_bytes: usize) -> String {
    let mut stride = (spans.len() * EVENT_BYTES)
        .div_ceil(max_bytes.max(1))
        .max(1) as u64;
    let own = self_times(spans);
    loop {
        let events: Vec<Json> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.op == NO_OP || s.op % stride == 0)
            .map(|(id, s)| {
                let parent = match s.parent {
                    NO_PARENT => Json::Null,
                    p => Json::Num(f64::from(p)),
                };
                let op = match s.op {
                    NO_OP => Json::Null,
                    op => Json::Num(op as f64),
                };
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(s.name.split('.').next().unwrap_or(""))),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur() as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            ("parent", parent),
                            ("op", op),
                            ("self_us", Json::Num(own[id] as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("displayTimeUnit", Json::str("ns")),
            ("sampledEveryNthOp", Json::Num(stride as f64)),
            ("traceEvents", Json::Arr(events)),
        ])
        .to_string();
        if doc.len() <= max_bytes || stride > spans.len() as u64 {
            return doc;
        }
        stride *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, op: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("a.op", 0, 100, NO_PARENT, 0),
            span("b.child", 10, 40, 0, 0),
            span("c.grandchild", 15, 25, 1, 0),
            span("b.child", 50, 70, 0, 0),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        assert_eq!(per_op_sums(&spans, "b.child"), vec![50]);
    }

    #[test]
    fn tracer_nests_by_open_stack_and_off_records_nothing() {
        let mut t = Tracer::on();
        t.set_op(7);
        let a = t.begin("a");
        let b = t.begin("b");
        t.end(b);
        let c = t.begin("c");
        t.end(c);
        t.end(a);
        let parents: Vec<u32> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NO_PARENT, 0, 0]);
        assert!(t
            .spans()
            .iter()
            .all(|s| s.op == 7 && s.end_ns >= s.start_ns));

        let mut off = Tracer::off();
        let s = off.begin("a");
        off.end(s);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_and_respects_the_size_cap() {
        let spans: Vec<Span> = (0..2_000)
            .map(|i| span("x.y", i * 10, i * 10 + 5, NO_PARENT, i))
            .collect();
        let doc = chrome_json(&spans, 64 << 10);
        assert!(doc.len() <= 64 << 10);
        let parsed = spawn_merge::obs::json::parse(&doc).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(!events.is_empty() && events.len() < 2_000);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
    }
}

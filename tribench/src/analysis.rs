//! Turns a traced epoch — the service's `TraceEvent` stream plus the
//! client's own timestamps — into per-request stages, spans and the
//! per-layer service metrics.
//!
//! Two joins recover per-request timing from events that do not carry
//! request ids past admission:
//! * **Flush ↔ Served:** each `Served` takes the earliest unmatched
//!   `Flush` with the same size, occupancy and reason.
//! * **Admit → Flush:** per size class, flushes take admitted ids in
//!   admission order. Buckets of one size flush oldest first, so this is
//!   exact for full buckets and for linger flushes at distinct ticks;
//!   flushes that share a tick are interchangeable for timing.
//!
//! With one worker the device queue is FIFO, so a flush starts being
//! served at the later of its own flush tick and the previous `Served`.

use gpu_sim::Tick;
use solver_service::{FlushReason, TraceEvent};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;

/// One client operation (a step, a call or a request) and the service
/// requests it waited for. Ticks are on the service's clock.
pub struct OpRecord {
    pub start: Tick,
    pub end: Tick,
    pub requests: Vec<RequestRecord>,
}

pub struct RequestRecord {
    /// The service-assigned id (`Ticket::id`, `SolveResponse::id`).
    pub id: u64,
    /// The client's span around `submit`, when it called it directly.
    pub submit: Option<(Tick, Tick)>,
    /// When the client had the answer in hand.
    pub done: Tick,
}

#[derive(Debug, Clone, PartialEq)]
pub struct FlushTimes {
    pub n: u64,
    pub occupancy: u64,
    pub flushed: Tick,
    /// When the worker began serving it (after any device-queue wait).
    pub started: Option<Tick>,
    pub served: Option<Tick>,
    pub engine_ns: u64,
    pub engine: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTimes {
    pub admitted: Tick,
    /// Index into [`Joined::flushes`].
    pub flush: Option<usize>,
}

#[derive(Debug, Default)]
pub struct Joined {
    pub flushes: Vec<FlushTimes>,
    pub requests: HashMap<u64, RequestTimes>,
    /// Admission order of request ids.
    pub admitted: Vec<u64>,
    pub linger_flushes: u64,
    pub factor_hits: u64,
    pub factor_misses: u64,
    pub factor_evictions: u64,
    pub cert_skips: u64,
}

pub fn join(events: &[TraceEvent]) -> Joined {
    let mut j = Joined::default();
    let mut unmatched: HashMap<(u64, u64, &str), VecDeque<usize>> = HashMap::new();
    let mut pending: HashMap<u64, VecDeque<u64>> = HashMap::new();
    let mut last_served: Option<Tick> = None;
    for event in events {
        match event {
            TraceEvent::Admit { at, id, n } => {
                j.requests.insert(*id, RequestTimes { admitted: *at, flush: None });
                j.admitted.push(*id);
                pending.entry(*n).or_default().push_back(*id);
            }
            TraceEvent::Flush { at, n, occupancy, reason } => {
                let idx = j.flushes.len();
                j.flushes.push(FlushTimes {
                    n: *n,
                    occupancy: *occupancy,
                    flushed: *at,
                    started: None,
                    served: None,
                    engine_ns: 0,
                    engine: String::new(),
                });
                if *reason == FlushReason::Linger {
                    j.linger_flushes += 1;
                }
                unmatched.entry((*n, *occupancy, reason.label())).or_default().push_back(idx);
                let queue = pending.entry(*n).or_default();
                for _ in 0..*occupancy {
                    let Some(id) = queue.pop_front() else { break };
                    if let Some(r) = j.requests.get_mut(&id) {
                        r.flush = Some(idx);
                    }
                }
            }
            TraceEvent::Served { at, n, occupancy, engine, reason, engine_ns, .. } => {
                let Some(idx) = unmatched
                    .get_mut(&(*n, *occupancy, reason.label()))
                    .and_then(VecDeque::pop_front)
                else {
                    continue;
                };
                let f = &mut j.flushes[idx];
                f.started = Some(last_served.map_or(f.flushed, |prev| prev.max(f.flushed)));
                f.served = Some(*at);
                f.engine_ns = *engine_ns;
                f.engine = engine.clone();
                last_served = Some(*at);
            }
            TraceEvent::FactorHit { .. } => j.factor_hits += 1,
            TraceEvent::FactorMiss { .. } => j.factor_misses += 1,
            TraceEvent::FactorEvict { .. } => j.factor_evictions += 1,
            TraceEvent::CertSkipVerify { .. } => j.cert_skips += 1,
            _ => {}
        }
    }
    j
}

/// Per-flush spans (device-queue, dispatch with its engine) for an event
/// stream without client records, such as the harness's; bounded.
pub fn flush_spans(events: &[TraceEvent]) -> Vec<Span> {
    let mut spans = Vec::new();
    for (i, f) in join(events).flushes.iter().enumerate() {
        let (Some(started), Some(served)) = (f.started, f.served) else { continue };
        if spans.len() + 3 > SPAN_CAP {
            break;
        }
        let id = i as u64;
        spans.push(Span {
            name: "device-queue",
            id,
            parent: None,
            start: f.flushed,
            end: started,
            lane: 2,
        });
        let dispatch = spans.len();
        spans.push(Span {
            name: "dispatch",
            id,
            parent: None,
            start: started,
            end: served,
            lane: 3,
        });
        let end = (started + f.engine_ns).min(served);
        spans.push(Span {
            name: "engine",
            id,
            parent: Some(dispatch),
            start: started,
            end,
            lane: 3,
        });
    }
    spans
}

/// One span of the Chrome trace: `[start, end)` on the service clock.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    pub start: Tick,
    pub end: Tick,
    /// Timeline lane: 1 client, 2 batcher, 3 worker.
    pub lane: u32,
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
pub fn coverage(intervals: &mut [(Tick, Tick)], lo: Tick, hi: Tick) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Per-layer service metrics accumulated over every traced epoch.
#[derive(Default)]
pub struct ServiceStages {
    pub submit_ns: Vec<u64>,
    pub admit_to_flush_ns: Vec<u64>,
    pub device_queue_ns: Vec<u64>,
    pub flush_to_served_ns: Vec<u64>,
    pub served_to_client_ns: Vec<u64>,
    pub engine_ns: u64,
    pub dispatch_overhead_ns: u64,
    pub rows: u64,
    pub busy_span_ns: u64,
    pub flushes: u64,
    pub served_systems: u64,
    pub gpu_systems: u64,
    pub linger_flushes: u64,
    pub admitted: u64,
    pub factor_hits: u64,
    pub factor_lookups: u64,
    pub factor_evictions: u64,
    pub cert_skips: u64,
    pub op_ns: u64,
    pub unattributed_ns: u64,
    /// Span name → (total ns, self ns).
    pub self_time: Vec<(&'static str, u64, u64)>,
    /// Spans kept for the Chrome trace (bounded).
    pub spans: Vec<Span>,
}

/// Spans kept for the Chrome trace file; metrics use every span.
const SPAN_CAP: usize = 60_000;

impl ServiceStages {
    /// Folds one epoch's events (and client records, when the client
    /// drove a real-clock service) into the accumulators.
    pub fn add(&mut self, events: &[TraceEvent], ops: &[OpRecord]) {
        let j = join(events);
        self.linger_flushes += j.linger_flushes;
        self.admitted += j.admitted.len() as u64;
        self.factor_hits += j.factor_hits;
        self.factor_lookups += j.factor_hits + j.factor_misses;
        self.factor_evictions += j.factor_evictions;
        self.cert_skips += j.cert_skips;
        let first_admit = j.admitted.first().map(|id| j.requests[id].admitted);
        let mut last_served = None;
        for f in &j.flushes {
            let (Some(started), Some(served)) = (f.started, f.served) else { continue };
            let rows = f.n * f.occupancy;
            self.flushes += 1;
            self.rows += rows;
            self.served_systems += f.occupancy;
            if !f.engine.starts_with("cpu") {
                self.gpu_systems += f.occupancy;
            }
            self.engine_ns += f.engine_ns;
            self.dispatch_overhead_ns += served.saturating_sub(started).saturating_sub(f.engine_ns);
            self.device_queue_ns.push(started.saturating_sub(f.flushed));
            self.flush_to_served_ns.push(served.saturating_sub(f.flushed));
            last_served = Some(last_served.map_or(served, |l: Tick| l.max(served)));
        }
        if let (Some(a), Some(s)) = (first_admit, last_served) {
            self.busy_span_ns += s.saturating_sub(a);
        }
        for r in j.requests.values() {
            if let Some(f) = r.flush {
                self.admit_to_flush_ns.push(j.flushes[f].flushed.saturating_sub(r.admitted));
            }
        }
        for (op_id, op) in ops.iter().enumerate() {
            self.add_op(op_id as u64, op, &j);
        }
    }

    /// Splits one client operation into its requests' stages: submit,
    /// queue+linger, device-queue, dispatch (with the engine inside it)
    /// and served-to-client. Whatever of the operation no stage covers is
    /// unattributed.
    fn add_op(&mut self, op_id: u64, op: &OpRecord, j: &Joined) {
        let mut stages: Vec<Stage> = Vec::new();
        let mut prev_admit = op.start;
        for req in &op.requests {
            let Some(times) = j.requests.get(&req.id) else { continue };
            // A call that submits internally (solve_many_rhs) has no client
            // submit span: its admission runs from the previous admit.
            let admitted = times.admitted.max(prev_admit);
            let submit = req.submit.unwrap_or((prev_admit, admitted));
            prev_admit = admitted;
            self.submit_ns.push(submit.1.saturating_sub(submit.0));
            stages.push(Stage::new("submit", req.id, submit.0, submit.1));
            let Some(f) = times.flush.map(|i| &j.flushes[i]) else { continue };
            stages.push(Stage::new("queue+linger", req.id, times.admitted, f.flushed));
            let (Some(started), Some(served)) = (f.started, f.served) else { continue };
            stages.push(Stage::new("device-queue", req.id, f.flushed, started));
            let mut dispatch = Stage::new("dispatch", req.id, started, served);
            dispatch.engine = f.engine_ns.min(served.saturating_sub(started));
            stages.push(dispatch);
            stages.push(Stage::new("served-to-client", req.id, served, req.done.max(served)));
            self.served_to_client_ns.push(req.done.saturating_sub(served));
        }
        for s in &stages {
            let dur = s.end - s.start;
            self.note_self(s.name, dur, dur - s.engine);
            if s.engine > 0 {
                self.note_self("engine", s.engine, s.engine);
            }
        }
        let dur = op.end.saturating_sub(op.start);
        let mut intervals: Vec<(Tick, Tick)> = stages.iter().map(|s| (s.start, s.end)).collect();
        let covered = coverage(&mut intervals, op.start, op.end);
        self.op_ns += dur;
        self.unattributed_ns += dur - covered;
        self.note_self("op", dur, dur - covered);

        if self.spans.len() + 1 + 2 * stages.len() > SPAN_CAP {
            return;
        }
        let root = self.spans.len();
        self.spans.push(Span {
            name: "op",
            id: op_id,
            parent: None,
            start: op.start,
            end: op.end,
            lane: 1,
        });
        for s in &stages {
            let idx = self.spans.len();
            self.spans.push(Span {
                name: s.name,
                id: s.id,
                parent: Some(root),
                start: s.start,
                end: s.end,
                lane: lane(s.name),
            });
            if s.engine > 0 {
                self.spans.push(Span {
                    name: "engine",
                    id: s.id,
                    parent: Some(idx),
                    start: s.start,
                    end: s.start + s.engine,
                    lane: 3,
                });
            }
        }
    }

    fn note_self(&mut self, name: &'static str, total: u64, own: u64) {
        match self.self_time.iter_mut().find(|s| s.0 == name) {
            Some(s) => {
                s.1 += total;
                s.2 += own;
            }
            None => self.self_time.push((name, total, own)),
        }
    }

    /// Self time per span name, as notes for the human-readable output.
    pub fn self_time_notes(&self) -> Vec<String> {
        self.self_time
            .iter()
            .map(|(name, total, own)| {
                format!(
                    "span {name:<18} total {:>12.3} ms  self {:>12.3} ms",
                    *total as f64 / 1e6,
                    *own as f64 / 1e6
                )
            })
            .collect()
    }
}

/// One stage of one request inside a client operation.
struct Stage {
    name: &'static str,
    id: u64,
    start: Tick,
    end: Tick,
    /// Engine time inside the stage (dispatch only).
    engine: u64,
}

impl Stage {
    fn new(name: &'static str, id: u64, start: Tick, end: Tick) -> Self {
        Stage { name, id, start, end: end.max(start), engine: 0 }
    }
}

fn lane(name: &str) -> u32 {
    match name {
        "queue+linger" => 2,
        "device-queue" | "dispatch" | "engine" => 3,
        _ => 1,
    }
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) for `spans`,
/// one process per entry of `groups`.
pub fn chrome_trace(groups: &[(&str, &[Span])]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (pid, (label, spans)) in groups.iter().enumerate() {
        let pid = pid + 1;
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{label}\"}}}}"
        );
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":{},\
                 \"args\":{{\"id\":{},\"parent\":{parent}}}}}",
                s.name,
                s.start as f64 / 1e3,
                s.end.saturating_sub(s.start) as f64 / 1e3,
                s.lane,
                s.id
            );
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flush(at: Tick, n: u64, occupancy: u64, reason: FlushReason) -> TraceEvent {
        TraceEvent::Flush { at, n, occupancy, reason }
    }

    fn served(at: Tick, n: u64, occupancy: u64, reason: FlushReason, engine_ns: u64) -> TraceEvent {
        TraceEvent::Served {
            at,
            n,
            occupancy,
            engine: "cpu-thomas".into(),
            reason,
            engine_ns,
            repairs: 0,
            degraded: false,
        }
    }

    #[test]
    fn flush_served_pairing_and_admit_flush_join() {
        use FlushReason::{Full, Linger};
        let events = vec![
            TraceEvent::Admit { at: 0, id: 0, n: 64 },
            TraceEvent::Admit { at: 1, id: 1, n: 128 },
            TraceEvent::Admit { at: 2, id: 2, n: 64 },
            TraceEvent::Admit { at: 3, id: 3, n: 64 },
            flush(10, 64, 2, Full),    // ids 0, 2
            flush(12, 128, 1, Linger), // id 1
            served(20, 64, 2, Full, 5),
            flush(21, 64, 1, Linger), // id 3
            served(30, 128, 1, Linger, 4),
            served(40, 64, 1, Linger, 6),
        ];
        let j = join(&events);
        assert_eq!(j.flushes.len(), 3);
        let flush_of = |id: u64| j.requests[&id].flush.unwrap();
        assert_eq!((flush_of(0), flush_of(2), flush_of(1), flush_of(3)), (0, 0, 1, 2));
        // Served pairs by (n, occupancy, reason), not by position.
        assert_eq!(j.flushes[1].served, Some(30));
        assert_eq!(j.flushes[2].served, Some(40));
        // One worker: a flush starts when the previous one was served.
        assert_eq!(j.flushes[0].started, Some(10));
        assert_eq!(j.flushes[1].started, Some(20));
        assert_eq!(j.flushes[2].started, Some(30));
        assert_eq!(j.linger_flushes, 2);

        let mut stages = ServiceStages::default();
        let op = OpRecord {
            start: 0,
            end: 45,
            requests: vec![
                RequestRecord { id: 0, submit: Some((0, 1)), done: 41 },
                RequestRecord { id: 3, submit: Some((3, 4)), done: 45 },
            ],
        };
        stages.add(&events, &[op]);
        assert_eq!(stages.flushes, 3);
        assert_eq!(stages.rows, 64 * 2 + 128 + 64);
        assert_eq!(stages.engine_ns, 15);
        // Dispatch overhead: (20-10-5) + (30-20-4) + (40-30-6).
        assert_eq!(stages.dispatch_overhead_ns, 5 + 6 + 4);
        // Request 0 covers [0,1] and [0,41]; request 3 [3,45]: all of [0,45].
        assert_eq!(stages.unattributed_ns, 0);
        assert_eq!(stages.op_ns, 45);
    }

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 8), (0, 2), (1, 3), (7, 20)];
        assert_eq!(coverage(&mut iv, 0, 10), 3 + 5);
    }
}

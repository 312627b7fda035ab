//! The sim-clock serving loop (DESIGN.md §10.2): one thread merges arrival
//! ticks with the bucket table's linger and deadline flushes, admits or
//! rejects each arrival through the table's admission step (the one the
//! threaded service calls), hands every flush to a [`Sink`], and scores
//! every answer against the system it admitted, never trusting the
//! residual a response reports.
//!
//! The trace-lab harness (one launcher), the `repro pool` scaling cell (a
//! device pool) and the cluster service (ring routing, hedged RPCs, local
//! degrade) are sinks of [`drive`]: where a flush is served is the loop's
//! only variable. A sink's timer (the cluster's gossip) is pumped at every
//! tick before any work and again after every serve. The three tie-break
//! rules, fixed forever (changing one changes every captured trace), are
//! commented where they apply. The loop ends once every arrival is in and
//! every bucket has flushed.

use crate::batcher::{Admitted, BucketTable, FlushedBatch};
use crate::request::{request_for, Ticket};
use crate::trace::{TraceEvent, TraceHandle};
use gpu_sim::{Clock, Tick};
use std::collections::HashMap;
use std::sync::Arc;
use tridiag_core::residual::Scorer;
use tridiag_core::{Matrix, MatrixKey, Real, TridiagonalSystem};

/// Where the driver serves a flush.
///
/// Any `FnMut(FlushedBatch<T>)` that serves the flush is a sink with no
/// timer.
pub trait Sink<T: Real> {
    /// Serves `flush`, putting an answer in every request's ticket before
    /// it returns.
    fn serve(&mut self, flush: FlushedBatch<T>);

    /// Runs the sink's periodic work due at or before `now` and returns
    /// the tick it is next due at; `None` (the default) is no timer.
    fn pump(&mut self, _now: Tick) -> Option<Tick> {
        None
    }
}

impl<T: Real, F: FnMut(FlushedBatch<T>)> Sink<T> for F {
    fn serve(&mut self, flush: FlushedBatch<T>) {
        self(flush)
    }
}

/// One arrival's system: the matrix it solves against (several arrivals
/// may share one), its right-hand side, and the matrix's key when the
/// factor cache or the certificate catalog should see it.
#[derive(Debug, Clone)]
pub struct Arrival<T: Real> {
    /// The coefficient matrix.
    pub matrix: Arc<Matrix<T>>,
    /// The right-hand side.
    pub d: Vec<T>,
    /// The matrix's identity, for keyed batching.
    pub key: Option<MatrixKey>,
}

impl<T: Real> From<TridiagonalSystem<T>> for Arrival<T> {
    /// An unkeyed arrival owning `system`'s vectors.
    fn from(system: TridiagonalSystem<T>) -> Self {
        let (matrix, d) = system.into_parts();
        Self { matrix: Arc::new(matrix), d, key: None }
    }
}

/// What one driven run served, counted by the driver.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Per admitted request, admission → answer on the sim clock, ns, in
    /// submission order (index = request id). Its length is the number
    /// served: every admitted request is served.
    pub latencies_ns: Vec<u64>,
    /// Arrivals shed at admission.
    pub rejected: u64,
    /// Answers whose residual, recomputed against the system admitted,
    /// is non-finite or at least
    /// [`RESIDUAL_BOUND`](tridiag_core::residual::RESIDUAL_BOUND).
    pub wrong: u64,
    /// Answers the verify step repaired with GEP.
    pub repairs: u64,
}

/// An admitted request not yet served: its ticket, and the system it was
/// sent, kept to score the answer and dropped once it is served.
struct Outstanding<T: Real> {
    ticket: Ticket<T>,
    matrix: Arc<Matrix<T>>,
    d: Vec<T>,
}

/// The loop's serving half: the sink, what waits on it, and the tally.
struct Served<'a, T: Real, S> {
    sink: &'a mut S,
    clock: &'a Clock,
    trace: &'a TraceHandle,
    pending: HashMap<u64, Outstanding<T>>,
    tally: Tally,
    scorer: Scorer,
    timer: Option<Tick>,
}

impl<T: Real, S: Sink<T>> Served<'_, T, S> {
    fn pump(&mut self) {
        self.timer = self.sink.pump(self.clock.now());
    }

    /// Emits `Flush`, has the sink serve the batch, scores and tallies
    /// every answer, then pumps the sink's timer.
    fn serve(&mut self, flush: FlushedBatch<T>) {
        self.trace.emit(|| TraceEvent::Flush {
            at: self.clock.now(),
            n: flush.n as u64,
            occupancy: flush.requests.len() as u64,
            reason: flush.reason,
        });
        let ids: Vec<u64> = flush.requests.iter().map(|r| r.id).collect();
        self.sink.serve(flush);
        for id in ids {
            let sent = self.pending.remove(&id).expect("every request is admitted once");
            let answer = sent.ticket.try_take().expect("the sink answers every request it serves");
            self.tally.latencies_ns[id as usize] =
                answer.latency.as_nanos().min(u64::MAX as u128) as u64;
            self.scorer.score(sent.matrix.with_rhs(&sent.d), &answer.x);
            self.tally.repairs += u64::from(answer.repaired);
        }
        self.pump();
    }
}

/// Runs `arrivals` (arrival ticks, non-decreasing) through `table` into
/// `sink` on `clock`, tracing to `trace`, and returns the tally.
/// `next_arrival(i)` generates arrival `i`'s system when its tick comes
/// due, before admission, so a rejected arrival still draws; the table's
/// admission step rejects an arrival while its capacity of requests waits
/// in buckets.
pub fn drive<T: Real, S: Sink<T>>(
    sink: &mut S,
    mut table: BucketTable<T>,
    arrivals: &[Tick],
    mut next_arrival: impl FnMut(usize) -> Arrival<T>,
    clock: &Clock,
    trace: &TraceHandle,
) -> Tally {
    let mut served = Served {
        sink,
        clock,
        trace,
        pending: HashMap::new(),
        tally: Tally::default(),
        scorer: Scorer::default(),
        timer: None,
    };
    served.pump();
    let mut i = 0usize;
    while i < arrivals.len() || table.pending() > 0 {
        let next = [arrivals.get(i).copied(), table.next_deadline(), served.timer]
            .into_iter()
            .flatten()
            .min()
            .expect("an arrival or a bucket is pending");
        clock.advance_to(next);
        served.pump();

        // Rule 1: due flushes fire before arrivals at the same tick.
        for flush in table.flush_expired(clock.now()) {
            served.serve(flush);
        }

        // Rules 2–3: arrivals now due are admitted in index order, and a
        // flush an insert triggers (bucket full) is served before the next
        // arrival is considered. (Serving moves the clock, which can make
        // further arrivals due: the one server was busy.)
        while i < arrivals.len() && arrivals[i] <= clock.now() {
            let Arrival { matrix, d, key } = next_arrival(i);
            i += 1;
            let (at, id) = (clock.now(), served.tally.latencies_ns.len() as u64);
            let sent = d.clone();
            let (request, ticket) = request_for(id, Arc::clone(&matrix), d, at, None, key);
            let Ok(admitted) = table.admit(request, at, trace) else {
                served.tally.rejected += 1;
                continue;
            };
            served.tally.latencies_ns.push(0);
            served.pending.insert(id, Outstanding { ticket, matrix, d: sent });
            if let Admitted::Full(flush) = admitted {
                served.serve(flush);
            }
        }
    }
    debug_assert!(served.pending.is_empty(), "every admitted request served");
    Tally { wrong: served.scorer.wrong, ..served.tally }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::FlushReason;
    use crate::breaker::CircuitBreakers;
    use crate::dispatch::{serve_flush, DeviceCtx, DispatchConfig};
    use crate::metrics::ServiceMetrics;
    use crate::planner::{CpuEngine, Engine, PlanCache};
    use crate::request::SolveResponse;
    use gpu_sim::Launcher;
    use std::time::Duration;
    use tridiag_core::{Generator, Workload};

    const MS: Tick = 1_000_000;

    /// Serves on pinned CPU Thomas and records each flush's tick, size,
    /// reason and the timer rounds run before it, with a timer every
    /// `period` ticks.
    struct Probe {
        launcher: Launcher,
        plans: PlanCache,
        breakers: CircuitBreakers,
        metrics: ServiceMetrics,
        cfg: DispatchConfig,
        period: Tick,
        next_round: Tick,
        flushes: Vec<(Tick, usize, FlushReason, usize)>,
        rounds: Vec<Tick>,
    }

    impl Probe {
        fn new(clock: &Clock, period: Tick) -> Self {
            Probe {
                launcher: Launcher::gtx280(),
                plans: PlanCache::new(),
                breakers: CircuitBreakers::default(),
                metrics: ServiceMetrics::new(),
                cfg: DispatchConfig {
                    pin_engine: Some(Engine::Cpu(CpuEngine::Thomas)),
                    sanitize_first_flush: false,
                    clock: clock.clone(),
                    ..DispatchConfig::default()
                },
                period,
                next_round: period,
                flushes: Vec::new(),
                rounds: Vec::new(),
            }
        }
    }

    impl Sink<f32> for Probe {
        fn serve(&mut self, flush: FlushedBatch<f32>) {
            self.flushes.push((self.cfg.clock.now(), flush.n, flush.reason, self.rounds.len()));
            let device = DeviceCtx::solo(&self.launcher);
            serve_flush(device, &self.plans, &self.breakers, &self.metrics, &self.cfg, flush);
        }

        fn pump(&mut self, now: Tick) -> Option<Tick> {
            while now >= self.next_round {
                self.rounds.push(now);
                self.next_round += self.period;
            }
            Some(self.next_round)
        }
    }

    fn system(seed: u64, n: usize) -> Arrival<f32> {
        Generator::new(seed).system::<f32>(Workload::DiagonallyDominant, n).into()
    }

    #[test]
    fn flushes_follow_the_tie_break_rules_and_the_timer_runs_first() {
        let clock = Clock::sim();
        let mut probe = Probe::new(&clock, MS);
        // Three 64s fill a bucket at tick 0 and are served at once (rule
        // 3); a lone 32 lingers out; a 128 and a 32 linger out together at
        // 6 ms, in ascending size order, after that tick's timer round.
        let arrivals = [0, 0, 0, 10_000, 5 * MS, 5 * MS];
        let sizes = [64, 64, 64, 32, 128, 32];
        let tally = drive(
            &mut probe,
            BucketTable::new(3, Duration::from_millis(1)),
            &arrivals,
            |i| system(i as u64, sizes[i]),
            &clock,
            &TraceHandle::disabled(),
        );
        let flushes: Vec<(usize, FlushReason)> =
            probe.flushes.iter().map(|&(_, n, reason, _)| (n, reason)).collect();
        assert_eq!(
            flushes,
            [
                (64, FlushReason::Full),
                (32, FlushReason::Linger),
                (32, FlushReason::Linger),
                (128, FlushReason::Linger)
            ]
        );
        assert_eq!(probe.flushes[0].0, 0);
        assert_eq!(probe.flushes[1].0, MS + 10_000);
        assert_eq!(probe.flushes[2].0, 6 * MS);
        assert_eq!(probe.rounds, [MS, 2 * MS, 3 * MS, 4 * MS, 5 * MS, 6 * MS]);
        assert_eq!(tally.latencies_ns.len(), 6);
        assert_eq!((tally.rejected, tally.wrong, tally.repairs), (0, 0, 0));
    }

    #[test]
    fn the_timer_runs_after_a_serve_before_the_next_arrival() {
        // Six arrivals at tick 0 fill two buckets of 3. Serving the first
        // moves the clock past 1 µs timer rounds, which must run before
        // the arrivals that fill the second bucket are admitted.
        let clock = Clock::sim();
        let mut probe = Probe::new(&clock, 1_000);
        drive(
            &mut probe,
            BucketTable::new(3, Duration::from_millis(1)),
            &[0; 6],
            |i| system(i as u64, 64),
            &clock,
            &TraceHandle::disabled(),
        );
        let [(0, 64, FlushReason::Full, 0), (second, 64, FlushReason::Full, rounds)] =
            probe.flushes[..]
        else {
            panic!("two full flushes expected: {:?}", probe.flushes);
        };
        assert!(second >= 1_000, "the first serve took no sim time");
        assert_eq!(rounds as Tick, second / 1_000, "rounds due by the second serve ran first");
    }

    #[test]
    fn a_full_queue_rejects_but_every_arrival_still_draws() {
        let clock = Clock::sim();
        let mut drawn = Vec::new();
        let tally = drive(
            &mut Probe::new(&clock, MS),
            BucketTable::new(8, Duration::from_millis(1)).with_capacity(2),
            &[0, 0, 0, 0],
            |i| {
                drawn.push(i);
                system(i as u64, 16)
            },
            &clock,
            &TraceHandle::disabled(),
        );
        assert_eq!(drawn, [0, 1, 2, 3], "every arrival draws, in index order");
        assert_eq!((tally.latencies_ns.len(), tally.rejected, tally.wrong), (2, 2, 0));
    }

    #[test]
    fn the_tally_scores_answers_against_the_system_sent() {
        // A sink that answers zeros and reports a perfect residual.
        let mut liar = |flush: FlushedBatch<f32>| {
            for request in flush.requests {
                let response = SolveResponse {
                    id: request.id,
                    x: vec![0.0; request.n()],
                    matrix: Arc::clone(&request.matrix),
                    residual: 0.0,
                    engine: "liar".into(),
                    repaired: false,
                    batch_occupancy: 1,
                    latency: Duration::ZERO,
                    deadline_missed: false,
                };
                request.answer(response);
            }
        };
        let tally = drive(
            &mut liar,
            BucketTable::new(2, Duration::from_millis(1)),
            &[0, 0, 0],
            |i| system(i as u64, 32),
            &Clock::sim(),
            &TraceHandle::disabled(),
        );
        assert_eq!(tally.wrong, 3, "a reported residual of 0 must not hide a zero answer");
    }
}

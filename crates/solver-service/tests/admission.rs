//! The admission path end to end on real-clock services:
//! * `solve_many_rhs`'s contract — answers in `rhs_list` order and
//!   bit-identical to one `submit` per right-hand side, validation before
//!   any request is admitted, the empty call, and calls larger than the
//!   queue, with and without the client retry;
//! * one validation for both front doors — a `submit` whose right-hand
//!   side does not fit its matrix is rejected like a `solve_many_rhs` one;
//! * trace order — every request's `Admit` precedes the `Flush` carrying
//!   it, with `submit` and `solve_many_rhs` callers racing;
//! * lost wake-ups — the tickets wake only parked threads, and a stress
//!   run must still answer every ticket within a fixed timeout.

use solver_service::{
    CpuEngine, Engine, RejectReason, ServiceConfig, ServiceError, SolverService, TraceEvent,
    TraceHandle, TraceSink,
};
use std::collections::HashMap;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use tridiag_core::{Generator, TridiagError, TridiagonalSystem, Workload};

/// A service that serves every flush with CPU Thomas, so answers do not
/// depend on which flush a request rode in.
fn pinned(target_batch: usize) -> ServiceConfig {
    ServiceConfig {
        target_batch,
        max_linger: Duration::from_micros(200),
        workers: 2,
        pin_engine: Some(Engine::Cpu(CpuEngine::Thomas)),
        sanitize_first_flush: false,
        ..ServiceConfig::default()
    }
}

/// One dominant matrix of size `n` and `count` right-hand sides for it.
fn matrix_and_rhs(seed: u64, n: usize, count: usize) -> (TridiagonalSystem<f32>, Vec<Vec<f32>>) {
    let mut generator = Generator::new(seed);
    let system: TridiagonalSystem<f32> = generator.system(Workload::DiagonallyDominant, n);
    let rhs =
        (0..count).map(|_| generator.system::<f32>(Workload::DiagonallyDominant, n).d).collect();
    (system, rhs)
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn solve_many_rhs_answers_in_order_and_matches_one_submit_per_rhs() {
    let (system, rhs) = matrix_and_rhs(1, 96, 37);
    let many = SolverService::<f32>::start(pinned(64));
    let answers = many.solve_many_rhs(&system.a, &system.b, &system.c, &rhs).unwrap();
    assert_eq!(answers.len(), rhs.len());
    let ids: Vec<u64> = answers.iter().map(|r| r.id).collect();
    assert_eq!(ids, (0..rhs.len() as u64).collect::<Vec<_>>(), "rhs_list order");

    let one = SolverService::<f32>::start(pinned(64));
    for (d, answer) in rhs.iter().zip(&answers) {
        let single = TridiagonalSystem { d: d.clone(), ..system.clone() };
        let reference = one.submit_wait(single).unwrap();
        assert_eq!(reference.batch_occupancy, 1, "one submit, one flush");
        assert_eq!(bits(&answer.x), bits(&reference.x), "answer {}", answer.id);
        assert_eq!(answer.residual.to_bits(), reference.residual.to_bits());
    }
    assert_eq!(many.shutdown().completed, rhs.len() as u64);
}

#[test]
fn a_wrong_length_rhs_fails_before_any_request_is_admitted() {
    let (system, mut rhs) = matrix_and_rhs(2, 64, 8);
    rhs[5].pop();
    let service = SolverService::<f32>::start(pinned(64));
    match service.solve_many_rhs(&system.a, &system.b, &system.c, &rhs) {
        Err(ServiceError::InvalidRequest(TridiagError::DimensionMismatch {
            what: "d",
            expected: 64,
            got: 63,
        })) => {}
        other => panic!("expected a dimension mismatch, got {other:?}"),
    }
    let snap = service.shutdown();
    assert_eq!((snap.submitted, snap.completed), (0, 0), "nothing was admitted");
}

#[test]
fn an_empty_rhs_list_is_an_empty_answer() {
    let (system, _) = matrix_and_rhs(3, 64, 0);
    let service = SolverService::<f32>::start(pinned(64));
    let answers = service.solve_many_rhs(&system.a, &system.b, &system.c, &[]).unwrap();
    assert!(answers.is_empty());
    assert_eq!(service.shutdown().submitted, 0);
}

#[test]
fn a_call_larger_than_the_queue_is_admitted_in_pieces() {
    let (system, rhs) = matrix_and_rhs(4, 64, 100);
    let config = ServiceConfig { queue_capacity: 8, ..pinned(16) };
    let service = SolverService::<f32>::start(config);
    let answers = service.solve_many_rhs(&system.a, &system.b, &system.c, &rhs).unwrap();
    assert_eq!(answers.len(), 100);
    for (i, answer) in answers.iter().enumerate() {
        assert_eq!(answer.id, i as u64);
        assert!(answer.residual < 1e-3, "answer {i}: {}", answer.residual);
    }
    let snap = service.shutdown();
    assert_eq!(snap.submitted, 100);
    assert_eq!(snap.rejected, 0, "waiting for room is not a rejection");
}

#[test]
fn without_the_client_retry_a_call_larger_than_the_queue_is_rejected() {
    let (system, rhs) = matrix_and_rhs(5, 64, 100);
    let config = ServiceConfig { queue_capacity: 8, client_retry: false, ..pinned(16) };
    let service = SolverService::<f32>::start(config);
    match service.solve_many_rhs(&system.a, &system.b, &system.c, &rhs) {
        Err(ServiceError::QueueFull { capacity: 8, .. }) => {}
        other => panic!("expected a full queue, got {other:?}"),
    }
    let snap = service.shutdown();
    assert_eq!((snap.submitted, snap.rejected), (8, 1), "the first piece went in, the rest not");
    assert_eq!(snap.completed, 8, "what was admitted is still served");
}

#[test]
fn a_submit_whose_rhs_does_not_fit_its_matrix_is_rejected() {
    let (mut system, _) = matrix_and_rhs(6, 64, 0);
    system.d.truncate(40);
    let sink = Arc::new(Collect(Mutex::new(Vec::new())));
    let config = ServiceConfig { trace: TraceHandle::to(sink.clone()), ..pinned(1) };
    let service = SolverService::<f32>::start(config);
    match service.submit(system) {
        Err(ServiceError::InvalidRequest(TridiagError::DimensionMismatch {
            what: "d",
            expected: 64,
            got: 40,
        })) => {}
        other => panic!("expected a dimension mismatch, got {other:?}"),
    }
    let snap = service.shutdown();
    assert_eq!((snap.submitted, snap.completed), (0, 0), "nothing was admitted");
    let events = sink.0.lock().unwrap();
    assert!(
        matches!(
            events.as_slice(),
            [TraceEvent::Reject { n: 64, reason: RejectReason::Invalid, .. }]
        ),
        "one rejection traced: {events:?}"
    );
}

struct Collect(Mutex<Vec<TraceEvent>>);

impl TraceSink for Collect {
    fn record(&self, event: TraceEvent) {
        self.0.lock().unwrap().push(event);
    }
}

#[test]
fn every_admit_precedes_the_flush_that_carries_it() {
    let sink = Arc::new(Collect(Mutex::new(Vec::new())));
    let config = ServiceConfig { trace: TraceHandle::to(sink.clone()), ..pinned(4) };
    let service = Arc::new(SolverService::<f32>::start(config));
    let callers: Vec<_> = (0..4u64)
        .map(|caller| {
            let service = service.clone();
            std::thread::spawn(move || {
                let mut ids = Vec::new();
                for round in 0..60u64 {
                    let (system, rhs) = matrix_and_rhs(100 * caller + round, 32, 9);
                    if caller % 2 == 0 {
                        let answers =
                            service.solve_many_rhs(&system.a, &system.b, &system.c, &rhs).unwrap();
                        ids.extend(answers.iter().map(|r| r.id));
                    } else {
                        let tickets: Vec<_> = rhs
                            .into_iter()
                            .map(|d| {
                                let single = TridiagonalSystem { d, ..system.clone() };
                                service.submit(single).unwrap()
                            })
                            .collect();
                        ids.extend(tickets.into_iter().map(|t| t.wait().id));
                    }
                }
                ids
            })
        })
        .collect();
    let mut served: Vec<u64> = callers.into_iter().flat_map(|c| c.join().unwrap()).collect();
    drop(Arc::into_inner(service).expect("callers are done").shutdown());
    served.sort_unstable();

    // Every served request was admitted exactly once, and at each flush
    // the admissions traced so far cover every request flushed so far:
    // a flush of k requests never comes before their k admits.
    let events = sink.0.lock().unwrap();
    let mut admitted: Vec<u64> = Vec::new();
    let mut flushed = 0u64;
    for (index, event) in events.iter().enumerate() {
        match event {
            TraceEvent::Admit { id, .. } => admitted.push(*id),
            TraceEvent::Flush { occupancy, .. } => {
                flushed += occupancy;
                assert!(
                    flushed <= admitted.len() as u64,
                    "event {index}: {flushed} requests flushed, {} admitted",
                    admitted.len()
                );
            }
            _ => {}
        }
    }
    admitted.sort_unstable();
    assert_eq!(admitted, served);
    assert_eq!(flushed, served.len() as u64);
}

/// Requests per stress run, per target batch.
const STRESS_REQUESTS: usize = 100_000;
const STRESS_CLIENTS: usize = 4;
/// Tickets one client keeps in flight.
const STRESS_WINDOW: usize = 48;
/// The whole run must finish within this; a lost wake-up hangs a client.
const STRESS_TIMEOUT: Duration = Duration::from_secs(120);

/// One client: keeps `STRESS_WINDOW` tickets in flight and collects them,
/// polling even ids with `try_take` and blocking on odd ones.
fn stress_client(service: &SolverService<f32>, client: usize, requests: usize) -> usize {
    let systems: Vec<TridiagonalSystem<f32>> = {
        let mut generator = Generator::new(client as u64);
        (0..8).map(|_| generator.system(Workload::DiagonallyDominant, 8)).collect()
    };
    let mut in_flight = Vec::with_capacity(STRESS_WINDOW);
    let mut answered = 0;
    let mut sent = 0;
    while answered < requests {
        while sent < requests && in_flight.len() < STRESS_WINDOW {
            let ticket = service.submit(systems[sent % systems.len()].clone()).unwrap();
            in_flight.push(ticket);
            sent += 1;
        }
        for ticket in in_flight.drain(..) {
            let response = if ticket.id() % 2 == 0 {
                loop {
                    match ticket.try_take() {
                        Some(response) => break response,
                        None => std::thread::yield_now(),
                    }
                }
            } else {
                ticket.wait()
            };
            assert_eq!(response.x.len(), 8);
            answered += 1;
        }
    }
    answered
}

#[test]
fn a_stress_run_answers_every_ticket_within_the_timeout() {
    for target_batch in [1, 64] {
        let service = Arc::new(SolverService::<f32>::start(pinned(target_batch)));
        let started = Instant::now();
        let (tx, rx) = mpsc::channel();
        let clients: Vec<_> = (0..STRESS_CLIENTS)
            .map(|client| {
                let (service, tx) = (service.clone(), tx.clone());
                std::thread::spawn(move || {
                    let answered =
                        stress_client(&service, client, STRESS_REQUESTS / STRESS_CLIENTS);
                    let _ = tx.send((client, answered));
                })
            })
            .collect();
        drop(tx);
        let mut answered = HashMap::new();
        while answered.len() < STRESS_CLIENTS {
            let left = STRESS_TIMEOUT.saturating_sub(started.elapsed());
            match rx.recv_timeout(left) {
                Ok((client, count)) => {
                    answered.insert(client, count);
                }
                Err(e) => panic!(
                    "target batch {target_batch}: {} of {STRESS_CLIENTS} clients done after \
                     {:?} ({e}): a wake-up was lost",
                    answered.len(),
                    started.elapsed()
                ),
            }
        }
        assert_eq!(answered.values().sum::<usize>(), STRESS_REQUESTS);
        clients.into_iter().for_each(|c| c.join().unwrap());
        let snap = Arc::into_inner(service).expect("clients are done").shutdown();
        assert_eq!(snap.completed, STRESS_REQUESTS as u64, "target batch {target_batch}");
        assert_eq!(snap.rejected, 0);
    }
}

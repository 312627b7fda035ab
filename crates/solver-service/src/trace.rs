//! Service decision trace: a typed event stream of everything the service
//! *decides* — admission, flushes, plan choices, retries, breaker
//! transitions, steals, faults, and served batches.
//!
//! The service emits events through a [`TraceHandle`]; a handle is either
//! disabled (the default — emission is a branch on a `None`, no event is
//! even constructed) or carries a [`TraceSink`] that records each event.
//! The `trace-lab` crate provides the standard sinks: an in-memory
//! recorder, a binary trace-file writer, and the bit-identical replay
//! comparator.
//!
//! Timestamps are [`Tick`]s from the service's [`Clock`]: under a
//! simulated clock driven from a single thread the event stream — values
//! *and* timestamps — is a pure function of the scenario, which is what
//! makes capture → replay → byte-compare possible. Under the real clock
//! (or a threaded service) the stream is still useful for observability,
//! but interleaving and wall time make it non-reproducible; see
//! DESIGN.md §10 for the exact invariant.

use crate::batcher::FlushReason;
use crate::breaker::BreakerState;
use gpu_sim::Tick;
use std::sync::Arc;

/// Why a submission was turned away at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bucket table held its capacity of waiting requests.
    QueueFull,
    /// The service was shutting down. No admission emits it, since
    /// shutdown consumes the service; it stays so that TLB1 tag 1 decodes.
    ShuttingDown,
    /// The system failed validation (e.g. too small).
    Invalid,
    /// The request's completion deadline had already passed.
    DeadlinePast,
}

impl RejectReason {
    /// Stable lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue-full",
            RejectReason::ShuttingDown => "shutting-down",
            RejectReason::Invalid => "invalid",
            RejectReason::DeadlinePast => "deadline-past",
        }
    }
}

/// One recorded service decision. Every variant carries the tick it was
/// decided at; counters and sizes are widened to `u64` so the binary
/// codec (trace-lab) round-trips them without lossy casts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A request passed admission into the bucket table.
    Admit {
        /// Decision tick.
        at: Tick,
        /// Service-assigned request id.
        id: u64,
        /// System size.
        n: u64,
    },
    /// A submission was rejected at admission.
    Reject {
        /// Decision tick.
        at: Tick,
        /// System size (0 when unknown).
        n: u64,
        /// Why it was turned away.
        reason: RejectReason,
    },
    /// A bucket flushed out of the batcher.
    Flush {
        /// Decision tick.
        at: Tick,
        /// Size class.
        n: u64,
        /// Requests in the batch.
        occupancy: u64,
        /// What triggered the flush.
        reason: FlushReason,
    },
    /// The dispatcher settled on an engine for a flush (after the
    /// planner, pin, and small-flush overrides).
    Plan {
        /// Decision tick.
        at: Tick,
        /// Size class.
        n: u64,
        /// Requests in the batch.
        occupancy: u64,
        /// Canonical engine label (e.g. `cr+pcr@32`, `cpu-thomas`).
        engine: String,
    },
    /// A faulted engine attempt is being retried (after backoff).
    Retry {
        /// Decision tick (after the backoff sleep).
        at: Tick,
        /// 1-based attempt index across the whole ladder.
        attempt: u64,
    },
    /// A device fault was observed while serving a flush.
    Fault {
        /// Decision tick.
        at: Tick,
        /// `true` for device loss (terminal), `false` for transient.
        lost: bool,
    },
    /// One engine's circuit breaker changed state.
    Breaker {
        /// Decision tick.
        at: Tick,
        /// Breaker key (e.g. `dev0:cr+pcr@32`).
        key: String,
        /// The state entered.
        to: BreakerState,
    },
    /// A worker stole a batch from another device's queue.
    Steal {
        /// Decision tick.
        at: Tick,
        /// Queue the batch was taken from.
        from: u64,
        /// Device that will serve it.
        to: u64,
    },
    /// A flush was fully served: every ticket fulfilled, every answer
    /// verified (and repaired where needed).
    Served {
        /// Decision tick (after the engine's simulated work).
        at: Tick,
        /// Size class.
        n: u64,
        /// Requests in the batch.
        occupancy: u64,
        /// Engine that produced the final answers.
        engine: String,
        /// The flush trigger, echoed for correlation.
        reason: FlushReason,
        /// Engine time in integer nanoseconds (simulated device time for
        /// GPU engines; modeled or measured for CPU engines).
        engine_ns: u64,
        /// Systems the verify step re-solved with GEP.
        repairs: u64,
        /// `true` when the answer came from an engine other than the
        /// planned one.
        degraded: bool,
    },
    /// The cluster router picked a node for a size class (consistent hash
    /// of the plan-cache key, skipping nodes gossip marked dead).
    RouteNode {
        /// Decision tick.
        at: Tick,
        /// Size class routed.
        n: u64,
        /// Node chosen.
        node: u64,
    },
    /// An RPC left a node over the simulated network.
    RpcSend {
        /// Decision tick.
        at: Tick,
        /// Sending node.
        src: u64,
        /// Receiving node.
        dst: u64,
        /// Payload size charged to the link model.
        bytes: u64,
    },
    /// An RPC missed its per-link deadline (dropped, partitioned, or the
    /// latency spike exceeded the budget).
    RpcTimeout {
        /// Decision tick (the deadline).
        at: Tick,
        /// Sending node.
        src: u64,
        /// Receiving node.
        dst: u64,
    },
    /// A timed-out RPC is being retried (after backoff) or hedged.
    RpcRetry {
        /// Decision tick (after the backoff).
        at: Tick,
        /// Sending node.
        src: u64,
        /// Receiving node.
        dst: u64,
        /// 1-based attempt index across the retry budget.
        attempt: u64,
    },
    /// Gossip moved a peer to *suspect* in one observer's view (missed
    /// heartbeats, not yet confirmed dead).
    GossipSuspect {
        /// Decision tick.
        at: Tick,
        /// Node whose view changed.
        observer: u64,
        /// Peer under suspicion.
        subject: u64,
    },
    /// Gossip confirmed a peer *dead* in one observer's view; the
    /// observer's breaker for that peer trips.
    GossipDead {
        /// Decision tick.
        at: Tick,
        /// Node whose view changed.
        observer: u64,
        /// Peer declared dead.
        subject: u64,
    },
    /// The coordinator solved a cluster interface system (the small
    /// tridiagonal system coupling the per-node reductions).
    InterfaceSolve {
        /// Decision tick.
        at: Tick,
        /// Global system size the interface couples.
        n: u64,
        /// Interface rows (2 × total chunks).
        rows: u64,
        /// Node that ran the interface solve.
        node: u64,
    },
    /// A warm flush found its factorization in the cache and skipped
    /// elimination entirely (back-substitution-only dispatch).
    FactorHit {
        /// Decision tick.
        at: Tick,
        /// Matrix-key fingerprint (non-zero).
        key: u64,
        /// Size class.
        n: u64,
    },
    /// A flush carried a matrix key but the cache had no factorization;
    /// one was computed, inserted, and the flush fell through to the
    /// cold path.
    FactorMiss {
        /// Decision tick.
        at: Tick,
        /// Matrix-key fingerprint (non-zero).
        key: u64,
        /// Size class.
        n: u64,
    },
    /// A cached factorization left the cache — LRU pressure from an
    /// insert, or invalidation after a failed warm verify.
    FactorEvict {
        /// Decision tick.
        at: Tick,
        /// Fingerprint of the evicted entry's key.
        key: u64,
    },
    /// A matrix key was analyzed (exactly once, on its second flush) and
    /// the verdict recorded in the certified catalog — emitted for
    /// certified *and* uncertified outcomes, so replay shows every
    /// analysis.
    CertIssued {
        /// Decision tick.
        at: Tick,
        /// Matrix-key fingerprint (non-zero).
        key: u64,
        /// Certificate name (`strictly-dominant`, `spd`, `m-matrix`, or
        /// `uncertified`).
        cert: String,
    },
    /// A certified flush skipped the per-answer residual verify (NaN/Inf
    /// guard only), per the catalog's 1-in-K sampling policy.
    CertSkipVerify {
        /// Decision tick.
        at: Tick,
        /// Matrix-key fingerprint (non-zero).
        key: u64,
        /// Size class.
        n: u64,
    },
    /// A verified flush of a certified key caught a corruption; the
    /// certificate is permanently revoked and the key returns to full
    /// verification.
    CertRevoked {
        /// Decision tick.
        at: Tick,
        /// Matrix-key fingerprint (non-zero).
        key: u64,
    },
}

impl TraceEvent {
    /// The tick the decision was made at.
    pub fn at(&self) -> Tick {
        match self {
            TraceEvent::Admit { at, .. }
            | TraceEvent::Reject { at, .. }
            | TraceEvent::Flush { at, .. }
            | TraceEvent::Plan { at, .. }
            | TraceEvent::Retry { at, .. }
            | TraceEvent::Fault { at, .. }
            | TraceEvent::Breaker { at, .. }
            | TraceEvent::Steal { at, .. }
            | TraceEvent::Served { at, .. }
            | TraceEvent::RouteNode { at, .. }
            | TraceEvent::RpcSend { at, .. }
            | TraceEvent::RpcTimeout { at, .. }
            | TraceEvent::RpcRetry { at, .. }
            | TraceEvent::GossipSuspect { at, .. }
            | TraceEvent::GossipDead { at, .. }
            | TraceEvent::InterfaceSolve { at, .. }
            | TraceEvent::FactorHit { at, .. }
            | TraceEvent::FactorMiss { at, .. }
            | TraceEvent::FactorEvict { at, .. }
            | TraceEvent::CertIssued { at, .. }
            | TraceEvent::CertSkipVerify { at, .. }
            | TraceEvent::CertRevoked { at, .. } => *at,
        }
    }

    /// Short kind label for divergence reports.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Admit { .. } => "admit",
            TraceEvent::Reject { .. } => "reject",
            TraceEvent::Flush { .. } => "flush",
            TraceEvent::Plan { .. } => "plan",
            TraceEvent::Retry { .. } => "retry",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::Breaker { .. } => "breaker",
            TraceEvent::Steal { .. } => "steal",
            TraceEvent::Served { .. } => "served",
            TraceEvent::RouteNode { .. } => "route-node",
            TraceEvent::RpcSend { .. } => "rpc-send",
            TraceEvent::RpcTimeout { .. } => "rpc-timeout",
            TraceEvent::RpcRetry { .. } => "rpc-retry",
            TraceEvent::GossipSuspect { .. } => "gossip-suspect",
            TraceEvent::GossipDead { .. } => "gossip-dead",
            TraceEvent::InterfaceSolve { .. } => "interface-solve",
            TraceEvent::FactorHit { .. } => "factor-hit",
            TraceEvent::FactorMiss { .. } => "factor-miss",
            TraceEvent::FactorEvict { .. } => "factor-evict",
            TraceEvent::CertIssued { .. } => "cert-issued",
            TraceEvent::CertSkipVerify { .. } => "cert-skip-verify",
            TraceEvent::CertRevoked { .. } => "cert-revoked",
        }
    }
}

/// Receives trace events. Implementations must be cheap: the service
/// calls [`TraceSink::record`] inline on its decision paths.
pub trait TraceSink: Send + Sync {
    /// Records one event.
    fn record(&self, event: TraceEvent);
}

/// A cloneable, optional handle to a [`TraceSink`]. The default handle is
/// disabled: [`TraceHandle::emit`] takes a closure so a disabled handle
/// never constructs the event (no allocation, one branch).
#[derive(Clone, Default)]
pub struct TraceHandle {
    sink: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle").field("enabled", &self.sink.is_some()).finish()
    }
}

impl TraceHandle {
    /// A handle that drops every event (the default).
    pub fn disabled() -> Self {
        Self { sink: None }
    }

    /// A handle recording into `sink`.
    pub fn to(sink: Arc<dyn TraceSink>) -> Self {
        Self { sink: Some(sink) }
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records the event built by `make`, if a sink is attached.
    pub fn emit(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(make());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    struct Collect(Mutex<Vec<TraceEvent>>);
    impl TraceSink for Collect {
        fn record(&self, event: TraceEvent) {
            self.0.lock().unwrap().push(event);
        }
    }

    #[test]
    fn disabled_handle_never_builds_the_event() {
        let handle = TraceHandle::disabled();
        assert!(!handle.enabled());
        let mut built = false;
        handle.emit(|| {
            built = true;
            TraceEvent::Admit { at: 0, id: 0, n: 0 }
        });
        assert!(!built, "disabled handles must not construct events");
    }

    #[test]
    fn attached_sink_receives_events_in_order() {
        let sink = Arc::new(Collect(Mutex::new(Vec::new())));
        let handle = TraceHandle::to(sink.clone());
        assert!(handle.enabled());
        handle.emit(|| TraceEvent::Admit { at: 1, id: 7, n: 64 });
        handle.emit(|| TraceEvent::Reject { at: 2, n: 64, reason: RejectReason::QueueFull });
        let events = sink.0.lock().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind(), "admit");
        assert_eq!(events[0].at(), 1);
        assert_eq!(events[1].kind(), "reject");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(RejectReason::QueueFull.label(), "queue-full");
        assert_eq!(RejectReason::ShuttingDown.label(), "shutting-down");
        assert_eq!(RejectReason::Invalid.label(), "invalid");
        assert_eq!(RejectReason::DeadlinePast.label(), "deadline-past");
    }
}

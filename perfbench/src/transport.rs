//! A [`Transport`] that times every exchange of the transport it wraps.
//!
//! The federated session only sees the `Transport` trait, so wrapping
//! [`rps_p2p::TcpTransport`] measures the wire from outside the library:
//! wall time, bytes each way and failures of every `request`, plus a
//! `transport.request` span for each exchange of a traced read. The
//! wrapper reports the inner transport's [`Transport::name`], so
//! federation reports are unchanged.

use crate::trace::{Tracer, NO_SPAN};
use rps_p2p::{NodeId, Reply, Transport, TransportError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cumulative counters of a [`TimedTransport`].
#[derive(Clone, Copy, Debug, Default)]
pub struct TransportCounts {
    /// Exchanges attempted.
    pub exchanges: u64,
    /// Exchanges that returned a transport error.
    pub failures: u64,
    /// Wall nanoseconds spent inside the inner `request`.
    pub busy_ns: u64,
    /// Request bytes handed to the inner transport.
    pub bytes_out: u64,
    /// Reply bytes received.
    pub bytes_in: u64,
}

/// The timing wrapper.
pub struct TimedTransport<T: Transport> {
    inner: T,
    tracer: Arc<Tracer>,
    exchanges: AtomicU64,
    failures: AtomicU64,
    busy_ns: AtomicU64,
    bytes_out: AtomicU64,
    bytes_in: AtomicU64,
}

impl<T: Transport> TimedTransport<T> {
    /// Wraps `inner`, recording spans into `tracer` when it is enabled.
    pub fn new(inner: T, tracer: Arc<Tracer>) -> Self {
        TimedTransport {
            inner,
            tracer,
            exchanges: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
        }
    }

    /// The counters so far.
    pub fn counts(&self) -> TransportCounts {
        TransportCounts {
            exchanges: self.exchanges.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
        }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn request(&self, peer: NodeId, frame: &[u8], budget_ms: f64) -> Result<Reply, TransportError> {
        // Only exchanges of a traced read get a span: set-up and the
        // untraced reads run with request 0 and pay no tracing cost.
        let (request, parent) = self.tracer.context();
        let span = if request == 0 {
            NO_SPAN
        } else {
            self.tracer.open("transport.request", request, parent)
        };
        let start = Instant::now();
        let out = self.inner.request(peer, frame, budget_ms);
        let took = start.elapsed();
        self.tracer.close(span);
        self.exchanges.fetch_add(1, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(took.as_nanos() as u64, Ordering::Relaxed);
        self.bytes_out
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        match &out {
            Ok(reply) => {
                self.bytes_in
                    .fetch_add(reply.frame.len() as u64, Ordering::Relaxed);
            }
            Err(_) => {
                self.failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rps_p2p::TcpTransport;
    use rps_rdf::Graph;

    #[test]
    fn wrapper_keeps_the_inner_name_and_counts_failures() {
        let tcp = TcpTransport::serve(Arc::new(vec![Graph::new()])).expect("bind");
        let tracer = Arc::new(Tracer::new(true));
        let timed = TimedTransport::new(tcp, Arc::clone(&tracer));
        assert_eq!(timed.name(), "tcp");
        // Peer 5 does not exist: a protocol failure, counted. Outside a
        // traced read it records no span.
        assert!(timed.request(5, &[0, 0, 0, 0], 100.0).is_err());
        assert!(tracer.spans().is_empty());
        tracer.set_context(3, NO_SPAN);
        assert!(timed.request(5, &[0, 0, 0, 0], 100.0).is_err());
        let c = timed.counts();
        assert_eq!((c.exchanges, c.failures, c.bytes_out), (2, 2, 8));
        let spans = tracer.spans();
        assert_eq!((spans.len(), spans[0].name), (1, "transport.request"));
    }
}

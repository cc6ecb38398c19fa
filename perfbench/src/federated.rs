//! `federated_tcp`: the selective classes against a frozen federated
//! session that rewrites over the mappings and exchanges wire frames
//! with the peers over localhost TCP, one connection per exchange.
//!
//! Set-up is `FederatedSession::open`, `TcpTransport::serve`, `freeze`
//! and one warm-up query; there is no chase. Answers are checked after
//! the timed region against a centralised `FrozenSession` over the same
//! system. Every transport failure counts its read as failed: retries
//! hide a failure from the answer, not from the benchmark, and nothing
//! paces the client to let closed sockets drain.

use crate::queries::{RequestGen, SELECTIVE_MIX};
use crate::split::{read_loop, traced_read, ReadLoop, Rows, SparqlStats};
use crate::stats::{mean, median, ratio};
use crate::trace::{Tracer, NO_SPAN};
use crate::transport::TimedTransport;
use crate::{ms, Options, Report};
use rps_core::{EngineConfig, Session, Strategy};
use rps_p2p::{FederatedSession, FrozenFederatedSession, TcpTransport};
use std::sync::Arc;
use std::time::Instant;

type Timed = TimedTransport<TcpTransport>;

/// Counters of the rewriting and federation layers over traced reads.
#[derive(Default)]
struct FedStats {
    prepare_miss_ms: Vec<f64>,
    branches: Vec<f64>,
    explored: Vec<f64>,
    /// Per traced read, summed over its CQs.
    per_read: Vec<PerRead>,
    /// The read in flight.
    cur: PerRead,
    tuples_received: f64,
    rows_returned: f64,
    retries: u64,
}

/// One traced read's federation and transport work.
#[derive(Default, Clone, Copy)]
struct PerRead {
    execute_ms: f64,
    subqueries: f64,
    messages: f64,
    bytes: f64,
    exchanges: f64,
    exchange_ms: f64,
    bytes_out: f64,
    bytes_in: f64,
}

impl FedStats {
    fn mean(&self, field: impl Fn(&PerRead) -> f64) -> f64 {
        mean(&self.per_read.iter().map(field).collect::<Vec<_>>())
    }
}

/// One set-up repetition: open, serve, freeze and one warm-up query.
/// Returns the served session, its transport and the seconds it took.
fn setup(
    tracer: &Arc<Tracer>,
    system: &rps_core::RdfPeerSystem,
    warmup: &str,
) -> Result<(FrozenFederatedSession, Arc<Timed>, f64), String> {
    let config = EngineConfig::default().with_strategy(Strategy::Rewrite);
    let start = Instant::now();
    let session = FederatedSession::open(system, config).map_err(|e| e.to_string())?;
    let tcp = TcpTransport::serve(session.peer_graphs())
        .map_err(|e| format!("bind the peer listeners: {e}"))?;
    let timed = Arc::new(TimedTransport::new(tcp, Arc::clone(tracer)));
    let frozen = session
        .with_transport(timed.clone())
        .freeze()
        .map_err(|e| e.to_string())?;
    frozen.answer_sparql(warmup).map_err(|e| e.to_string())?;
    Ok((frozen, timed, start.elapsed().as_secs_f64()))
}

pub(crate) fn run(opts: &Options, tracer: &Arc<Tracer>) -> Result<Report, String> {
    let films = opts.films();
    let system = crate::frozen::system(films, opts.seed);
    let mut gen = RequestGen::new(opts.request_seed(), SELECTIVE_MIX, films, films);
    let warmup = gen.warmup_text();
    let failed_setup = |e| format!("federated_tcp set-up failed: {e}");
    let (session, transport, took) = setup(tracer, &system, &warmup).map_err(failed_setup)?;
    let mut setup_s = vec![took];

    let mut sparql = SparqlStats::default();
    let mut fed = FedStats::default();
    let loop_start = transport.counts();
    // A read that needed a retry or lost an exchange failed, even when
    // the retry saved its answer.
    let failed = |before: u64, text: &str| match transport.counts().failures - before {
        0 => Ok(()),
        n => Err(format!("{n} transport failures (retried) on {text}")),
    };
    let reads = read_loop(
        opts,
        &mut gen,
        || {
            // The extra repetition's servers stop when it is dropped.
            let (_, _, took) = setup(tracer, &system, &warmup).map_err(failed_setup)?;
            setup_s.push(took);
            Ok(())
        },
        |text| {
            let before = transport.counts().failures;
            let result = session.answer_sparql(text).map_err(|e| e.to_string())?;
            failed(before, text).map(|()| result)
        },
        |request, text| {
            let before = transport.counts();
            let mut degraded = false;
            let (result, took) = traced_read(
                tracer,
                request,
                text,
                &mut sparql,
                |cq, root| {
                    let misses = session.plan_cache_stats().misses;
                    let (plan, took) =
                        tracer.time("rewriting.prepare", request, root, || session.prepare(cq));
                    let plan = plan?;
                    if session.plan_cache_stats().misses > misses {
                        fed.prepare_miss_ms.push(ms(took));
                        fed.explored.push(plan.explored() as f64);
                    }
                    fed.branches.push(plan.branch_count() as f64);
                    Ok(plan)
                },
                |plan, root| {
                    let span = tracer.open("federation.execute", request, root);
                    tracer.set_context(request, span);
                    let start = Instant::now();
                    let answer = session.execute(plan);
                    let took = start.elapsed();
                    tracer.set_context(0, NO_SPAN);
                    tracer.close(span);
                    let answer = answer?;
                    fed.cur.execute_ms += ms(took);
                    fed.cur.subqueries += answer.stats.subqueries as f64;
                    fed.cur.messages += answer.stats.messages as f64;
                    fed.cur.bytes += answer.stats.bytes as f64;
                    fed.tuples_received += answer.stats.tuples_received as f64;
                    fed.retries += u64::from(answer.report.retries());
                    degraded |= answer.report.degraded() || answer.report.retries() > 0;
                    let stream = answer.stream;
                    let (rows, _) = tracer.time("federation.collect", request, root, || {
                        stream.collect::<Rows>()
                    });
                    fed.rows_returned += rows.len() as f64;
                    Ok(rows)
                },
            );
            let after = transport.counts();
            fed.per_read.push(PerRead {
                exchanges: (after.exchanges - before.exchanges) as f64,
                exchange_ms: (after.busy_ns - before.busy_ns) as f64 / 1e6,
                bytes_out: (after.bytes_out - before.bytes_out) as f64,
                bytes_in: (after.bytes_in - before.bytes_in) as f64,
                ..std::mem::take(&mut fed.cur)
            });
            let result = result.map_err(|e| e.to_string()).and_then(|rows| {
                if degraded {
                    return Err(format!("degraded federated answer on {text}"));
                }
                failed(before.failures, text).map(|()| rows)
            });
            (result, took)
        },
    );
    let mut m = crate::Metrics::new();
    m.insert("setup_s", median(&setup_s));
    let ReadLoop {
        untraced,
        traced,
        untraced_active,
        first,
        mut mismatches,
    } = reads?;
    let loop_counts = transport.counts();
    let exchange_durations: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "transport.request" && s.request != 0)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    let cache = session.plan_cache_stats();
    drop(session);

    // Outside the timed region: a centralised frozen session over the
    // same system is the reference.
    let reference = Session::open(
        system,
        EngineConfig::default().with_strategy(Strategy::Materialise),
    )
    .and_then(Session::freeze)
    .map_err(|e| format!("centralised reference failed: {e}"))?;
    for (text, rows) in &first {
        match reference.answer_sparql(text) {
            Ok(expected) if &expected == rows => {}
            Ok(_) => mismatches.push(format!("federated answer differs from centralised: {text}")),
            Err(e) => mismatches.push(format!("centralised reference failed on {text}: {e}")),
        }
    }

    untraced.print_errors();
    traced.print_errors();
    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;
    if opts.trace {
        sparql.metrics(&mut m);
        let execute_total: f64 = fed.per_read.iter().map(|r| r.execute_ms).sum();
        let exchange_total: f64 = fed.per_read.iter().map(|r| r.exchange_ms).sum();
        for (name, value) in [
            ("rewriting.prepare_ms", mean(&fed.prepare_miss_ms)),
            ("rewriting.branches", mean(&fed.branches)),
            ("rewriting.explored", mean(&fed.explored)),
            (
                "rewriting.plan_cache_hit_ratio",
                ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
            ),
            ("federation.execute_ms", fed.mean(|r| r.execute_ms)),
            ("federation.subqueries", fed.mean(|r| r.subqueries)),
            ("federation.messages", fed.mean(|r| r.messages)),
            ("federation.bytes", fed.mean(|r| r.bytes)),
            (
                "federation.tuples_received",
                ratio(fed.tuples_received, fed.per_read.len() as f64),
            ),
            ("federation.retries", fed.retries as f64),
            (
                "federation.useful_ratio",
                ratio(fed.rows_returned, fed.tuples_received),
            ),
            ("transport.exchanges", fed.mean(|r| r.exchanges)),
            ("transport.exchange_ms", fed.mean(|r| r.exchange_ms)),
            ("transport.exchange_p50_ms", median(&exchange_durations)),
            ("transport.bytes_out", fed.mean(|r| r.bytes_out)),
            ("transport.bytes_in", fed.mean(|r| r.bytes_in)),
            (
                "transport.failures",
                (loop_counts.failures - loop_start.failures) as f64,
            ),
            ("transport.share", ratio(exchange_total, execute_total)),
            ("trace.untraced_p50_ms", untraced.p50()),
        ] {
            m.insert(name, value);
        }
        untraced.client_figures(&mut m, untraced_active.as_secs_f64());
    } else {
        untraced.end_to_end(&mut m);
    }
    Ok(Report {
        mismatches,
        attempted,
        failed,
        metrics: m,
    })
}

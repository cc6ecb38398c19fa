//! `live_churn`: update batches on a live session, each followed by
//! selective reads against the epoch it published.
//!
//! A batch is [`INSERTS`] random `t:film t:actor t:person` facts on
//! peer 0 plus [`REMOVALS`] removals of facts an earlier batch
//! inserted, so every batch runs the delta chase and delete-and-rederive
//! and publishes an epoch (whose plan cache starts empty). Reads go
//! through `parse_sparql` → `lower` → `LiveReader::prepare`/`execute` →
//! collect → `assemble`, because `LiveReader` has no SPARQL entry point.
//!
//! Checks outside the timed region: every [`CHECK_EVERY`]-th loop's
//! reads must equal `LoweredSparql::evaluate` over the solution of the
//! epoch they pinned, and the final solution must equal a from-scratch
//! Skolem chase of the final system, compared as triple sets.

use crate::queries::{RequestGen, SELECTIVE_MIX};
use crate::split::{traced_read, SessionStats, SparqlStats};
use crate::stats::{mean, median, quantile};
use crate::trace::{Tracer, NO_SPAN};
use crate::{ms, setup_due, Options, Reads, Report};
use rps_core::{
    canonical_plan_key, chase_system, EngineConfig, FiringMode, LivePlan, LiveReader, LiveSession,
    PeerId, RpsChaseConfig, RpsError, Strategy, UpdateBatch,
};
use rps_lodgen::{peer_ns, SeededRng};
use rps_query::{parse_sparql, Semantics, SparqlResult};
use rps_rdf::{PrefixMap, Term, Triple};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Facts inserted per batch.
pub const INSERTS: usize = 8;
/// Facts of earlier batches removed per batch.
pub const REMOVALS: usize = 2;
/// Reads after each batch.
pub const READS_PER_BATCH: usize = 4;
/// Every how many loops the reads are checked against the oracle.
pub const CHECK_EVERY: u64 = 8;

/// Draws batches: fresh facts on peer 0, and removals of facts that
/// earlier batches inserted and no batch has removed yet.
struct BatchGen {
    rng: SeededRng,
    films: usize,
    persons: usize,
    inserted: Vec<Triple>,
    present: HashSet<Triple>,
}

impl BatchGen {
    fn fact(&mut self) -> Triple {
        let ns = peer_ns(0);
        let film = self.rng.gen_range(0..self.films);
        let person = self.rng.gen_range(0..self.persons);
        Triple::new(
            Term::iri(format!("{ns}film{film}")),
            Term::iri(format!("{ns}actor")),
            Term::iri(format!("{ns}person{person}")),
        )
        .expect("IRI triples are valid")
    }

    fn next_batch(&mut self, live: &LiveSession, removals: usize) -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        for _ in 0..removals.min(self.inserted.len()) {
            let i = self.rng.gen_range(0..self.inserted.len());
            let t = self.inserted.swap_remove(i);
            self.present.remove(&t);
            batch = batch.remove(PeerId(0), t);
        }
        let peer0 = &live.system().peer(PeerId(0)).database;
        let mut added = 0;
        while added < INSERTS {
            let t = self.fact();
            // Only facts the peer lacks, so a later removal takes out an
            // insert of this benchmark and never a generated fact.
            if peer0.contains(&t) || !self.present.insert(t.clone()) {
                continue;
            }
            self.inserted.push(t.clone());
            batch = batch.insert(PeerId(0), t);
            added += 1;
        }
        batch
    }
}

fn skolem() -> RpsChaseConfig {
    RpsChaseConfig {
        firing: FiringMode::Skolem,
        ..RpsChaseConfig::default()
    }
}

/// The reads of a run and their layer counters.
#[derive(Default)]
struct LiveReads {
    sparql: SparqlStats,
    sess: SessionStats,
    /// Canonical keys prepared in the current epoch.
    epoch_keys: HashSet<String>,
}

impl LiveReads {
    /// One read through the live reader's public calls. With tracing
    /// off the tracer records nothing and the same calls run. Returns
    /// the result, its wall time and the epochs its plans pinned.
    fn read(
        &mut self,
        reader: &LiveReader,
        tracer: &Tracer,
        request: u64,
        text: &str,
    ) -> (Result<SparqlResult, RpsError>, Duration, Vec<u32>) {
        let mut pinned = Vec::new();
        let mut prepared = Vec::new();
        let LiveReads {
            sparql,
            sess,
            epoch_keys,
        } = self;
        let (result, took) = traced_read(
            tracer,
            request,
            text,
            sparql,
            |cq, root| {
                // The reader exposes no cache counters, but its cache
                // is per epoch and holds far more than one epoch's
                // reads: a key prepared earlier in this epoch is a hit.
                let hit = !epoch_keys.insert(canonical_plan_key(cq));
                let (plan, took) =
                    tracer.time("session.prepare", request, root, || reader.prepare(cq));
                prepared.push((hit, took));
                plan
            },
            |plan: &LivePlan, root| {
                pinned.push(plan.epoch());
                sess.execute(tracer, request, root, || reader.execute(plan))
            },
        );
        for (hit, took) in prepared {
            sess.prepared(hit, took);
        }
        sess.end_request();
        (result, took, pinned)
    }
}

pub(crate) fn run(opts: &Options, tracer: &Arc<Tracer>) -> Result<Report, String> {
    let films = opts.films();
    let system = crate::frozen::system(films, opts.seed);
    let config = EngineConfig::default().with_strategy(Strategy::Materialise);
    // One set-up repetition and the seconds it took.
    let open = || {
        let input = system.clone();
        let (session, took) = tracer.time("live.open", 0, NO_SPAN, || {
            LiveSession::open(input, config.clone())
        });
        session
            .map(|live| (live, took.as_secs_f64()))
            .map_err(|e| format!("live_churn set-up failed: {e}"))
    };
    let (mut live, took) = open()?;
    let mut setup_s = vec![took];
    let reader = live.reader();
    let mut m = crate::Metrics::new();

    let mut requests = RequestGen::new(opts.request_seed(), SELECTIVE_MIX, films, films);
    let mut batches = BatchGen {
        rng: SeededRng::seed_from_u64(rps_core::splitmix64(opts.request_seed())),
        films,
        persons: films,
        inserted: Vec::new(),
        present: HashSet::new(),
    };
    // Untimed priming batch, so the first timed batch has earlier
    // inserts to remove.
    let primer = batches.next_batch(&live, 0);
    live.apply(&primer)
        .map_err(|e| format!("live_churn priming batch failed: {e}"))?;

    let budget = Duration::from_secs_f64(opts.seconds);
    let mut active = Duration::ZERO;
    // The part of `active` spent in untraced batches and their reads.
    let mut untraced_active = Duration::ZERO;
    let mut reads = Reads::new(opts.penalty_ms());
    let mut traced_reads = Reads::new(opts.penalty_ms());
    let mut updates = Vec::new();
    let mut failed_batches = 0u64;
    let mut live_reads = LiveReads::default();
    let mut stats_build_ms = Vec::new();
    let mut mismatches = Vec::new();
    let stats_before = live.stats();
    let untraced = Tracer::new(false);
    let mut request = 0u64;
    let mut loops = 0u64;
    while active < budget {
        while setup_due(setup_s.len(), active, budget) {
            setup_s.push(open()?.1);
        }
        loops += 1;
        // With tracing on, the reads of every other batch record
        // spans; the other half gives the overhead baseline in the
        // same run. Alternating whole batches keeps the first read of
        // an epoch, which builds its planner statistics, equally
        // common in both halves.
        let is_traced = opts.trace && loops.is_multiple_of(2);
        let batch = batches.next_batch(&live, REMOVALS);
        let (applied, took) = tracer.time("live.apply", 0, NO_SPAN, || live.apply(&batch));
        active += took;
        if !is_traced {
            untraced_active += took;
        }
        match applied {
            Ok(_) => updates.push(ms(took)),
            Err(e) => {
                // The write side is left mid-repair: nothing more can
                // be measured on it.
                failed_batches += 1;
                updates.push(opts.penalty_ms());
                eprintln!("operation failed: batch: {e}");
                break;
            }
        }
        let check = loops.is_multiple_of(CHECK_EVERY);
        let solution = live.solution();
        live_reads.epoch_keys.clear();
        for _ in 0..READS_PER_BATCH {
            request += 1;
            let req = requests.next_request();
            let span_tracer = if is_traced {
                tracer.as_ref()
            } else {
                &untraced
            };
            let morsels = solution.graph.storage_stats().morsels_dispatched;
            let (result, took, pinned) = live_reads.read(&reader, span_tracer, request, &req.text);
            active += took;
            let dispatched = solution.graph.storage_stats().morsels_dispatched - morsels;
            live_reads.sess.morsels += dispatched;
            live_reads.sess.par_scans += u64::from(dispatched > 0);
            let sink = if is_traced {
                &mut traced_reads
            } else {
                untraced_active += took;
                &mut reads
            };
            match result {
                Ok(rows) => {
                    sink.ok(req.class, ms(took));
                    if check {
                        let epoch = live.epoch();
                        let expected = parse_sparql(&req.text, &PrefixMap::common())
                            .map(|q| q.lower().evaluate(&solution.graph, Semantics::Certain));
                        if pinned.iter().any(|&e| e != epoch) {
                            mismatches.push(format!("read pinned epochs {pinned:?}, not {epoch}"));
                        } else if !matches!(&expected, Ok(e) if e == &rows) {
                            mismatches.push(format!(
                                "live read differs from LoweredSparql::evaluate at epoch {epoch}: {}",
                                req.text
                            ));
                        }
                    }
                }
                Err(e) => sink.fail(req.class, e.to_string()),
            }
        }
        if opts.trace {
            stats_build_ms.push(solution.graph.storage_stats().stats_build_nanos as f64 / 1e6);
        }
    }
    while setup_due(setup_s.len(), active, budget) {
        setup_s.push(open()?.1);
    }
    m.insert("setup_s", median(&setup_s));
    let batches_run = updates.len() as f64;
    let stats_after = live.stats();

    if opts.trace && failed_batches == 0 {
        // The cost of publishing an epoch with nothing to repair.
        let mut floor = Vec::new();
        for _ in 0..5 {
            let start = Instant::now();
            live.apply(&UpdateBatch::new())
                .map_err(|e| format!("empty batch failed: {e}"))?;
            floor.push(ms(start.elapsed()));
        }
        m.insert("live.publish_floor_ms", median(&floor));
    }

    // Outside the timed region: the incrementally maintained solution
    // must equal a from-scratch confluent chase of the final system.
    let scratch = chase_system(live.system(), &skolem());
    let maintained: BTreeSet<Triple> = live.solution().graph.iter().collect();
    let expected: BTreeSet<Triple> = scratch.graph.iter().collect();
    if !scratch.complete || maintained != expected {
        mismatches.push(format!(
            "maintained solution ({} triples) differs from a Skolem re-chase ({} triples)",
            maintained.len(),
            expected.len()
        ));
    }

    reads.print_errors();
    traced_reads.print_errors();
    let attempted = reads.attempted + traced_reads.attempted + batches_run as u64;
    let failed = reads.failed + traced_reads.failed + failed_batches;
    if opts.trace {
        live_reads.sparql.metrics(&mut m);
        live_reads.sess.metrics(&mut m);
        let per_batch =
            |after: usize, before: usize| (after - before) as f64 / batches_run.max(1.0);
        for (name, value) in [
            ("store.stats_build_ms", mean(&stats_build_ms)),
            ("live.apply_ms", mean(&updates)),
            (
                "live.firings_per_batch",
                per_batch(stats_after.gma_firings, stats_before.gma_firings),
            ),
            (
                "live.retractions_per_batch",
                per_batch(stats_after.retractions, stats_before.retractions),
            ),
            (
                "live.refirings_per_batch",
                per_batch(stats_after.refirings, stats_before.refirings),
            ),
            ("live.solution_triples", maintained.len() as f64),
            ("update_p50_ms", median(&updates)),
            ("update_p90_ms", quantile(&updates, 0.9)),
            ("trace.untraced_p50_ms", reads.p50()),
        ] {
            m.insert(name, value);
        }
        reads.client_figures(&mut m, untraced_active.as_secs_f64());
    } else {
        reads.end_to_end(&mut m);
    }
    Ok(Report {
        mismatches,
        attempted,
        failed,
        metrics: m,
    })
}

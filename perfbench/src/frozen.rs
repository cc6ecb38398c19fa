//! `frozen_mix`: the full query mix against a frozen session that was
//! persisted and reopened.
//!
//! Set-up runs the chase, `freeze`, `persist` and `FrozenSession::open`
//! and ends with one warm-up query; the reopened session then serves
//! `answer_sparql(text)`. Answers are checked after the timed region:
//! for every distinct text the reopened session must answer as the
//! session did before it was persisted.

use crate::queries::{Class, RequestGen, FROZEN_MIX};
use crate::split::{read_loop, traced_read, ReadLoop, SessionStats, SparqlStats};
use crate::stats::{median, ratio};
use crate::trace::{Tracer, NO_SPAN};
use crate::{ms, Options, Report};
use rps_core::{EngineConfig, FrozenSession, RdfPeerSystem, RpsError, Session, Strategy};
use rps_lodgen::{film_system, FilmConfig, Topology};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The film system every workload runs on.
pub(crate) fn system(films: usize, seed: u64) -> rps_core::RdfPeerSystem {
    film_system(&FilmConfig {
        peers: crate::queries::PEERS,
        films_per_peer: films,
        actors_per_film: 3,
        person_pool: films,
        sameas_per_pair: films / 10,
        topology: Topology::Chain,
        hub_style: false,
        seed,
    })
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| {
                    let path = e.path();
                    if path.is_dir() {
                        dir_bytes(&path)
                    } else {
                        e.metadata().map_or(0, |m| m.len())
                    }
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Set-up repetitions of one run and their timings.
struct SetUp<'a> {
    system: RdfPeerSystem,
    tracer: &'a Tracer,
    scratch: PathBuf,
    warmup: String,
    setup_s: Vec<f64>,
    chase: Vec<f64>,
    persist: Vec<f64>,
    open: Vec<f64>,
}

impl SetUp<'_> {
    /// One repetition: chase, freeze, persist, reopen and one warm-up
    /// query. Returns the session before persisting and the reopened
    /// one, and records the layer counts into `m` when given.
    fn rep(
        &mut self,
        m: Option<&mut crate::Metrics>,
    ) -> Result<(FrozenSession, FrozenSession), RpsError> {
        let tracer = self.tracer;
        let input = self.system.clone();
        let config = EngineConfig::default().with_strategy(Strategy::Materialise);
        let dir = self.scratch.join(format!("session-{}", self.setup_s.len()));
        let start = Instant::now();
        let mut session = Session::open(input, config)?;
        let (solution, took) =
            tracer.time("chase.run", 0, NO_SPAN, || session.universal_solution());
        let solution = solution?;
        self.chase.push(ms(took));
        let (frozen, _) = tracer.time("session.freeze", 0, NO_SPAN, || session.freeze());
        let frozen = frozen?;
        let (done, took) = tracer.time("durable.persist", 0, NO_SPAN, || frozen.persist(&dir));
        done?;
        self.persist.push(ms(took));
        let (reopened, took) =
            tracer.time("durable.open", 0, NO_SPAN, || FrozenSession::open(&dir));
        let reopened = reopened?;
        self.open.push(ms(took));
        let pages_read = reopened.storage_stats().map_or(0, |s| s.pages_read);
        tracer
            .time("session.warmup", 0, NO_SPAN, || {
                reopened.answer_sparql(&self.warmup)
            })
            .0?;
        self.setup_s.push(start.elapsed().as_secs_f64());

        if let Some(m) = m {
            let s = &solution.stats;
            let triples = solution.graph.len() as f64;
            let bytes = dir_bytes(&dir) as f64;
            let written = frozen.storage_stats().map_or(0, |s| s.pages_written);
            let store = reopened.storage_stats().unwrap_or_default();
            for (name, value) in [
                ("chase.rounds", s.rounds as f64),
                ("chase.gma_firings", s.gma_firings as f64),
                ("chase.eq_copies", s.eq_copies as f64),
                ("chase.solution_triples", triples),
                ("durable.pages_written", written as f64),
                ("durable.pages_read", pages_read as f64),
                ("durable.bytes", bytes),
                ("disk_bytes_per_triple", ratio(bytes, triples)),
                ("store.stats_build_ms", store.stats_build_nanos as f64 / 1e6),
            ] {
                m.insert(name, value);
            }
        }
        Ok((frozen, reopened))
    }

    /// A repetition that only times set-up: its sessions and files go.
    fn extra_rep(&mut self) -> Result<(), String> {
        let dir = self.scratch.join(format!("session-{}", self.setup_s.len()));
        let rep = self.rep(None).map(drop);
        let _ = std::fs::remove_dir_all(dir);
        rep.map_err(|e| format!("frozen_mix set-up failed: {e}"))
    }
}

pub(crate) fn run(opts: &Options, tracer: &Arc<Tracer>) -> Result<Report, String> {
    let films = opts.films();
    let mut gen = RequestGen::new(opts.request_seed(), FROZEN_MIX, films, films);
    let mut m = crate::Metrics::new();
    // The persisted sessions live in a directory private to this run.
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let scratch = Path::new(crate::OUT_DIR).join(format!(
        "frozen-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let mut setup = SetUp {
        system: system(films, opts.seed),
        tracer,
        scratch: scratch.clone(),
        warmup: gen.warmup_text(),
        setup_s: Vec::new(),
        chase: Vec::new(),
        persist: Vec::new(),
        open: Vec::new(),
    };
    let (before, session) = match setup.rep(Some(&mut m)) {
        Ok(served) => served,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&scratch);
            return Err(format!("frozen_mix set-up failed: {e}"));
        }
    };
    let session = &session;

    let mut sparql = SparqlStats::default();
    let mut sess = SessionStats::default();
    let mut prepared = Vec::new();
    let reads = read_loop(
        opts,
        &mut gen,
        || setup.extra_rep(),
        |text| session.answer_sparql(text).map_err(|e| e.to_string()),
        |request, text| {
            let before = session
                .storage_stats()
                .unwrap_or_default()
                .morsels_dispatched;
            let (result, took) = traced_read(
                tracer,
                request,
                text,
                &mut sparql,
                |cq, root| {
                    let hits = session.plan_cache_stats().hits;
                    let (plan, took) =
                        tracer.time("session.prepare", request, root, || session.prepare(cq));
                    prepared.push((session.plan_cache_stats().hits > hits, took));
                    plan
                },
                |plan, root| sess.execute(tracer, request, root, || session.execute(plan)),
            );
            for (hit, took) in prepared.drain(..) {
                sess.prepared(hit, took);
            }
            sess.end_request();
            let dispatched = session
                .storage_stats()
                .unwrap_or_default()
                .morsels_dispatched
                - before;
            sess.morsels += dispatched;
            sess.par_scans += u64::from(dispatched > 0);
            (result.map_err(|e| e.to_string()), took)
        },
    );
    let _ = std::fs::remove_dir_all(&scratch);
    let reads = reads?;
    let ReadLoop {
        untraced,
        traced,
        untraced_active,
        first,
        mut mismatches,
    } = reads;
    m.insert("setup_s", median(&setup.setup_s));
    m.insert("chase.ms", median(&setup.chase));
    m.insert("durable.persist_ms", median(&setup.persist));
    m.insert("durable.open_ms", median(&setup.open));

    // Outside the timed region: the reopened session must answer every
    // distinct text exactly as the session did before persisting.
    for (text, rows) in &first {
        match before.answer_sparql(text) {
            Ok(expected) if &expected == rows => {}
            Ok(_) => mismatches.push(format!("reopened session answers differently: {text}")),
            Err(e) => mismatches.push(format!("pre-persist session failed on {text}: {e}")),
        }
    }

    untraced.print_errors();
    traced.print_errors();
    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;
    if opts.trace {
        sparql.metrics(&mut m);
        sess.metrics(&mut m);
        let stats = session.plan_cache_stats();
        m.insert(
            "session.plan_cache_hit_ratio",
            ratio(stats.hits as f64, (stats.hits + stats.misses) as f64),
        );
        m.insert("trace.untraced_p50_ms", untraced.p50());
        untraced.client_figures(&mut m, untraced_active.as_secs_f64());
        m.insert("scan_order_p50_ms", untraced.class_p50(Class::ScanOrder));
        m.insert(
            "optional_scan_p50_ms",
            untraced.class_p50(Class::OptionalScan),
        );
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

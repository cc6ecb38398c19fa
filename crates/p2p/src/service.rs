//! The Section 5 prototype, end to end: a SPARQL query service that
//! (a) rewrites the query to entail the peer mappings and (b) evaluates
//! the rewriting federatedly over the sources.
//!
//! [`FederatedSession`] is the federated counterpart of
//! [`rps_core::Session`], sharing its vocabulary: it is built from an
//! [`RdfPeerSystem`] plus an [`EngineConfig`], compiles a query **once**
//! with [`FederatedSession::prepare`] (canonical UCQ rewriting + id-level
//! federation plan) into a [`PreparedFederatedQuery`], executes it any
//! number of times, streams answers through
//! [`rps_core::AnswerStream`], and reports failures as
//! [`rps_core::RpsError`]. [`FrozenFederatedSession`] is its shareable,
//! plan-caching form. SPARQL text reaches both through the same
//! [`rps_core::PreparedSparql`] the local façades use
//! ([`PreparedFederatedSparql`]), so federated answers are
//! byte-identical to a centralised [`rps_core::Session`]'s.

use crate::federation::{FederatedEngine, FederationReport, FederationStats, PreparedFederation};
use crate::network::{CostModel, SimNetwork};
use crate::transport::{SimTransport, Transport};
use rps_core::{
    canonical_plan_key, check_owner, next_session_id, stream_vars, AnswerStream, EngineConfig,
    EquivalenceIndex, ExecRoute, PlanCache, PlanCacheStats, PreparedSparql, RdfPeerSystem,
    RpsError, RpsRewriter,
};
use rps_query::{GraphPatternQuery, Semantics, SparqlResult};
use std::sync::{Arc, Mutex, PoisonError};

/// A query compiled once against a [`FederatedSession`]: the canonical
/// UCQ rewriting is expanded and every branch is routed, constant-
/// resolved and id-compiled for repeated federated execution — on the
/// session that prepared it (the compiled plan's term ids belong to that
/// session's answer dictionary; execution elsewhere returns
/// [`RpsError::SessionMismatch`]).
pub struct PreparedFederatedQuery {
    session_id: u64,
    /// The session's configuration generation at prepare time (see
    /// [`FederatedSession::config_mut`]).
    generation: u32,
    query: GraphPatternQuery,
    prepared: PreparedFederation,
    explored: usize,
    branches: usize,
}

impl PreparedFederatedQuery {
    /// Number of distinct CQs the rewriting explored.
    pub fn explored(&self) -> usize {
        self.explored
    }

    /// Number of UNION branches compiled.
    pub fn branch_count(&self) -> usize {
        self.branches
    }

    /// The source query.
    pub fn query(&self) -> &GraphPatternQuery {
        &self.query
    }
}

/// Result of one federated execution: a streaming answer iterator plus
/// the run's traffic statistics and fault-tolerance report.
pub struct FederatedAnswer {
    /// The answers (route is [`ExecRoute::Federated`]).
    pub stream: AnswerStream,
    /// Number of UNION branches evaluated.
    pub branches: usize,
    /// Federation traffic statistics.
    pub stats: FederationStats,
    /// Simulated wall-clock of the federated round.
    pub makespan_ms: f64,
    /// The fault-tolerance outcome: skipped peers, retries per branch,
    /// quorum accounting. [`FederationReport::degraded`] is `false` on
    /// a fault-free run, and under `FailurePolicy::Strict` always — a
    /// degraded strict run errors instead.
    pub report: FederationReport,
}

/// The state both federated sessions execute against: identity, the
/// engine over the canonical peer stores, the equivalence classes the
/// answers expand over, configuration and transport.
struct FedCore {
    id: u64,
    /// Bumped by [`FederatedSession::config_mut`]; prepared queries are
    /// stamped with it so post-prepare config changes surface as
    /// [`RpsError::StalePlan`] instead of executing silently-stale
    /// plans.
    generation: u32,
    /// The engine is immutable after construction (preparation carries
    /// unknown constants in the plan instead of interning them), so
    /// executes touch it lock-free from any number of threads.
    engine: FederatedEngine,
    eq_index: EquivalenceIndex,
    config: EngineConfig,
    cost_model: CostModel,
    /// The peer-exchange transport (defaults to the perfect in-process
    /// [`SimTransport`] over the engine's sealed peer graphs), shared
    /// lock-free by concurrent executes (the trait requires
    /// `Send + Sync`).
    transport: Arc<dyn Transport>,
}

impl FedCore {
    /// Rewrites `query` against the quotient system and compiles the
    /// branches. A rewriting that exhausts its budgets before reaching
    /// a fixpoint is the typed [`RpsError::RewriteBudget`]: there is no
    /// materialised fallback out here, and federating a truncated union
    /// would silently drop answers.
    fn compile(
        &self,
        rewriter: &mut RpsRewriter,
        query: &GraphPatternQuery,
    ) -> Result<PreparedFederatedQuery, RpsError> {
        let budgets = &self.config.rewrite;
        let rewriting = rewriter.rewrite_canonical(query, budgets);
        if !rewriting.complete {
            return Err(RpsError::RewriteBudget {
                explored: rewriting.explored,
                max_depth: budgets.max_depth,
                max_cqs: budgets.max_cqs,
            });
        }
        let branches = rewriting.branches(rewriter.encoder());
        Ok(PreparedFederatedQuery {
            session_id: self.id,
            generation: self.generation,
            query: query.clone(),
            prepared: self.engine.prepare_branches(&branches),
            explored: rewriting.explored,
            branches: branches.len(),
        })
    }

    /// Federates every branch over the canonical peer stores at the id
    /// level, spread over up to `max_threads` OS threads, then decodes
    /// the union and expands it over the equivalence classes.
    fn execute(
        &self,
        prepared: &PreparedFederatedQuery,
        max_threads: usize,
    ) -> Result<FederatedAnswer, RpsError> {
        check_owner(
            (prepared.session_id, prepared.generation),
            (self.id, self.generation),
        )?;
        let mut net = SimNetwork::new();
        let (canon_ids, stats, report) = self.engine.execute_parallel_with(
            &prepared.prepared,
            Semantics::Certain,
            &mut net,
            &*self.transport,
            &self.config.retry,
            self.config.failure,
            max_threads,
        )?;
        let canon_tuples = self.engine.decode_prepared(&prepared.prepared, &canon_ids);
        let tuples = rps_core::expand_answers(&canon_tuples, &self.eq_index);
        let vars = stream_vars(&prepared.query);
        Ok(FederatedAnswer {
            stream: AnswerStream::from_terms(vars, ExecRoute::Federated, tuples),
            branches: prepared.branches,
            stats,
            makespan_ms: net.round_makespan_ms(&self.cost_model, self.engine.peer_count()),
            report,
        })
    }
}

/// The federated answering façade: rewrite against the quotient system
/// once, federate the id-compiled branches over the canonical peer
/// stores, expand the answers back over the equivalence classes.
pub struct FederatedSession {
    core: FedCore,
    rewriter: RpsRewriter,
}

impl FederatedSession {
    /// Builds a session after validating the system.
    pub fn open(system: &RdfPeerSystem, config: EngineConfig) -> Result<Self, RpsError> {
        system.validate()?;
        Ok(Self::new(system, config))
    }

    /// Builds a session without validating the system. Peer stores are
    /// canonicalised on equivalence classes (the combined approach), so
    /// rewriting only has to expand graph-mapping dependencies.
    pub fn new(system: &RdfPeerSystem, config: EngineConfig) -> Self {
        let rewriter = RpsRewriter::new(system);
        let engine = FederatedEngine::new_canonical(system, rewriter.index());
        let transport = Arc::new(SimTransport::new(engine.peer_graphs()));
        FederatedSession {
            core: FedCore {
                id: next_session_id(),
                generation: 0,
                engine,
                eq_index: rewriter.index().clone(),
                config,
                cost_model: CostModel::default(),
                transport,
            },
            rewriter,
        }
    }

    /// Overrides the network cost model.
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        self.core.cost_model = model;
        self
    }

    /// Overrides the peer-exchange transport — e.g. a
    /// [`crate::FaultyTransport`] for deterministic fault injection, or
    /// a [`crate::TcpTransport`] served over the engine's graphs
    /// ([`FederatedSession::peer_graphs`]). Retry and failure behaviour
    /// come from the configuration
    /// ([`rps_core::EngineConfig::retry`]/[`rps_core::EngineConfig::failure`]).
    pub fn with_transport(mut self, transport: Arc<dyn Transport>) -> Self {
        self.core.transport = transport;
        self
    }

    /// The engine's sealed peer graphs, for wiring up external
    /// transports that must serve the same stores.
    pub fn peer_graphs(&self) -> Arc<Vec<rps_rdf::Graph>> {
        self.core.engine.peer_graphs()
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.core.config
    }

    /// Mutable access to the configuration. Applies to queries prepared
    /// afterwards; queries prepared *before* the change become stale and
    /// report [`RpsError::StalePlan`] at execute — re-prepare them.
    pub fn config_mut(&mut self) -> &mut EngineConfig {
        self.core.generation += 1;
        &mut self.core.config
    }

    /// `true` iff Proposition 2 guarantees the rewriting is perfect.
    pub fn fo_rewritable(&self) -> bool {
        self.rewriter.fo_rewritable()
    }

    /// Compiles a query once for repeated federated execution: canonical
    /// UCQ rewriting, branch decoding, per-pattern routing, per-peer
    /// constant resolution and head-template interning all happen here.
    ///
    /// The federated pipeline computes certain answers; requesting the
    /// `Q*` semantics is a configuration error
    /// ([`RpsError::StarNeedsMaterialisation`]). A rewriting that
    /// exhausts its budgets is the typed [`RpsError::RewriteBudget`], so
    /// a successful prepare always federates an exhaustive rewriting.
    pub fn prepare(
        &mut self,
        query: &GraphPatternQuery,
    ) -> Result<PreparedFederatedQuery, RpsError> {
        if self.core.config.semantics == Semantics::Star {
            return Err(RpsError::StarNeedsMaterialisation);
        }
        self.core.compile(&mut self.rewriter, query)
    }

    /// Executes a prepared query: federate every branch over the
    /// canonical peer stores at the id level, then expand the union over
    /// the equivalence classes. No term is re-parsed or re-interned per
    /// peer per round — that work happened once, at prepare time. The
    /// query must have been prepared by *this* session
    /// ([`RpsError::SessionMismatch`] otherwise — its term ids belong to
    /// this session's answer dictionary).
    pub fn execute(&self, prepared: &PreparedFederatedQuery) -> Result<FederatedAnswer, RpsError> {
        self.core.execute(prepared, 1)
    }

    /// Prepares and executes in one call. Prefer
    /// [`FederatedSession::prepare`] + [`FederatedSession::execute`] when
    /// the same query runs repeatedly.
    pub fn answer(&mut self, query: &GraphPatternQuery) -> Result<FederatedAnswer, RpsError> {
        let prepared = self.prepare(query)?;
        self.execute(&prepared)
    }

    /// Freezes this session into a shareable [`FrozenFederatedSession`]
    /// with the default plan-cache bound: a `Send + Sync` handle whose
    /// `prepare(&self)`/`execute(&self)` run concurrently from many
    /// threads, and whose execution fans the prepared branches out
    /// across OS threads. The rewrite engine's `IdTgdSet` is compiled
    /// eagerly here. `Q*` semantics has no federated route, so it is
    /// rejected at freeze ([`RpsError::StarNeedsMaterialisation`]).
    pub fn freeze(self) -> Result<FrozenFederatedSession, RpsError> {
        self.freeze_with_cache_capacity(rps_core::DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// [`FederatedSession::freeze`] with an explicit plan-cache bound.
    pub fn freeze_with_cache_capacity(
        mut self,
        capacity: usize,
    ) -> Result<FrozenFederatedSession, RpsError> {
        if self.core.config.semantics == Semantics::Star {
            return Err(RpsError::StarNeedsMaterialisation);
        }
        self.rewriter.precompile_canonical();
        Ok(FrozenFederatedSession {
            inner: Arc::new(FrozenFedInner {
                threads: self.core.config.exec.resolved_workers(),
                fo_rewritable: self.rewriter.fo_rewritable(),
                core: self.core,
                compiler: Mutex::new(self.rewriter),
                cache: Mutex::new(PlanCache::new(capacity)),
            }),
        })
    }
}

/// The shared state behind every clone of a [`FrozenFederatedSession`].
struct FrozenFedInner {
    core: FedCore,
    /// The branch fan-out bound of [`FrozenFederatedSession::execute`]:
    /// the configured worker count, resolved at freeze.
    threads: usize,
    fo_rewritable: bool,
    /// The rewriting compile state — held only while preparing a query
    /// that missed the plan cache. Its lazily built state is assigned
    /// whole, so this lock and the cache's are recovered when poisoned.
    compiler: Mutex<RpsRewriter>,
    cache: Mutex<PlanCache<PreparedFederatedQuery>>,
}

/// The federated counterpart of `rps_core::FrozenSession`: a
/// `Send + Sync` handle over a frozen [`FederatedSession`] on which
/// [`prepare`](FrozenFederatedSession::prepare) and
/// [`execute`](FrozenFederatedSession::execute) take `&self` and run
/// concurrently, with the same bounded plan cache keyed on the
/// canonical numbered-variable query. `execute` additionally fans the
/// prepared UNION branches out across OS threads
/// (`std::thread::scope`), merging the per-branch id-level answer sets,
/// statistics and traffic traces deterministically in branch order —
/// answers are byte-identical to the sequential session's. Cloning is
/// an `Arc` bump.
#[derive(Clone)]
pub struct FrozenFederatedSession {
    inner: Arc<FrozenFedInner>,
}

// One handle, many threads — enforced at compile time.
#[allow(dead_code)]
fn static_assert_send_sync() {
    fn assert<T: Send + Sync>() {}
    assert::<FrozenFederatedSession>();
    assert::<PreparedFederatedQuery>();
}

impl FrozenFederatedSession {
    /// The (immutable) configuration this session was frozen with.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.core.config
    }

    /// `true` iff Proposition 2 guarantees the rewriting is perfect.
    pub fn fo_rewritable(&self) -> bool {
        self.inner.fo_rewritable
    }

    /// Plan-cache hit/miss counters and occupancy.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.inner
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats()
    }

    /// Compiles a query — or returns the cached plan of an α-equivalent
    /// one. Strict like [`FederatedSession::prepare`]: an exhausted
    /// rewriting budget is the typed [`RpsError::RewriteBudget`] (a
    /// truncated union is never cached).
    pub fn prepare(
        &self,
        query: &GraphPatternQuery,
    ) -> Result<Arc<PreparedFederatedQuery>, RpsError> {
        let inner = &*self.inner;
        PlanCache::get_or_compile(&inner.cache, canonical_plan_key(query), || {
            let mut compiler = inner
                .compiler
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            inner.core.compile(&mut compiler, query)
        })
    }

    /// Executes a prepared query with the branch fan-out spread over up
    /// to [`ExecConfig::resolved_workers`](rps_core::ExecConfig) OS
    /// threads (resolved once, at freeze). Accepts queries prepared by
    /// this frozen session or by the mutable session it was frozen from.
    pub fn execute(&self, prepared: &PreparedFederatedQuery) -> Result<FederatedAnswer, RpsError> {
        self.execute_with_threads(prepared, self.inner.threads)
    }

    /// [`FrozenFederatedSession::execute`] with an explicit worker-thread
    /// bound (1 runs the sequential path; the bound is also clamped to
    /// the live branch count).
    pub fn execute_with_threads(
        &self,
        prepared: &PreparedFederatedQuery,
        max_threads: usize,
    ) -> Result<FederatedAnswer, RpsError> {
        self.inner.core.execute(prepared, max_threads)
    }

    /// Prepares (or fetches from the plan cache) and executes in one
    /// call.
    pub fn answer(&self, query: &GraphPatternQuery) -> Result<FederatedAnswer, RpsError> {
        let prepared = self.prepare(query)?;
        self.execute(&prepared)
    }
}

/// A SPARQL query compiled against a federated session: one prepared
/// federated plan per lowered CQ. Built by
/// [`FederatedSession::prepare_sparql`] /
/// [`FrozenFederatedSession::prepare_sparql`]; the plans are
/// session-bound exactly like [`PreparedFederatedQuery`].
pub type PreparedFederatedSparql = PreparedSparql<Arc<PreparedFederatedQuery>>;

impl FederatedSession {
    /// Compiles a SPARQL SELECT/ASK query (the subset documented in
    /// `rps_query::sparql`) for repeated federated execution: each
    /// lowered CQ is rewritten, routed and id-compiled through
    /// [`FederatedSession::prepare`].
    pub fn prepare_sparql(&mut self, text: &str) -> Result<PreparedFederatedSparql, RpsError> {
        PreparedSparql::prepare(text, |cq| self.prepare(cq).map(Arc::new))
    }

    /// Executes a prepared SPARQL query over the federation.
    pub fn execute_sparql(
        &self,
        prepared: &PreparedFederatedSparql,
    ) -> Result<SparqlResult, RpsError> {
        prepared.execute(|plan| self.execute(plan).map(|answer| answer.stream))
    }

    /// Parses, prepares and executes in one call.
    pub fn answer_sparql(&mut self, text: &str) -> Result<SparqlResult, RpsError> {
        let prepared = self.prepare_sparql(text)?;
        self.execute_sparql(&prepared)
    }
}

impl FrozenFederatedSession {
    /// [`FederatedSession::prepare_sparql`] on a frozen federated
    /// session: every lowered CQ goes through the bounded plan cache,
    /// so hot SPARQL queries reuse their compiled federated plans.
    pub fn prepare_sparql(&self, text: &str) -> Result<PreparedFederatedSparql, RpsError> {
        PreparedSparql::prepare(text, |cq| self.prepare(cq))
    }

    /// Executes a prepared SPARQL query over the federation.
    pub fn execute_sparql(
        &self,
        prepared: &PreparedFederatedSparql,
    ) -> Result<SparqlResult, RpsError> {
        prepared.execute(|plan| self.execute(plan).map(|answer| answer.stream))
    }

    /// Parses, prepares (or fetches from the plan cache) and executes
    /// in one call.
    pub fn answer_sparql(&self, text: &str) -> Result<SparqlResult, RpsError> {
        let prepared = self.prepare_sparql(text)?;
        self.execute_sparql(&prepared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rps_core::{certain_answers, chase_system, PeerId, RpsBuilder, RpsChaseConfig};
    use rps_query::{GraphPattern, TermOrVar, Variable};
    use rps_tgd::RewriteConfig;

    fn linear_system() -> RdfPeerSystem {
        let mut a = PeerId(0);
        let mut b = PeerId(0);
        let premise = GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://b/actor"),
                TermOrVar::var("y"),
            ),
        );
        let conclusion = GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://a/cast"),
                TermOrVar::var("y"),
            ),
        );
        RpsBuilder::new()
            .peer_turtle("A", "<http://a/f1> <http://a/cast> <http://a/p1> .", &mut a)
            .unwrap()
            .peer_turtle(
                "B",
                "<http://b/f2> <http://b/actor> <http://b/p2> .",
                &mut b,
            )
            .unwrap()
            .assertion(b, a, premise, conclusion)
            .unwrap()
            .equivalence("http://a/p1", "http://b/p2")
            .build()
    }

    fn cast_query() -> GraphPatternQuery {
        GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://a/cast"),
                TermOrVar::var("y"),
            ),
        )
    }

    #[test]
    fn service_matches_materialised_answers() {
        let sys = linear_system();
        let mut session = FederatedSession::open(&sys, EngineConfig::default()).unwrap();
        assert!(session.fo_rewritable());
        let result = session.answer(&cast_query()).unwrap();
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        let chased = certain_answers(&sol, &cast_query());
        assert!(result.branches >= 2);
        assert!(result.stats.messages > 0);
        assert!(result.makespan_ms > 0.0);
        assert_eq!(result.stream.into_set().tuples, chased.tuples);
    }

    #[test]
    fn repeated_queries_are_independent() {
        let sys = linear_system();
        let mut session = FederatedSession::open(&sys, EngineConfig::default()).unwrap();
        let r1 = session.answer(&cast_query()).unwrap();
        let r2 = session.answer(&cast_query()).unwrap();
        assert_eq!(r1.stats, r2.stats);
        assert_eq!(r1.stream.into_set().tuples, r2.stream.into_set().tuples);
    }

    #[test]
    fn session_prepares_once_and_executes_repeatedly() {
        let sys = linear_system();
        let mut session = FederatedSession::open(&sys, EngineConfig::default()).unwrap();
        let prepared = session.prepare(&cast_query()).unwrap();
        assert!(prepared.branch_count() >= 2);
        let first = session.execute(&prepared).unwrap();
        assert_eq!(first.stream.route(), ExecRoute::Federated);
        let second = session.execute(&prepared).unwrap();
        assert_eq!(first.stats, second.stats);
        let a = first.stream.into_set();
        let b = second.stream.into_set();
        assert_eq!(a.tuples, b.tuples);
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        assert_eq!(a.tuples, certain_answers(&sol, &cast_query()).tuples);
    }

    #[test]
    fn foreign_prepared_queries_are_rejected() {
        let sys = linear_system();
        let mut a = FederatedSession::open(&sys, EngineConfig::default()).unwrap();
        let b = FederatedSession::open(&sys, EngineConfig::default()).unwrap();
        let prepared = a.prepare(&cast_query()).unwrap();
        // Executing against another session's answer dictionary would
        // silently mistranslate ids; it must error instead.
        assert!(matches!(
            b.execute(&prepared),
            Err(RpsError::SessionMismatch)
        ));
        assert!(!a.execute(&prepared).unwrap().stream.into_set().is_empty());
    }

    #[test]
    fn exhausted_rewriting_budget_is_a_typed_error() {
        // Transitive closure is not FO-rewritable (Proposition 3): a
        // bounded expansion can never be exhaustive. Prepare reports
        // that as the typed budget error instead of silently federating
        // a truncated union, on both federated sessions.
        let sys = rps_lodgen::chain::transitive_system(6);
        let cfg = EngineConfig::default().with_rewrite(RewriteConfig {
            max_depth: 3,
            max_cqs: 10_000,
        });
        let mut session = FederatedSession::open(&sys, cfg).unwrap();
        let query = rps_lodgen::chain::edge_query();
        assert!(matches!(
            session.prepare(&query),
            Err(RpsError::RewriteBudget { explored, .. }) if explored > 0
        ));
        let frozen = session.freeze().unwrap();
        assert!(matches!(
            frozen.prepare(&query),
            Err(RpsError::RewriteBudget { .. })
        ));
    }

    #[test]
    fn star_semantics_is_rejected() {
        let sys = linear_system();
        let cfg = EngineConfig::default().with_semantics(Semantics::Star);
        let mut session = FederatedSession::open(&sys, cfg.clone()).unwrap();
        assert!(matches!(
            session.prepare(&cast_query()),
            Err(RpsError::StarNeedsMaterialisation)
        ));
        // A frozen session rejects the configuration at freeze time.
        assert!(matches!(
            FederatedSession::open(&sys, cfg).unwrap().freeze(),
            Err(RpsError::StarNeedsMaterialisation)
        ));
    }

    #[test]
    fn config_changes_stale_federated_plans() {
        let sys = linear_system();
        let mut session = FederatedSession::open(&sys, EngineConfig::default()).unwrap();
        let prepared = session.prepare(&cast_query()).unwrap();
        session.config_mut().rewrite = RewriteConfig::default();
        assert!(matches!(
            session.execute(&prepared),
            Err(RpsError::StalePlan {
                prepared: 0,
                current: 1
            })
        ));
        let reprepared = session.prepare(&cast_query()).unwrap();
        assert!(!session
            .execute(&reprepared)
            .unwrap()
            .stream
            .into_set()
            .is_empty());
    }

    #[test]
    fn frozen_federated_matches_sequential_session() {
        let sys = linear_system();
        let mut seq = FederatedSession::open(&sys, EngineConfig::default()).unwrap();
        let expected = seq.answer(&cast_query()).unwrap();
        let expected_tuples = expected.stream.into_set().tuples;

        let frozen = FederatedSession::open(&sys, EngineConfig::default())
            .unwrap()
            .freeze()
            .unwrap();
        let prepared = frozen.prepare(&cast_query()).unwrap();
        for threads in [1, 2, 4, 8] {
            let got = frozen.execute_with_threads(&prepared, threads).unwrap();
            assert_eq!(got.stats, expected.stats, "{threads} threads");
            assert!((got.makespan_ms - expected.makespan_ms).abs() < 1e-9);
            assert_eq!(got.stream.into_set().tuples, expected_tuples);
        }
        // Re-preparing the same (α-equivalent) query is a cache hit on
        // the identical shared plan.
        let renamed = GraphPatternQuery::new(
            vec![Variable::new("a"), Variable::new("b")],
            GraphPattern::triple(
                TermOrVar::var("a"),
                TermOrVar::iri("http://a/cast"),
                TermOrVar::var("b"),
            ),
        );
        let again = frozen.prepare(&renamed).unwrap();
        assert!(std::sync::Arc::ptr_eq(&prepared, &again));
        let stats = frozen.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }
}

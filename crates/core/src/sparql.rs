//! SPARQL text on the answering façades.
//!
//! `rps_query::sparql` lowers a SPARQL SELECT/ASK query to a list of
//! plain conjunctive queries plus a term-level assembly tail.
//! [`PreparedSparql`] is the one place that pipeline is wired onto a
//! façade: [`PreparedSparql::prepare`] parses and lowers the text and
//! prepares every lowered CQ with the façade's *ordinary* prepare —
//! route resolution, plan cache, rewriting, cost-based join ordering,
//! all unchanged — and [`PreparedSparql::execute`] runs every plan with
//! the façade's execute and assembles the answer sets into the final
//! [`SparqlResult`]. [`Session`], [`FrozenSession`],
//! [`crate::LiveReader`] and the two federated sessions in `rps-p2p`
//! expose `prepare_sparql`/`execute_sparql`/`answer_sparql` as short
//! delegations to it, so the same query text answers byte-identically
//! on every façade and route.
//!
//! Prefixed names resolve against the query's own `PREFIX`/`BASE`
//! prologue, falling back to the common well-known namespaces
//! ([`rps_rdf::PrefixMap::common`]).

use crate::error::RpsError;
use crate::session::frozen::FrozenSession;
use crate::session::{AnswerStream, PreparedQuery, Session};
use rps_query::sparql::LoweredSparql;
use rps_query::{parse_sparql, GraphPatternQuery, SparqlResult};
use rps_rdf::{PrefixMap, Term};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A SPARQL query compiled against a façade: the lowered plan recipe
/// plus one prepared plan `P` per lowered CQ, in
/// [`LoweredSparql::queries`] order. The plans are bound to the façade
/// that prepared them, exactly like the plain prepared queries they
/// are: [`PreparedQuery`] for [`Session`] and [`FrozenSession`],
/// [`crate::LivePlan`] for [`crate::LiveReader`] (all pinned to one
/// epoch), and `rps_p2p::PreparedFederatedQuery` for the federated
/// sessions.
pub struct PreparedSparql<P = Arc<PreparedQuery>> {
    lowered: LoweredSparql,
    plans: Vec<P>,
}

impl<P> PreparedSparql<P> {
    /// Parses and lowers `text`, then prepares every lowered CQ with
    /// `prepare`. Malformed or out-of-subset text is a typed
    /// [`RpsError::Sparql`] with the offending span — never a panic.
    pub fn prepare(
        text: &str,
        prepare: impl FnMut(&GraphPatternQuery) -> Result<P, RpsError>,
    ) -> Result<Self, RpsError> {
        let lowered = parse_sparql(text, &PrefixMap::common())?.lower();
        let plans = lowered
            .queries()
            .into_iter()
            .map(prepare)
            .collect::<Result<_, _>>()?;
        Ok(PreparedSparql { lowered, plans })
    }

    /// Runs every plan with `execute` and assembles the answer streams
    /// with the term-level tail (left joins, filters, ordering).
    pub fn execute(
        &self,
        mut execute: impl FnMut(&P) -> Result<AnswerStream, RpsError>,
    ) -> Result<SparqlResult, RpsError> {
        let answers = self
            .plans
            .iter()
            .map(|plan| execute(plan).map(|stream| stream.collect::<BTreeSet<Vec<Term>>>()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self.lowered.assemble(&answers))
    }

    /// The prepared plans, one per lowered CQ.
    pub fn plans(&self) -> &[P] {
        &self.plans
    }

    /// The number of plans behind this query (one per UNION branch
    /// plus one per OPTIONAL block per branch).
    pub fn plan_count(&self) -> usize {
        self.plans.len()
    }

    /// `true` for ASK queries.
    pub fn is_ask(&self) -> bool {
        self.lowered.is_ask()
    }

    /// The output column names, in order (empty for ASK).
    pub fn columns(&self) -> Vec<String> {
        self.lowered.columns()
    }
}

impl Session {
    /// Compiles a SPARQL SELECT/ASK query (the subset documented in
    /// [`rps_query::sparql`]: BGPs, OPTIONAL, UNION, FILTER, DISTINCT,
    /// ORDER BY, LIMIT/OFFSET) for repeated execution; see
    /// [`PreparedSparql::prepare`].
    ///
    /// ```
    /// use rps_core::{EngineConfig, PeerId, RpsBuilder, Session};
    ///
    /// let mut p = PeerId(0);
    /// let system = RpsBuilder::new()
    ///     .peer_turtle(
    ///         "A",
    ///         "<http://a/f1> <http://a/cast> <http://a/p1> .",
    ///         &mut p,
    ///     )
    ///     .unwrap()
    ///     .build();
    /// let mut session = Session::open(system, EngineConfig::default()).unwrap();
    ///
    /// let prepared = session
    ///     .prepare_sparql("SELECT ?f ?who WHERE { ?f <http://a/cast> ?who }")
    ///     .unwrap();
    /// let result = session.execute_sparql(&prepared).unwrap();
    /// let rows = result.rows().unwrap();
    /// assert_eq!(rows.vars, ["f", "who"]);
    /// assert_eq!(rows.rows.len(), 1);
    /// ```
    pub fn prepare_sparql(&mut self, text: &str) -> Result<PreparedSparql, RpsError> {
        PreparedSparql::prepare(text, |cq| self.prepare(cq).map(Arc::new))
    }

    /// Executes a prepared SPARQL query: every plan runs through
    /// [`Session::execute`].
    pub fn execute_sparql(&mut self, prepared: &PreparedSparql) -> Result<SparqlResult, RpsError> {
        prepared.execute(|plan| self.execute(plan))
    }

    /// Parses, prepares and executes in one call. Prefer
    /// [`Session::prepare_sparql`] + [`Session::execute_sparql`] when
    /// the same query runs repeatedly.
    pub fn answer_sparql(&mut self, text: &str) -> Result<SparqlResult, RpsError> {
        let prepared = self.prepare_sparql(text)?;
        self.execute_sparql(&prepared)
    }
}

impl FrozenSession {
    /// [`Session::prepare_sparql`] on a frozen session: each lowered
    /// CQ goes through the frozen session's bounded plan cache, so hot
    /// SPARQL queries reuse their compiled plans across threads.
    ///
    /// ```
    /// use rps_core::{EngineConfig, PeerId, RpsBuilder, Session};
    ///
    /// let mut p = PeerId(0);
    /// let system = RpsBuilder::new()
    ///     .peer_turtle(
    ///         "A",
    ///         "<http://a/f1> <http://a/cast> <http://a/p1> .",
    ///         &mut p,
    ///     )
    ///     .unwrap()
    ///     .build();
    /// let frozen = Session::open(system, EngineConfig::default())
    ///     .unwrap()
    ///     .freeze()
    ///     .unwrap();
    ///
    /// let ok = frozen
    ///     .answer_sparql("ASK { ?f <http://a/cast> ?who }")
    ///     .unwrap();
    /// assert_eq!(ok.boolean(), Some(true));
    /// ```
    pub fn prepare_sparql(&self, text: &str) -> Result<PreparedSparql, RpsError> {
        PreparedSparql::prepare(text, |cq| self.prepare(cq))
    }

    /// Executes a prepared SPARQL query against this frozen session.
    pub fn execute_sparql(&self, prepared: &PreparedSparql) -> Result<SparqlResult, RpsError> {
        prepared.execute(|plan| self.execute(plan))
    }

    /// Parses, prepares and executes in one call.
    pub fn answer_sparql(&self, text: &str) -> Result<SparqlResult, RpsError> {
        let prepared = self.prepare_sparql(text)?;
        self.execute_sparql(&prepared)
    }
}

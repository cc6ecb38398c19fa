//! SPARQL text on the answering façades.
//!
//! `rps_query::sparql` lowers a SPARQL SELECT/ASK query to a list of
//! plain conjunctive queries plus an id-level assembly tail.
//! [`PreparedSparql`] is the one place that pipeline is wired onto a
//! façade: [`PreparedSparql::prepare`] parses and lowers the text and
//! prepares every lowered CQ with the façade's *ordinary* prepare —
//! route resolution, plan cache, rewriting, cost-based join ordering,
//! all unchanged — and [`PreparedSparql::execute`] runs every plan with
//! the façade's execute and assembles the streams, undecoded, into the
//! final [`SparqlResult`]: ids of one shared solution go to the tail as
//! they are, and term streams (rewritten, Datalog and federated routes)
//! are interned into a per-query dictionary first. Only the rows the
//! query returns are decoded. [`Session`], [`FrozenSession`],
//! [`crate::LiveReader`] and the two federated sessions in `rps-p2p`
//! expose `prepare_sparql`/`execute_sparql`/`answer_sparql` as short
//! delegations to it, so the same query text answers byte-identically
//! on every façade and route.
//!
//! Prefixed names resolve against the query's own `PREFIX`/`BASE`
//! prologue, falling back to the common well-known namespaces
//! ([`rps_rdf::PrefixMap::common`]).

use crate::chase::UniversalSolution;
use crate::error::RpsError;
use crate::session::frozen::FrozenSession;
use crate::session::{AnswerStream, PreparedQuery, Session, StreamRows};
use rps_query::sparql::{IdRows, LoweredSparql, QueryDict};
use rps_query::{parse_sparql, GraphPatternQuery, SparqlResult};
use rps_rdf::PrefixMap;
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
    /// with the id-level tail (left joins, filters, ordering). Streams
    /// that all carry ids of one solution — the materialised and live
    /// routes, where one query's plans share one solution or epoch —
    /// are assembled on those ids directly. Otherwise every stream is
    /// interned into a per-query dictionary first: the rewritten,
    /// Datalog and federated routes produce terms.
    pub fn execute(
        &self,
        mut execute: impl FnMut(&P) -> Result<AnswerStream, RpsError>,
    ) -> Result<SparqlResult, RpsError> {
        let streams = self
            .plans
            .iter()
            .map(|plan| execute(plan).map(AnswerStream::into_rows))
            .collect::<Result<Vec<_>, _>>()?;
        let widths = self
            .lowered
            .queries()
            .into_iter()
            .map(|cq| cq.free_vars().len());
        if let Some(solution) = shared_solution(&streams) {
            let answers: Vec<IdRows> = streams
                .iter()
                .zip(widths)
                .map(|(stream, width)| {
                    let mut rows = IdRows::new(width);
                    if let StreamRows::Ids(_, tuples) = stream {
                        for tuple in tuples {
                            rows.push(tuple);
                        }
                    }
                    rows
                })
                .collect();
            return Ok(self.lowered.assemble_ids(&answers, &solution.graph));
        }
        let mut dict = QueryDict::new();
        let answers: Vec<IdRows> = streams
            .iter()
            .zip(widths)
            .map(|(stream, width)| match stream {
                StreamRows::Ids(solution, tuples) => dict.intern_rows(
                    width,
                    tuples
                        .iter()
                        .map(|tuple| tuple.iter().map(|&id| solution.graph.term(id))),
                ),
                StreamRows::Terms(tuples) => dict.intern_rows(width, tuples),
            })
            .collect();
        Ok(self.lowered.assemble_ids(&answers, &dict))
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

/// The solution every stream's ids belong to, if all streams carry ids
/// of one and the same solution.
fn shared_solution(streams: &[StreamRows]) -> Option<&Arc<UniversalSolution>> {
    let mut shared = None;
    for stream in streams {
        match (stream, shared) {
            (StreamRows::Ids(solution, _), None) => shared = Some(solution),
            (StreamRows::Ids(solution, _), Some(first)) if Arc::ptr_eq(first, solution) => {}
            _ => return None,
        }
    }
    shared
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

#[cfg(test)]
mod tests {
    use crate::{EngineConfig, PeerId, RpsBuilder, Session, Strategy};

    const QUERY: &str = "PREFIX e: <http://e/> \
        SELECT ?x ?n WHERE { ?x e:p ?y OPTIONAL { ?y e:q ?n } } ORDER BY DESC(?n) ?x";

    fn session(turtle: &str) -> Session {
        let mut p = PeerId(0);
        let system = RpsBuilder::new()
            .peer_turtle("E", turtle, &mut p)
            .unwrap()
            .build();
        Session::open(
            system,
            EngineConfig::default().with_strategy(Strategy::Materialise),
        )
        .unwrap()
    }

    /// Streams that are not all ids of one solution — a term stream
    /// beside an id stream, or ids of two solutions whose dictionaries
    /// number the same terms differently — are interned into one
    /// per-query dictionary and assemble exactly as one solution's ids.
    #[test]
    fn mixed_streams_assemble_like_one_solution() {
        let data = [
            "<http://e/a> <http://e/p> <http://e/b> .",
            "<http://e/c> <http://e/p> <http://e/d> .",
            "<http://e/b> <http://e/q> \"2\" .",
            "<http://e/d> <http://e/q> \"10\" .",
        ];
        let mut one = session(&data.join("\n"));
        let reversed: Vec<_> = data.iter().rev().copied().collect();
        let mut other = session(&reversed.join("\n"));

        let prepared = one.prepare_sparql(QUERY).unwrap();
        assert_eq!(prepared.plan_count(), 2);
        let want = one.execute_sparql(&prepared).unwrap();
        assert_eq!(want.rows().unwrap().rows.len(), 2);

        // The OPTIONAL's plan answers as decoded terms.
        let mut calls = 0;
        let terms = prepared
            .execute(|plan| {
                calls += 1;
                let stream = one.execute(plan)?;
                if calls == 1 {
                    return Ok(stream);
                }
                let (vars, route) = (stream.vars().to_vec(), stream.route());
                Ok(super::AnswerStream::from_terms(
                    vars,
                    route,
                    stream.collect(),
                ))
            })
            .unwrap();
        assert_eq!(terms, want);

        // The OPTIONAL's plan answers with another solution's ids.
        let foreign = other.prepare_sparql(QUERY).unwrap();
        let mut calls = 0;
        let mixed = prepared
            .execute(|plan| {
                calls += 1;
                if calls == 1 {
                    one.execute(plan)
                } else {
                    other.execute(&foreign.plans()[1])
                }
            })
            .unwrap();
        assert_eq!(mixed, want);
    }
}

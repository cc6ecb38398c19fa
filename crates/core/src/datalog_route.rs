//! The Datalog route (paper Section 5, future-work item 1): for systems
//! whose graph mapping assertions are *full* (no existential variables in
//! the conclusion after pairing with the premise), the mapping
//! dependencies form a Datalog program. Certain answers are then computed
//! by a semi-naive fixpoint over the (equivalence-quotiented) sources —
//! covering exactly the systems Proposition 3 puts beyond FO rewriting,
//! such as transitive closure.

use crate::answers::AnswerSet;
use crate::encode::{gma_tgd_unguarded, graph_as_tt, query_to_cq, Encoder};
use crate::equivalence::{
    canonicalize_graph, canonicalize_query, expand_answers, EquivalenceIndex,
};
use crate::system::RdfPeerSystem;
use rps_query::GraphPatternQuery;
use rps_rdf::Term;
use rps_tgd::{DatalogError, Instance, Program};
use std::collections::BTreeSet;

/// A compiled Datalog evaluator for one system.
pub struct DatalogEngine {
    program: Program,
    /// The saturated (least-model) canonical instance, computed lazily.
    saturated: Option<Instance>,
    canon_source: Instance,
    encoder: Encoder,
    index: EquivalenceIndex,
    /// Derivation rounds of the last fixpoint run.
    pub rounds: usize,
}

impl DatalogEngine {
    /// Compiles a system into a Datalog engine.
    ///
    /// Fails with [`DatalogError::NotFull`] if some graph mapping
    /// assertion's conclusion has existential variables — those need the
    /// chase (labelled nulls), not Datalog.
    pub fn new(system: &RdfPeerSystem) -> Result<Self, DatalogError> {
        let mut encoder = Encoder::new();
        let index = EquivalenceIndex::from_mappings(system.equivalences());
        let tgds: Vec<rps_tgd::Tgd> = system
            .assertions()
            .iter()
            .map(|gma| {
                let premise = canonicalize_query(&gma.premise, &index);
                let conclusion = canonicalize_query(&gma.conclusion, &index);
                gma_tgd_unguarded(&premise, &conclusion, &mut encoder)
            })
            .collect();
        let program = Program::compile(&tgds)?;
        let canon_graph = canonicalize_graph(&system.stored_database(), &index);
        let canon_source = graph_as_tt(&canon_graph, &mut encoder);
        Ok(DatalogEngine {
            program,
            saturated: None,
            canon_source,
            encoder,
            index,
            rounds: 0,
        })
    }

    /// The least model of the canonical sources under the program.
    fn saturated(&mut self) -> &Instance {
        if self.saturated.is_none() {
            let (inst, rounds) = self.program.fixpoint(self.canon_source.clone());
            self.rounds = rounds;
            self.saturated = Some(inst);
        }
        self.saturated.as_ref().expect("just computed")
    }

    /// Certain answers of a query: evaluate over the least model, expand
    /// over equivalence classes.
    pub fn answers(&mut self, query: &GraphPatternQuery) -> AnswerSet {
        let canon_query = canonicalize_query(query, &self.index);
        let cq = query_to_cq(&canon_query, &mut self.encoder, false);
        let saturated = {
            // Borrow dance: compute before borrowing encoder immutably.
            self.saturated();
            self.saturated.as_ref().expect("computed")
        };
        let raw = cq.evaluate(saturated, true);
        let decoded: BTreeSet<Vec<Term>> = raw
            .iter()
            .map(|row| row.iter().map(|g| self.encoder.decode(g)).collect())
            .collect();
        AnswerSet {
            vars: query
                .free_vars()
                .iter()
                .map(|v| v.name().to_string())
                .collect(),
            tuples: expand_answers(&decoded, &self.index),
        }
    }

    /// Number of facts in the least model (after saturation).
    pub fn model_size(&mut self) -> usize {
        self.saturated().len()
    }
}

/// Crate-internal test fixtures: the transitive-closure chain system
/// (the Proposition 3 workload) reimplemented locally to avoid a
/// dev-dependency cycle with `rps-lodgen`, and a two-peer system whose
/// mapping has an existential conclusion. Shared by this module's tests
/// and the [`crate::session`] and [`crate::live`] tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use crate::peer::{Peer, PeerId};
    use crate::system::RpsBuilder;
    use rps_query::{GraphPattern, TermOrVar, Variable};

    pub(crate) fn transitive_system(len: usize) -> RdfPeerSystem {
        let pred = Term::iri("http://c/A");
        let node = |i: usize| Term::iri(format!("http://c/n{i}"));
        let mut g = rps_rdf::Graph::new();
        for i in 0..len {
            g.insert_terms(node(i), pred.clone(), node(i + 1)).unwrap();
        }
        let mut sys = RdfPeerSystem::new();
        let p = sys.add_peer(Peer::from_database("chain", g));
        let premise = GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::Term(pred.clone()),
                TermOrVar::var("z"),
            )
            .and(GraphPattern::triple(
                TermOrVar::var("z"),
                TermOrVar::Term(pred.clone()),
                TermOrVar::var("y"),
            )),
        );
        let conclusion = GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::Term(pred),
                TermOrVar::var("y"),
            ),
        );
        sys.add_assertion(
            crate::mapping::GraphMappingAssertion::new(p, p, premise, conclusion).unwrap(),
        );
        sys
    }

    pub(crate) fn edge_query() -> GraphPatternQuery {
        GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://c/A"),
                TermOrVar::var("y"),
            ),
        )
    }

    /// Two peers: peer B holds `actor` facts, peer A uses
    /// `starring`/`artist`; one GMA translates B into A's shape with an
    /// existential witness (`z`) between the two A-triples, so the
    /// system is not expressible as Datalog.
    pub(crate) fn existential_system() -> RdfPeerSystem {
        let v = Variable::new;
        let mut a = PeerId(0);
        let mut b = PeerId(0);
        let premise = GraphPatternQuery::new(
            vec![v("x"), v("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://b/actor"),
                TermOrVar::var("y"),
            ),
        );
        let conclusion = GraphPatternQuery::new(
            vec![v("x"), v("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://a/starring"),
                TermOrVar::var("z"),
            )
            .and(GraphPattern::triple(
                TermOrVar::var("z"),
                TermOrVar::iri("http://a/artist"),
                TermOrVar::var("y"),
            )),
        );
        RpsBuilder::new()
            .peer_turtle(
                "A",
                "<http://a/film> <http://a/starring> _:c .\n\
                 _:c <http://a/artist> <http://a/actor1> .",
                &mut a,
            )
            .unwrap()
            .peer_turtle(
                "B",
                "<http://b/film2> <http://b/actor> <http://b/actor2> .",
                &mut b,
            )
            .unwrap()
            .assertion(b, a, premise, conclusion)
            .unwrap()
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{edge_query, transitive_system as tc_system};
    use super::*;
    use crate::chase::{chase_system, RpsChaseConfig};
    use crate::PeerId;

    #[test]
    fn datalog_equals_chase_on_transitive_closure() {
        let sys = tc_system(10);
        let mut engine = DatalogEngine::new(&sys).expect("full TGDs");
        let datalog = engine.answers(&edge_query());
        let sol = chase_system(&sys, &RpsChaseConfig::default());
        let chased = crate::answers::certain_answers(&sol, &edge_query());
        assert_eq!(datalog.tuples, chased.tuples);
        assert_eq!(datalog.len(), 55); // 11 choose 2
    }

    #[test]
    fn existential_systems_are_rejected() {
        use rps_query::{GraphPattern, TermOrVar, Variable};
        let mut sys = tc_system(3);
        // Add a hub-style assertion with an existential conclusion var.
        let premise = GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://c/A"),
                TermOrVar::var("y"),
            ),
        );
        let conclusion = GraphPatternQuery::new(
            vec![Variable::new("x"), Variable::new("y")],
            GraphPattern::triple(
                TermOrVar::var("x"),
                TermOrVar::iri("http://c/B"),
                TermOrVar::var("z"),
            )
            .and(GraphPattern::triple(
                TermOrVar::var("z"),
                TermOrVar::iri("http://c/C"),
                TermOrVar::var("y"),
            )),
        );
        sys.add_assertion(
            crate::mapping::GraphMappingAssertion::new(PeerId(0), PeerId(0), premise, conclusion)
                .unwrap(),
        );
        assert!(matches!(
            DatalogEngine::new(&sys),
            Err(DatalogError::NotFull { .. })
        ));
    }

    #[test]
    fn equivalences_are_quotiented() {
        let mut sys = tc_system(4);
        sys.add_equivalence(crate::mapping::EquivalenceMapping::new(
            rps_rdf::Iri::new("http://c/n0"),
            rps_rdf::Iri::new("http://c/alias"),
        ));
        let mut engine = DatalogEngine::new(&sys).unwrap();
        let ans = engine.answers(&edge_query());
        // alias inherits all of n0's closure edges.
        assert!(ans
            .tuples
            .contains(&vec![Term::iri("http://c/alias"), Term::iri("http://c/n4")]));
    }
}

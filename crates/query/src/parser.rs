//! Cases of the paper's conjunctive SPARQL subset — basic graph patterns,
//! `;`/`,` lists, `UNION`, prefixes and literal shorthands. Each must
//! lower through [`crate::parse_sparql`] to exactly the plain CQs it
//! denotes: one CQ per `UNION` branch, heads in projection order.

mod tests {
    use crate::eval::Semantics;
    use crate::parse_sparql;
    use rps_rdf::{PrefixMap, Term};

    fn base() -> PrefixMap {
        let mut m = PrefixMap::common();
        m.insert("e", "http://e/");
        m
    }

    /// Parses and lowers `text`, and checks the query form and the
    /// printed CQs.
    fn assert_lowers_to(text: &str, prefixes: &PrefixMap, cqs: &[&str]) {
        let parsed = parse_sparql(text, prefixes);
        let lowered = parsed.unwrap_or_else(|e| panic!("{text}: {e}")).lower();
        assert_eq!(lowered.is_ask(), text.starts_with("ASK"), "{text}");
        let got: Vec<String> = lowered.queries().iter().map(|q| q.to_string()).collect();
        assert_eq!(got, cqs, "{text}");
    }

    #[test]
    fn parse_select() {
        assert_lowers_to(
            "SELECT ?x ?y WHERE { ?x e:p ?z . ?z e:q ?y }",
            &base(),
            &["q(?x, ?y) <- { ?x <http://e/p> ?z . ?z <http://e/q> ?y }"],
        );
    }

    #[test]
    fn parse_select_without_where() {
        assert_lowers_to(
            "SELECT ?x { ?x e:p ?y }",
            &base(),
            &["q(?x) <- { ?x <http://e/p> ?y }"],
        );
    }

    #[test]
    fn parse_prefix_declaration() {
        assert_lowers_to(
            "PREFIX db: <http://db/> SELECT ?x WHERE { db:Spiderman db:starring ?x }",
            &PrefixMap::new(),
            &["q(?x) <- { <http://db/Spiderman> <http://db/starring> ?x }"],
        );
    }

    #[test]
    fn parse_ask_with_union() {
        assert_lowers_to(
            "ASK {{ ?x e:p ?y } UNION { ?x e:q ?y } UNION { ?x e:r ?y }}",
            &base(),
            &[
                "q() <- { ?x <http://e/p> ?y }",
                "q() <- { ?x <http://e/q> ?y }",
                "q() <- { ?x <http://e/r> ?y }",
            ],
        );
    }

    #[test]
    fn parse_literals_and_integers() {
        assert_lowers_to(
            "SELECT ?x WHERE { ?x e:age \"39\" . ?x e:year 2002 . ?x e:label \"f\"@en }",
            &base(),
            &["q(?x) <- { ?x <http://e/age> \"39\" . ?x <http://e/year> \
               \"2002\"^^<http://www.w3.org/2001/XMLSchema#integer> . \
               ?x <http://e/label> \"f\"@en }"],
        );
    }

    #[test]
    fn parse_semicolon_and_comma_groups() {
        assert_lowers_to(
            "SELECT ?x WHERE { ?x e:p e:a , e:b ; e:q e:c . e:s e:r ?x }",
            &base(),
            &[
                "q(?x) <- { ?x <http://e/p> <http://e/a> . ?x <http://e/p> <http://e/b> . \
                 ?x <http://e/q> <http://e/c> . <http://e/s> <http://e/r> ?x }",
            ],
        );
    }

    #[test]
    fn unknown_prefix_fails() {
        assert!(parse_sparql("SELECT ?x WHERE { ?x nope:p ?y }", &PrefixMap::new()).is_err());
    }

    #[test]
    fn trailing_garbage_fails() {
        assert!(parse_sparql("ASK { ?x e:p ?y } garbage", &base()).is_err());
    }

    #[test]
    fn end_to_end_evaluation() {
        let text = "SELECT ?x WHERE { e:s e:p ?m . ?m e:q ?x }";
        assert_lowers_to(
            text,
            &base(),
            &["q(?x) <- { <http://e/s> <http://e/p> ?m . ?m <http://e/q> ?x }"],
        );
        let g = rps_rdf::turtle::parse("@prefix e: <http://e/> .\ne:s e:p e:m .\ne:m e:q e:o .\n")
            .unwrap();
        let r = parse_sparql(text, &base())
            .unwrap()
            .lower()
            .evaluate(&g, Semantics::Certain);
        assert_eq!(
            r.rows().unwrap().rows,
            [vec![Some(Term::iri("http://e/o"))]]
        );
    }

    #[test]
    fn paper_example_query_parses() {
        // The exact query from Example 1 of the paper (modulo prefixes),
        // with the empty prefix `:`.
        let mut m = PrefixMap::new();
        m.insert("db1", "http://db1/");
        m.insert("", "http://vocab/");
        assert_lowers_to(
            "SELECT ?x ?y WHERE { db1:Spiderman :starring ?z . ?z :artist ?x . ?x :age ?y }",
            &m,
            &[
                "q(?x, ?y) <- { <http://db1/Spiderman> <http://vocab/starring> ?z . \
                 ?z <http://vocab/artist> ?x . ?x <http://vocab/age> ?y }",
            ],
        );
    }
}

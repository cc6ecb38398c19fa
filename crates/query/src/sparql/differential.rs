//! Seeded differential test of the id-level assembly tail against the
//! term-level reference it replaced.
//!
//! Each round draws a small random Turtle graph and a random query from
//! the grammar in the module docs — OPTIONALs sharing variables with
//! the base and with each other, FILTERs over unbound variables and
//! over numerals (`"9"`, `"10"`, `"010"`), UNION alternatives binding
//! different variables, ORDER BY ASC/DESC with ties, LIMIT 0, OFFSET
//! past the end, and ASK — evaluates the lowered CQs on the graph, and
//! requires both entry points of the tail to equal the reference
//! exactly: [`LoweredSparql::assemble`] on the term sets and
//! [`LoweredSparql::assemble_ids`] on the graph's own ids.
//!
//! Seeds come from `RPS_SPARQL_TAIL_SEED` (comma-separated `u64`s) when
//! set, otherwise from a fixed default list.
//!
//! The literal vocabulary mixes numerals with non-numeric literals that
//! sort lexically among them (`"1a"`, the language-tagged `"10"@en`),
//! and every seed must sort a column holding both kinds: the ORDER BY
//! comparator has to be a total order over such columns.

use super::reference;
use super::{parse_sparql, IdRows, LoweredSparql, SparqlResult};
use crate::eval::{evaluate_query, evaluate_query_ids, Semantics};
use rps_rdf::{Graph, PrefixMap, Term};
use std::collections::BTreeSet;

const DEFAULT_SEEDS: &[u64] = &[0x7A11, 0xD1FF, 13];

/// Rounds per seed.
const ROUNDS: usize = 2000;

fn seeds() -> Vec<u64> {
    match std::env::var("RPS_SPARQL_TAIL_SEED") {
        Ok(list) => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("RPS_SPARQL_TAIL_SEED: bad seed {s:?}"))
            })
            .collect(),
        Err(_) => DEFAULT_SEEDS.to_vec(),
    }
}

/// SplitMix64: small, seedable, good enough to draw test cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

const SUBJECTS: &[&str] = &["e:s0", "e:s1", "e:s2", "e:s3", "_:b0", "_:b1"];
const PREDICATES: &[&str] = &["e:p", "e:q"];
/// Numerals come in classes of distinct terms with one value (`"9"`,
/// `"09"`, `"9"^^xsd:integer`; `"10"`, `"010"`, `"10.0"`; `"1"`,
/// `"01"`), so id equality and numeric equality part ways often. The
/// non-numeric literals include two that sort lexically among the
/// numerals (`"1a"`, `"10"@en`).
const LITERALS: &[&str] = &[
    "\"9\"",
    "\"09\"",
    "\"9\"^^<http://www.w3.org/2001/XMLSchema#integer>",
    "\"10\"",
    "\"010\"",
    "\"10.0\"",
    "\"1\"",
    "\"01\"",
    "\"-3\"",
    "\"2.5\"",
    "\"a\"",
    "\"b\"",
    "\"b\"@en",
    "\"1a\"",
    "\"10\"@en",
    "\"x9\"",
];
const VARS: &[&str] = &["?x", "?y", "?z", "?w", "?v"];

fn graph(rng: &mut Rng) -> Graph {
    let mut text = String::from("@prefix e: <http://e/> .\n");
    for _ in 0..rng.below(24) + 6 {
        let s = rng.pick(SUBJECTS);
        let p = rng.pick(PREDICATES);
        let o = if rng.chance(35) {
            rng.pick(SUBJECTS)
        } else {
            rng.pick(LITERALS)
        };
        text.push_str(&format!("{s} {p} {o} .\n"));
    }
    rps_rdf::turtle::parse(&text).expect("generated Turtle parses")
}

/// A triple pattern; a variable drawn for the object goes to `bound`.
fn triple(
    rng: &mut Rng,
    subjects: &[&str],
    objects: &[&'static str],
    bound: &mut Vec<&'static str>,
) -> String {
    let s = if rng.chance(85) {
        rng.pick(subjects)
    } else {
        rng.pick(&SUBJECTS[..4])
    };
    let p = rng.pick(PREDICATES);
    let o = if rng.chance(85) {
        let v = rng.pick(objects);
        bound.push(v);
        v
    } else {
        rng.pick(LITERALS)
    };
    format!("{s} {p} {o} . ")
}

fn operand(rng: &mut Rng) -> String {
    if rng.chance(65) {
        rng.pick(VARS).to_string()
    } else if rng.chance(70) {
        rng.pick(LITERALS).to_string()
    } else {
        rng.pick(&SUBJECTS[..4]).to_string()
    }
}

fn expr(rng: &mut Rng, depth: usize) -> String {
    let op = |rng: &mut Rng| rng.pick(&["=", "!=", "<", "<=", ">", ">="]);
    match if depth == 0 { 0 } else { rng.below(6) } {
        0 | 1 => format!("{} {} {}", operand(rng), op(rng), operand(rng)),
        2 => {
            // Variable against variable, mostly (in)equality: the
            // comparison where id equality and term equality can differ.
            let op = rng.pick(&["=", "!=", "=", "!=", "<", ">="]);
            format!("{} {op} {}", rng.pick(VARS), rng.pick(VARS))
        }
        3 => format!("bound({})", rng.pick(VARS)),
        4 => format!("!({})", expr(rng, depth - 1)),
        _ => {
            let op = rng.pick(&["&&", "||"]);
            format!("({}) {op} ({})", expr(rng, depth - 1), expr(rng, depth - 1))
        }
    }
}

fn filter(rng: &mut Rng) -> String {
    format!("FILTER({}) ", expr(rng, 2))
}

/// A query over [`VARS`]: base triples, optionally a UNION block, up
/// to two OPTIONALs, group filters, and solution modifiers. The base
/// draws from the first few variables and the OPTIONALs mostly join a
/// base variable to the rest, so OPTIONALs share variables with the
/// base and — outside the base — with each other.
fn query(rng: &mut Rng) -> String {
    let split = 1 + rng.below(3);
    let (base_vars, optional_vars) = VARS.split_at(split);
    let mut body = String::new();
    let mut objects = Vec::new();
    for _ in 0..1 + rng.below(2) {
        body.push_str(&triple(rng, base_vars, VARS, &mut objects));
    }
    if rng.chance(30) {
        let alternatives: Vec<String> = (0..2 + rng.below(2))
            .map(|_| {
                let mut alt = triple(rng, VARS, VARS, &mut objects);
                if rng.chance(25) {
                    alt.push_str(&filter(rng));
                }
                format!("{{ {alt}}}")
            })
            .collect();
        body.push_str(&alternatives.join(" UNION "));
        body.push(' ');
    }
    for _ in 0..rng.below(3) {
        let mut opt = if rng.chance(60) {
            triple(rng, base_vars, optional_vars, &mut objects)
        } else {
            triple(rng, VARS, VARS, &mut objects)
        };
        if rng.chance(30) {
            opt.push_str(&triple(rng, VARS, optional_vars, &mut objects));
        }
        if rng.chance(30) {
            opt.push_str(&filter(rng));
        }
        body.push_str(&format!("OPTIONAL {{ {opt}}} "));
    }
    // Two object variables compared: literal bindings make numerically
    // equal, distinct terms meet often.
    if rng.chance(40) && !objects.is_empty() {
        let op = rng.pick(&["=", "!="]);
        let (a, b) = (rng.pick(&objects), rng.pick(&objects));
        body.push_str(&format!("FILTER({a} {op} {b}) "));
    }
    for _ in 0..rng.below(3) {
        body.push_str(&filter(rng));
    }
    if rng.chance(15) {
        return format!("PREFIX e: <http://e/> ASK {{ {body}}}");
    }
    let distinct = if rng.chance(30) { "DISTINCT " } else { "" };
    let mut projected: Vec<&str> = VARS.iter().copied().filter(|_| rng.chance(55)).collect();
    if projected.is_empty() {
        projected.push(rng.pick(base_vars));
    }
    let mut modifiers = String::new();
    if rng.chance(60) {
        modifiers.push_str("ORDER BY");
        for _ in 0..1 + rng.below(2) {
            let v = rng.pick(&projected);
            modifiers.push_str(&match rng.below(3) {
                0 => format!(" {v}"),
                1 => format!(" ASC({v})"),
                _ => format!(" DESC({v})"),
            });
        }
        modifiers.push(' ');
    }
    if rng.chance(50) {
        modifiers.push_str(&format!("LIMIT {} ", rng.below(5)));
    }
    if rng.chance(40) {
        modifiers.push_str(&format!("OFFSET {} ", rng.below(8)));
    }
    format!(
        "PREFIX e: <http://e/> SELECT {distinct}{} WHERE {{ {body}}} {modifiers}",
        projected.join(" ")
    )
}

/// The lowered CQs' answers, as term sets and as the graph's id rows.
fn answers(
    lowered: &LoweredSparql,
    graph: &Graph,
    semantics: Semantics,
) -> (Vec<BTreeSet<Vec<Term>>>, Vec<IdRows>) {
    let queries = lowered.queries();
    let terms = queries
        .iter()
        .map(|cq| evaluate_query(graph, cq, semantics))
        .collect();
    let ids = queries
        .iter()
        .map(|cq| {
            let mut rows = IdRows::new(cq.free_vars().len());
            for row in evaluate_query_ids(graph, cq, semantics) {
                rows.push(&row);
            }
            rows
        })
        .collect();
    (terms, ids)
}

/// Shapes the sweep must have met with non-trivial data, per seed, so
/// a generator change cannot quietly turn the rounds into no-ops.
#[derive(Default, Debug)]
struct Coverage {
    /// ORDER BY + LIMIT that cut rows off.
    top_k_cut: usize,
    /// LIMIT 0 over a non-empty result.
    limit_zero: usize,
    /// OFFSET at or past the end of a non-empty result.
    offset_past_end: usize,
    /// Two OPTIONALs sharing a variable beyond the base head, both
    /// with extensions.
    shared_optionals: usize,
    /// A UNION whose result has an unbound cell.
    union_unbound: usize,
    /// ASK answered true, and false.
    ask_true: usize,
    ask_false: usize,
    /// An ORDER BY key column holding numeric and non-numeric terms.
    mixed_sort: usize,
}

impl Coverage {
    fn record(
        &mut self,
        lowered: &LoweredSparql,
        terms: &[BTreeSet<Vec<Term>>],
        result: &SparqlResult,
    ) {
        let Some(rows) = result.rows() else {
            match result.boolean() {
                Some(true) => self.ask_true += 1,
                _ => self.ask_false += 1,
            }
            return;
        };
        let mut unpaged = lowered.clone();
        unpaged.limit = None;
        unpaged.offset = None;
        let all = reference::assemble(&unpaged, terms)
            .rows()
            .map_or(0, |r| r.rows.len());
        let offset = lowered.offset.unwrap_or(0);
        if let Some(limit) = lowered.limit {
            self.limit_zero += usize::from(limit == 0 && all > 0);
            self.top_k_cut +=
                usize::from(!lowered.order_by.is_empty() && limit > 0 && all > offset + limit);
        }
        self.offset_past_end += usize::from(lowered.offset.is_some() && offset >= all && all > 0);
        let columns = rows.vars.clone();
        let mixed = lowered.order_by.iter().any(|key| {
            let Some(col) = columns.iter().position(|v| *v == key.var.name()) else {
                return false;
            };
            let kinds: BTreeSet<bool> = rows
                .rows
                .iter()
                .filter_map(|row| row[col].as_ref())
                .map(|t| reference::numeric(t).is_some())
                .collect();
            kinds.len() == 2
        });
        self.mixed_sort += usize::from(mixed);
        let unbound = rows.rows.iter().flatten().any(Option::is_none);
        self.union_unbound += usize::from(lowered.branches.len() > 1 && unbound);
        let mut cursor = 0;
        for branch in &lowered.branches {
            let base: BTreeSet<_> = branch.base.free_vars().iter().collect();
            let heads: Vec<BTreeSet<_>> = branch
                .optionals
                .iter()
                .map(|o| {
                    o.query
                        .free_vars()
                        .iter()
                        .filter(|v| !base.contains(v))
                        .collect()
                })
                .collect();
            let extended = |i: usize| !terms[cursor + 1 + i].is_empty();
            let shared = (0..heads.len()).any(|i| {
                (i + 1..heads.len())
                    .any(|j| extended(i) && extended(j) && !heads[i].is_disjoint(&heads[j]))
            });
            self.shared_optionals += usize::from(shared);
            cursor += 1 + branch.optionals.len();
        }
    }

    fn assert_met(&self, seed: u64) {
        for (shape, met) in [
            ("ORDER BY + LIMIT cutting rows", self.top_k_cut),
            ("LIMIT 0", self.limit_zero),
            ("OFFSET past the end", self.offset_past_end),
            ("OPTIONALs sharing a variable", self.shared_optionals),
            ("UNION with an unbound cell", self.union_unbound),
            ("ASK true", self.ask_true),
            ("ASK false", self.ask_false),
            ("ORDER BY over a mixed numeric column", self.mixed_sort),
        ] {
            assert!(met > 0, "seed {seed}: no round covered {shape}: {self:?}");
        }
    }
}

#[test]
fn id_level_tail_equals_term_level_reference() {
    for seed in seeds() {
        let mut rng = Rng(seed);
        let mut checked = 0;
        let mut coverage = Coverage::default();
        for round in 0..ROUNDS {
            let graph = graph(&mut rng);
            let text = query(&mut rng);
            let semantics = if rng.chance(50) {
                Semantics::Certain
            } else {
                Semantics::Star
            };
            let Ok(parsed) = parse_sparql(&text, &PrefixMap::new()) else {
                continue;
            };
            let lowered = parsed.lower();
            let (terms, ids) = answers(&lowered, &graph, semantics);
            let want = reference::assemble(&lowered, &terms);
            let context = || format!("seed {seed} round {round} ({semantics:?}): {text}");
            assert_eq!(lowered.assemble(&terms), want, "term entry, {}", context());
            assert_eq!(
                lowered.assemble_ids(&ids, &graph),
                want,
                "id entry, {}",
                context()
            );
            coverage.record(&lowered, &terms, &want);
            checked += 1;
        }
        // The generator stays inside the grammar: nearly every query
        // parses, so the rounds are real test cases.
        assert!(
            checked * 10 >= ROUNDS * 9,
            "seed {seed}: only {checked}/{ROUNDS} generated queries parsed"
        );
        coverage.assert_met(seed);
    }
}

//! Turtle syntax corpus: every valid document in the corpus loads, and
//! a seeded mutation sweep (`RPS_TURTLE_SEED`, comma-separated u64
//! seeds) feeds the loader corrupted variants — each must either load
//! or fail with a typed [`RdfError`] whose line lies within the input.
//! The loader must never panic, whatever text it is fed.

use rps_lodgen::seed_matrix;
use rps_rdf::{turtle, RdfError};

/// Valid corpus: one document per supported syntax feature, plus
/// combinations. All must load, with the triple count given.
const CORPUS: &[(&str, usize)] = &[
    ("<http://c/s> <http://c/p> <http://c/o> .", 1),
    (
        "<http://c/s> <http://c/p> <http://c/o> .\n<http://c/s> <http://c/q> \"v\" .",
        2,
    ),
    ("@prefix c: <http://c/> .\nc:s c:p c:o .", 1),
    (
        "@prefix c: <http://c/> .\n@prefix d: <http://d/> .\nc:s d:p c:o .",
        1,
    ),
    ("@prefix c: <http://c/> .\nc:s a c:T .", 1),
    ("@prefix c: <http://c/> .\nc:s c:p c:o1 , c:o2 , c:o3 .", 3),
    (
        "@prefix c: <http://c/> .\nc:s c:p c:o ; c:q c:r ; a c:T .",
        3,
    ),
    ("@prefix c: <http://c/> .\nc:s c:p c:o ; .", 1),
    (
        "_:b0 <http://c/p> _:b1 .\n_:b1 <http://c/p> <http://c/o> .",
        2,
    ),
    ("<http://c/s> <http://c/p> \"plain\" .", 1),
    ("<http://c/s> <http://c/p> \"tagged\"@en .", 1),
    ("<http://c/s> <http://c/p> \"10\"@en-GB .", 1),
    (
        "<http://c/s> <http://c/p> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .",
        1,
    ),
    (
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n\
         <http://c/s> <http://c/p> \"2.5\"^^xsd:decimal .",
        1,
    ),
    ("<http://c/s> <http://c/p> 42 .", 1),
    ("<http://c/s> <http://c/p> -7 .", 1),
    (
        "<http://c/s> <http://c/p> \"quote \\\" tab \\t newline \\n backslash \\\\\" .",
        1,
    ),
    (
        "# a comment\n<http://c/s> <http://c/p> <http://c/o> . # trailing\n",
        1,
    ),
    ("", 0),
    (
        "@prefix c: <http://c/> .\n\
         c:f1 c:cast c:p1 , c:p2 ; c:label \"one\" .\n\
         c:f2 c:cast c:p3 ; c:label \"two\"@en ; a c:Film .\n\
         c:p1 c:age 9 ; c:nick \"ace\" .\n\
         _:x c:knows c:p1 , _:y .",
        10,
    ),
];

#[test]
fn corpus_loads() {
    for (i, &(text, triples)) in CORPUS.iter().enumerate() {
        let graph = turtle::parse(text)
            .unwrap_or_else(|e| panic!("corpus[{i}] failed to load: {e}\n{text}"));
        assert_eq!(graph.len(), triples, "corpus[{i}] triple count\n{text}");
    }
}

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
        (self.next() % n.max(1) as u64) as usize
    }

    /// A char boundary at or before a random byte offset in `0..=len`.
    fn boundary(&mut self, text: &str) -> usize {
        let mut at = self.below(text.len() + 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        at
    }
}

/// One random corruption of `text`: delete a char, truncate, inject a
/// Turtle metacharacter or token, duplicate a span, or swap two
/// whitespace-separated tokens. Mutants may stay valid (e.g. swapping
/// two objects); the invariant under test is *no panic, typed error,
/// line in bounds*.
fn mutate(text: &str, rng: &mut Rng) -> String {
    match rng.below(5) {
        0 if !text.is_empty() => {
            let at = rng.boundary(text);
            let mut s = text.to_string();
            if at < s.len() {
                s.remove(at);
            }
            s
        }
        1 => text[..rng.boundary(text)].to_string(),
        2 => {
            const META: &[&str] = &[
                "<", ">", "\"", "\\", ".", ";", ",", "@", "^^", "_:", ":", "a", "#", "\n",
                "@prefix", "é", "-", "9",
            ];
            let at = rng.boundary(text);
            let mut s = text.to_string();
            s.insert_str(at, META[rng.below(META.len())]);
            s
        }
        3 if text.len() > 4 => {
            let lo = rng.boundary(text);
            let mut hi = (lo + 1 + rng.below(text.len() - lo)).min(text.len());
            while !text.is_char_boundary(hi) {
                hi += 1;
            }
            let mut s = String::with_capacity(text.len() * 2);
            s.push_str(&text[..hi]);
            s.push_str(&text[lo..hi]);
            s.push_str(&text[hi..]);
            s
        }
        _ => {
            let mut toks: Vec<&str> = text.split_whitespace().collect();
            if toks.len() >= 2 {
                let a = rng.below(toks.len());
                let b = rng.below(toks.len());
                toks.swap(a, b);
            }
            toks.join(" ")
        }
    }
}

#[test]
fn seeded_mutation_sweep_never_panics() {
    for seed in seed_matrix("RPS_TURTLE_SEED", &[0x7E17, 0xB0DE]) {
        let mut rng = Rng(seed);
        let mut loaded = 0usize;
        let mut rejected = 0usize;
        for round in 0..600 {
            let (base, _) = CORPUS[rng.below(CORPUS.len())];
            let mut mutant = base.to_string();
            for _ in 0..=rng.below(3) {
                mutant = mutate(&mutant, &mut rng);
            }
            let lines = mutant.matches('\n').count() + 1;
            let outcome = std::panic::catch_unwind(|| turtle::parse(&mutant));
            let context = || format!("seed {seed} round {round}\n{mutant:?}");
            match outcome.unwrap_or_else(|_| panic!("loader panicked: {}", context())) {
                Ok(_) => loaded += 1,
                Err(RdfError::Parse { line, message }) => {
                    assert!(
                        (1..=lines).contains(&line),
                        "line {line} outside 1..={lines}: {}",
                        context()
                    );
                    assert!(!message.is_empty(), "empty message: {}", context());
                    rejected += 1;
                }
                Err(RdfError::UnknownPrefix(prefix)) => {
                    assert!(
                        mutant.contains(prefix.as_str()),
                        "unknown prefix {prefix:?} not in the input: {}",
                        context()
                    );
                    rejected += 1;
                }
                Err(other) => panic!("untyped loader error {other:?}: {}", context()),
            }
        }
        // The sweep must exercise both outcomes, otherwise the mutator
        // is too aggressive (or not aggressive enough) to mean much.
        assert!(loaded > 0, "seed {seed}: no mutant loaded");
        assert!(rejected > 0, "seed {seed}: no mutant rejected");
    }
}

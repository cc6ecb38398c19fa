//! The SPARQL query classes and the seeded request generator.
//!
//! `s` is the last peer's namespace, `t` peer 0's and `u` peer 1's.
//! Classes come in shuffled blocks that hold each class exactly in
//! proportion to its share, so a run's time is not at the mercy of how
//! many of the rare heavy scans a random draw happened to pick.
//! Constants are drawn skewed: with probability [`HOT_SHARE`] from a
//! small hot set, otherwise uniformly from every film or person. So the
//! hot set repeats (plan-cache hits) while the space of distinct texts
//! is far larger than the 1024-entry plan cache.

use rps_lodgen::{peer_ns, SeededRng};

/// Probability that a constant is drawn from the hot set.
pub const HOT_SHARE: f64 = 0.75;

/// Size of the hot set of films and of persons.
pub const HOT_SET: usize = 64;

/// Peers of every generated system.
pub const PEERS: usize = 4;

/// The query classes of the mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// One film's actors.
    Point,
    /// A person's co-actors.
    Join,
    /// A person's films, with peer 0's cast where it exists.
    Optional,
    /// Whether a film has an actor, through a UNION.
    AskUnion,
    /// A full-predicate scan with a filter, ordered and limited.
    ScanOrder,
    /// A full-predicate scan with a correlated OPTIONAL.
    OptionalScan,
}

/// The `frozen_mix` block: requests per class in every 20 (40 %,
/// 20 %, 15 %, 15 %, 5 %, 5 %).
pub const FROZEN_MIX: &[(Class, usize)] = &[
    (Class::Point, 8),
    (Class::Join, 4),
    (Class::Optional, 3),
    (Class::AskUnion, 3),
    (Class::ScanOrder, 1),
    (Class::OptionalScan, 1),
];

/// The selective classes only, with the same relative shares
/// (`federated_tcp` and the reads of `live_churn`).
pub const SELECTIVE_MIX: &[(Class, usize)] = &[
    (Class::Point, 8),
    (Class::Join, 4),
    (Class::Optional, 3),
    (Class::AskUnion, 3),
];

/// One generated read.
#[derive(Clone, Debug)]
pub struct Request {
    /// Its class.
    pub class: Class,
    /// The SPARQL text.
    pub text: String,
}

/// A seeded stream of requests over a mix.
pub struct RequestGen {
    rng: SeededRng,
    mix: &'static [(Class, usize)],
    /// The rest of the current block, drawn from the back.
    block: Vec<Class>,
    films: usize,
    persons: usize,
    hot_films: Vec<usize>,
    hot_persons: Vec<usize>,
    prologue: String,
}

impl RequestGen {
    /// A generator over `films` films and `persons` persons per peer.
    pub fn new(seed: u64, mix: &'static [(Class, usize)], films: usize, persons: usize) -> Self {
        let mut rng = SeededRng::seed_from_u64(seed);
        let hot_films = (0..HOT_SET).map(|_| rng.gen_range(0..films)).collect();
        let hot_persons = (0..HOT_SET).map(|_| rng.gen_range(0..persons)).collect();
        let prologue = format!(
            "PREFIX s: <{}> PREFIX t: <{}> PREFIX u: <{}> ",
            peer_ns(PEERS - 1),
            peer_ns(0),
            peer_ns(1)
        );
        RequestGen {
            rng,
            mix,
            block: Vec::new(),
            films,
            persons,
            hot_films,
            hot_persons,
            prologue,
        }
    }

    fn skewed(rng: &mut SeededRng, hot: &[usize], n: usize) -> usize {
        if rng.gen_bool(HOT_SHARE) {
            hot[rng.gen_range(0..hot.len())]
        } else {
            rng.gen_range(0..n)
        }
    }

    fn film(&mut self) -> usize {
        Self::skewed(&mut self.rng, &self.hot_films, self.films)
    }

    fn person(&mut self) -> usize {
        Self::skewed(&mut self.rng, &self.hot_persons, self.persons)
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        if self.block.is_empty() {
            for &(class, count) in self.mix {
                self.block.extend(std::iter::repeat_n(class, count));
            }
            for i in (1..self.block.len()).rev() {
                let j = self.rng.gen_range(0..i + 1);
                self.block.swap(i, j);
            }
        }
        let class = self.block.pop().expect("a refilled block is never empty");
        let body = match class {
            Class::Point => format!("SELECT ?a WHERE {{ t:film{} s:actor ?a }}", self.film()),
            Class::Join => format!(
                "SELECT DISTINCT ?b WHERE {{ ?f s:actor s:person{} . ?f s:actor ?b }}",
                self.person()
            ),
            Class::Optional => format!(
                "SELECT ?f ?b WHERE {{ ?f s:actor s:person{} OPTIONAL {{ ?f t:actor ?b }} }}",
                self.person()
            ),
            Class::AskUnion => {
                let f = self.film();
                format!("ASK {{ {{ s:film{f} s:actor ?a }} UNION {{ t:film{f} s:actor ?a }} }}")
            }
            Class::ScanOrder => format!(
                "SELECT ?f ?a WHERE {{ ?f s:actor ?a FILTER(?a != s:person{}) }} ORDER BY ?f LIMIT 10",
                self.person()
            ),
            Class::OptionalScan => "SELECT ?f ?a ?b WHERE { ?f t:actor ?a OPTIONAL { ?f u:actor ?b . ?b u:actor ?a } }".to_string(),
        };
        Request {
            class,
            text: format!("{}{body}", self.prologue),
        }
    }

    /// The warm-up query that ends set-up: it builds the planner
    /// statistics and proves the session serves, but no mix class
    /// generates its text.
    pub fn warmup_text(&self) -> String {
        format!("{}ASK {{ t:film0 t:actor ?a }}", self.prologue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seeded_and_follows_the_mix() {
        let texts = |seed| {
            let mut g = RequestGen::new(seed, FROZEN_MIX, 100, 100);
            (0..2000).map(|_| g.next_request()).collect::<Vec<_>>()
        };
        let a = texts(1);
        let b = texts(1);
        assert!(a.iter().zip(&b).all(|(x, y)| x.text == y.text));
        assert!(a.iter().zip(texts(2)).any(|(x, y)| x.text != y.text));
        // Exact shares in every block of 20.
        let points = a.iter().filter(|r| r.class == Class::Point).count();
        let scans = a.iter().filter(|r| r.class == Class::ScanOrder).count();
        assert_eq!((points, scans), (800, 100));
        let mut sel = RequestGen::new(1, SELECTIVE_MIX, 100, 100);
        assert!((0..500).all(|_| !matches!(
            sel.next_request().class,
            Class::ScanOrder | Class::OptionalScan
        )));
    }
}

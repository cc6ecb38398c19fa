//! Session routing behaviour across system classes: Auto must rewrite
//! when Proposition 2 applies and fall back to materialisation when it
//! does not, and budget exhaustion must surface as a typed error or an
//! exact fallback, never as silently unsound answers.

use rps_core::{EngineConfig, ExecRoute, RpsChaseConfig, RpsError, Session, Strategy};
use rps_lodgen::{actor_shape_query, chain, film_system, FilmConfig, Topology};
use rps_tgd::RewriteConfig;

#[test]
fn auto_materialises_non_fo_systems() {
    // Transitive closure is not FO-rewritable: Auto must take the chase.
    let sys = chain::transitive_system(10);
    let mut session = Session::new(sys, EngineConfig::default());
    let ans = session.answer(&chain::edge_query()).unwrap();
    assert_eq!(ans.route(), ExecRoute::Materialised);
    assert_eq!(ans.len(), 55);
}

#[test]
fn auto_rewrites_linear_systems() {
    let sys = film_system(&FilmConfig {
        peers: 3,
        films_per_peer: 8,
        actors_per_film: 2,
        person_pool: 12,
        sameas_per_pair: 2,
        topology: Topology::Chain,
        hub_style: false,
        seed: 31,
    });
    let config = EngineConfig::default().with_rewrite(RewriteConfig {
        max_depth: 30,
        max_cqs: 60_000,
    });
    let mut session = Session::new(sys, config);
    let prepared = session.prepare(&actor_shape_query(2, false)).unwrap();
    assert_eq!(prepared.route(), ExecRoute::Rewritten);
}

#[test]
fn rewrite_strategy_falls_back_when_incomplete() {
    // Force an absurdly small rewriting budget: an explicit Rewrite
    // strategy must report the incomplete expansion as a typed error,
    // and Auto must answer through the chase rather than return a
    // partial (unsound-as-certain) answer set.
    let sys = chain::transitive_system(12);
    let tiny = RewriteConfig {
        max_depth: 1,
        max_cqs: 4,
    };
    let mut strict = Session::new(
        sys.clone(),
        EngineConfig::default()
            .with_strategy(Strategy::Rewrite)
            .with_rewrite(tiny.clone()),
    );
    assert!(matches!(
        strict.prepare(&chain::edge_query()),
        Err(RpsError::RewriteBudget { .. })
    ));
    let mut auto = Session::new(sys, EngineConfig::default().with_rewrite(tiny));
    let ans = auto.answer(&chain::edge_query()).unwrap();
    assert_eq!(ans.route(), ExecRoute::Materialised);
    // Full closure of a 13-node chain.
    assert_eq!(ans.len(), 13 * 12 / 2);
}

#[test]
fn materialisation_is_cached_across_queries() {
    let sys = chain::transitive_system(16);
    let mut session = Session::new(
        sys,
        EngineConfig::default().with_strategy(Strategy::Materialise),
    );
    let t0 = std::time::Instant::now();
    let a1 = session.answer(&chain::edge_query()).unwrap().into_set();
    let first = t0.elapsed();
    let t1 = std::time::Instant::now();
    let a2 = session.answer(&chain::edge_query()).unwrap().into_set();
    let second = t1.elapsed();
    assert_eq!(a1, a2);
    // The second query reuses the cached universal solution; it must not
    // re-run the chase. Allow generous slack for timer noise: reuse is
    // orders of magnitude cheaper, so 2x covers jitter comfortably.
    assert!(second <= first * 2, "second {second:?} vs first {first:?}");
}

#[test]
fn chase_budget_exhaustion_is_reported() {
    let sys = chain::transitive_system(20);
    let mut session = Session::new(
        sys,
        EngineConfig::default()
            .with_strategy(Strategy::Materialise)
            .with_chase(RpsChaseConfig {
                max_rounds: 1,
                max_triples: 10_000,
                ..RpsChaseConfig::default()
            }),
    );
    // One round is not enough for the full closure.
    assert!(matches!(
        session.answer(&chain::edge_query()),
        Err(RpsError::ChaseBudget { .. })
    ));
    assert!(matches!(
        session.universal_solution(),
        Err(RpsError::ChaseBudget { .. })
    ));
}

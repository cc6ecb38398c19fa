//! End-to-end checks of [`Strategy`](crate::session::Strategy) route
//! selection through [`Session`](crate::session::Session) on a linear
//! system.

mod tests {
    use crate::session::tests::{cast_query, linear_system};
    use crate::session::{EngineConfig, ExecRoute, Session, Strategy};

    #[test]
    fn auto_uses_rewriting_for_linear_systems() {
        let mut s = Session::open(linear_system(), EngineConfig::default()).unwrap();
        let prepared = s.prepare(&cast_query()).unwrap();
        assert_eq!(prepared.route(), ExecRoute::Rewritten);
        assert_eq!(s.execute(&prepared).unwrap().len(), 4);
    }

    #[test]
    fn strategies_agree() {
        let sys = linear_system();
        let config = |strategy| EngineConfig::default().with_strategy(strategy);
        let mut m = Session::open(sys.clone(), config(Strategy::Materialise)).unwrap();
        let mut r = Session::open(sys, config(Strategy::Rewrite)).unwrap();
        let am = m.answer(&cast_query()).unwrap();
        let ar = r.answer(&cast_query()).unwrap();
        assert_eq!(am.route(), ExecRoute::Materialised);
        assert_eq!(ar.route(), ExecRoute::Rewritten);
        assert_eq!(am.into_set().tuples, ar.into_set().tuples);
    }
}

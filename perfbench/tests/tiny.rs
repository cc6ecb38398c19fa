//! Tiny runs of every workload, traced and untraced: every named metric
//! is emitted with its unit, the answer checks pass, and
//! `BENCHMARK.json` names exactly the workloads and metrics the program
//! reports.

use rps_perfbench::{repo_root, run, Options, Outcome, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> Outcome {
    let mut opts = Options::new(workload, 7);
    opts.films = Some(60);
    opts.seconds = 0.3;
    opts.trace = trace;
    let outcome = run(&opts).unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
    assert!(
        outcome.correct,
        "{}: {:?}",
        workload.name(),
        outcome.mismatches
    );
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, 0, "{}", workload.name());
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
    assert_eq!(got, wanted, "{}", workload.name());
    assert!(outcome.metrics.iter().all(|(_, v, _)| v.is_finite()));
    let line = outcome.result_json();
    for (name, unit) in wanted {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
    }
    outcome
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .1
}

fn assert_layers(outcome: &Outcome, running: &[&str], idle: &[&str]) {
    for name in running {
        assert!(value(outcome, name) > 0.0, "{name} should be measured");
    }
    for name in idle {
        assert_eq!(value(outcome, name), 0.0, "{name} should not run");
    }
    let spans = outcome
        .trace_file
        .as_ref()
        .expect("traced runs write spans");
    assert!(std::fs::metadata(spans).expect("span file").len() > 0);
}

#[test]
fn frozen_mix_reports_every_metric() {
    let e2e = tiny(Workload::FrozenMix, false);
    assert!(
        e2e.metrics.iter().all(|(_, v, _)| *v > 0.0),
        "{:?}",
        e2e.metrics
    );
    let traced = tiny(Workload::FrozenMix, true);
    assert_layers(
        &traced,
        &[
            "query_qps",
            "join_p50_ms",
            "scan_order_p50_ms",
            "disk_bytes_per_triple",
            "sparql.parse_us",
            "sparql.assemble_ms",
            "session.prepare_miss_us",
            "session.execute_ms",
            "chase.ms",
            "chase.solution_triples",
            "durable.persist_ms",
            "durable.bytes",
            "trace.traced_p50_ms",
        ],
        &[
            "transport.exchanges",
            "federation.messages",
            "live.apply_ms",
        ],
    );
}

#[test]
fn federated_tcp_reports_every_metric() {
    let e2e = tiny(Workload::FederatedTcp, false);
    assert!(
        e2e.metrics.iter().all(|(_, v, _)| *v > 0.0),
        "{:?}",
        e2e.metrics
    );
    let traced = tiny(Workload::FederatedTcp, true);
    assert_layers(
        &traced,
        &[
            "query_qps",
            "join_p50_ms",
            "rewriting.branches",
            "federation.execute_ms",
            "federation.messages",
            "transport.exchanges",
            "transport.exchange_p50_ms",
            "transport.bytes_in",
            "transport.share",
        ],
        &[
            "chase.ms",
            "durable.bytes",
            "live.apply_ms",
            "scan_order_p50_ms",
        ],
    );
}

#[test]
fn live_churn_reports_every_metric() {
    let e2e = tiny(Workload::LiveChurn, false);
    assert!(
        e2e.metrics.iter().all(|(_, v, _)| *v > 0.0),
        "{:?}",
        e2e.metrics
    );
    let traced = tiny(Workload::LiveChurn, true);
    assert_layers(
        &traced,
        &[
            "query_qps",
            "join_p50_ms",
            "update_p50_ms",
            "update_p90_ms",
            "live.apply_ms",
            "live.publish_floor_ms",
            "live.firings_per_batch",
            "live.solution_triples",
            "session.prepare_miss_us",
        ],
        &["transport.exchanges", "durable.bytes", "rewriting.branches"],
    );
}

#[test]
fn benchmark_json_names_what_the_program_reports() {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let e2e_at = text.find("\"end_to_end\"").expect("end_to_end section");
    let layer_at = text.find("\"per_layer\"").expect("per_layer section");
    assert!(e2e_at < layer_at);
    let (e2e, layers) = (&text[e2e_at..layer_at], &text[layer_at..]);
    for (section, wanted) in [(e2e, END_TO_END), (layers, PER_LAYER)] {
        assert_eq!(section.matches("\"name\"").count(), wanted.len());
        for (name, unit) in wanted {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(section.contains(&entry), "{entry} missing");
        }
    }
    for w in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}

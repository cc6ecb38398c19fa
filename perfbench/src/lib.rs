//! End-to-end and per-layer benchmark of the RPS serving paths.
//!
//! Three closed-loop workloads, each with one client thread, over the
//! 4-peer chain `film_system` (see `README.md` in this directory for
//! why each workload exists and which layer metric should move which
//! end-to-end metric):
//!
//! * `frozen_mix` — SPARQL text against a persisted and reopened
//!   [`rps_core::FrozenSession`];
//! * `federated_tcp` — SPARQL text against a frozen federated session
//!   that rewrites over the mappings and talks to the peers over TCP;
//! * `live_churn` — update batches on a [`rps_core::LiveSession`], each
//!   followed by reads against the new epoch.
//!
//! A run with tracing off reports the [`END_TO_END`] metrics; a run with
//! tracing on reports the [`PER_LAYER`] metrics, which come from spans
//! the benchmark records around its calls into each layer.

pub mod host;
pub mod queries;
pub mod stats;
pub mod trace;
pub mod transport;

mod federated;
mod frozen;
mod live;
mod split;

use host::Host;
use queries::Class;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The end-to-end metrics (name, unit), reported with tracing off on
/// every workload. Only these stay inside their bound on a shared host
/// whose speed drifts (see `README.md`, "Bounds and steadiness").
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("query_p99_ms", "ms")];

/// The per-layer metrics (name, unit), reported with tracing on. A
/// layer that a workload does not run reports 0. Times are means per
/// traced read request unless the name says otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Client-observed figures, from the untraced reads of the traced
    // run: those the host moves too much to gate, and those that exist
    // on one workload only.
    ("query_p50_ms", "ms"),
    ("query_qps", "1/s"),
    ("point_p50_ms", "ms"),
    ("join_p50_ms", "ms"),
    ("optional_p50_ms", "ms"),
    ("ask_union_p50_ms", "ms"),
    ("point_p95_ms", "ms"),
    ("join_p95_ms", "ms"),
    ("optional_p95_ms", "ms"),
    ("ask_union_p95_ms", "ms"),
    ("scan_order_p50_ms", "ms"),
    ("optional_scan_p50_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("update_p90_ms", "ms"),
    ("disk_bytes_per_triple", "bytes"),
    ("failed_ratio", "ratio"),
    // rps_query::sparql
    ("sparql.parse_us", "us"),
    ("sparql.lower_us", "us"),
    ("sparql.cqs_per_query", "count"),
    ("sparql.assemble_ms", "ms"),
    ("sparql.assemble_rows_in", "count"),
    ("sparql.assemble_rows_out", "count"),
    ("sparql.self_ms", "ms"),
    // rps_core::session, rps_core::live readers and rps_query::eval
    ("session.prepare_hit_us", "us"),
    ("session.prepare_miss_us", "us"),
    ("session.plan_cache_hit_ratio", "ratio"),
    ("session.execute_ms", "ms"),
    ("session.decode_ms", "ms"),
    ("session.rows_decoded", "count"),
    ("session.self_ms", "ms"),
    // rps_rdf::store and stats
    ("store.stats_build_ms", "ms"),
    ("store.morsels_dispatched", "count"),
    ("store.par_scans", "count"),
    // rps_core::chase
    ("chase.ms", "ms"),
    ("chase.rounds", "count"),
    ("chase.gma_firings", "count"),
    ("chase.eq_copies", "count"),
    ("chase.solution_triples", "count"),
    // rps_rdf::durable and store::{page,wal,disk}
    ("durable.persist_ms", "ms"),
    ("durable.open_ms", "ms"),
    ("durable.pages_written", "count"),
    ("durable.pages_read", "count"),
    ("durable.bytes", "bytes"),
    // rewriting, timed through FrozenFederatedSession::prepare
    ("rewriting.prepare_ms", "ms"),
    ("rewriting.branches", "count"),
    ("rewriting.explored", "count"),
    ("rewriting.plan_cache_hit_ratio", "ratio"),
    ("rewriting.self_ms", "ms"),
    // rps_p2p::federation
    ("federation.execute_ms", "ms"),
    ("federation.subqueries", "count"),
    ("federation.messages", "count"),
    ("federation.bytes", "bytes"),
    ("federation.tuples_received", "count"),
    ("federation.retries", "count"),
    ("federation.useful_ratio", "ratio"),
    ("federation.self_ms", "ms"),
    // rps_p2p::transport, timed by the benchmark's wrapper
    ("transport.exchanges", "count"),
    ("transport.exchange_ms", "ms"),
    ("transport.exchange_p50_ms", "ms"),
    ("transport.bytes_out", "bytes"),
    ("transport.bytes_in", "bytes"),
    ("transport.failures", "count"),
    ("transport.share", "ratio"),
    ("transport.self_ms", "ms"),
    // rps_core::live writer
    ("live.apply_ms", "ms"),
    ("live.publish_floor_ms", "ms"),
    ("live.firings_per_batch", "count"),
    ("live.retractions_per_batch", "count"),
    ("live.refirings_per_batch", "count"),
    ("live.solution_triples", "count"),
    // The tracing itself.
    ("trace.traced_p50_ms", "ms"),
    ("trace.untraced_p50_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.glue_ms", "ms"),
    ("trace.accounted_share", "ratio"),
];

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Frozen, persisted and reopened session under the full mix.
    FrozenMix,
    /// Federated rewriting over TCP under the selective mix.
    FederatedTcp,
    /// Update batches with reads against each new epoch.
    LiveChurn,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::FrozenMix,
        Workload::FederatedTcp,
        Workload::LiveChurn,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FrozenMix => "frozen_mix",
            Workload::FederatedTcp => "federated_tcp",
            Workload::LiveChurn => "live_churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Films per peer at full size.
    pub fn default_films(self) -> usize {
        match self {
            Workload::FederatedTcp => 1000,
            Workload::FrozenMix | Workload::LiveChurn => 2000,
        }
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// The run seed; the data seed is the seed itself and the request
    /// seed is derived from it.
    pub seed: u64,
    /// Length of the timed region in seconds.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Films per peer (the workload's default when `None`).
    pub films: Option<usize>,
}

/// How many times set-up runs in one run; `setup_s` is the median.
pub(crate) const SETUP_REPS: usize = 9;

/// Whether another set-up repetition is due, `done` of them having run
/// and `active` of the timed region's `budget` having passed. The first
/// repetition serves the run and the others are spread evenly over the
/// timed region, so `setup_s` samples the host over the same span as
/// the read metrics: on a shared host the speed this process gets
/// drifts by tens of percent within seconds. Once the region is over,
/// every repetition still missing is due.
pub(crate) fn setup_due(done: usize, active: Duration, budget: Duration) -> bool {
    done < SETUP_REPS
        && (active >= budget
            || active.as_secs_f64() * SETUP_REPS as f64 >= budget.as_secs_f64() * done as f64)
}

/// Where scratch state and span files go, relative to the working
/// directory.
pub const OUT_DIR: &str = ".bench_out";

impl Options {
    /// Default settings for a workload and seed.
    pub fn new(workload: Workload, seed: u64) -> Self {
        Options {
            workload,
            seed,
            seconds: 10.0,
            trace: false,
            films: None,
        }
    }

    pub(crate) fn films(&self) -> usize {
        self.films.unwrap_or(self.workload.default_films())
    }

    pub(crate) fn request_seed(&self) -> u64 {
        rps_core::splitmix64(self.seed ^ 0x005E_ED0F_BE4C)
    }

    /// The latency charged to a failed operation: the whole timed
    /// region, so a failure is over every latency bound.
    pub(crate) fn penalty_ms(&self) -> f64 {
        self.seconds * 1e3
    }
}

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The outcome of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every answer check passed.
    pub correct: bool,
    /// What failed the answer checks.
    pub mismatches: Vec<String>,
    /// Operations attempted in the timed region.
    pub attempted: u64,
    /// Operations that failed (errors, retries, degraded answers).
    pub failed: u64,
    /// The reported metrics, in the order of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The host facts.
    pub host: Host,
    /// The span file written by a traced run.
    pub trace_file: Option<PathBuf>,
}

/// What a workload hands back.
pub(crate) struct Report {
    pub mismatches: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Latency samples of the reads of a timed region.
pub(crate) struct Reads {
    penalty_ms: f64,
    all: Vec<f64>,
    by_class: BTreeMap<Class, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
}

impl Reads {
    pub fn new(penalty_ms: f64) -> Self {
        Reads {
            penalty_ms,
            all: Vec::new(),
            by_class: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    pub fn ok(&mut self, class: Class, ms: f64) {
        self.attempted += 1;
        self.all.push(ms);
        self.by_class.entry(class).or_default().push(ms);
    }

    /// A failed read: counted against the attempts and charged the
    /// penalty latency.
    pub fn fail(&mut self, class: Class, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.all.push(self.penalty_ms);
        self.by_class
            .entry(class)
            .or_default()
            .push(self.penalty_ms);
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    /// Prints the first failures to standard error.
    pub fn print_errors(&self) {
        for e in &self.errors {
            eprintln!("operation failed: {e}");
        }
    }

    pub fn p50(&self) -> f64 {
        stats::median(&self.all)
    }

    fn class_quantile(&self, class: Class, q: f64) -> f64 {
        self.by_class
            .get(&class)
            .map_or(0.0, |v| stats::quantile(v, q))
    }

    pub fn class_p50(&self, class: Class) -> f64 {
        self.class_quantile(class, 0.5)
    }

    /// The read metric of [`END_TO_END`].
    pub fn end_to_end(&self, m: &mut Metrics) {
        m.insert("query_p99_ms", stats::quantile(&self.all, 0.99));
    }

    /// The client-observed figures of [`PER_LAYER`], over `active_s`
    /// seconds of timed region.
    pub fn client_figures(&self, m: &mut Metrics, active_s: f64) {
        m.insert("query_p50_ms", self.p50());
        let completed = self.attempted - self.failed;
        m.insert("query_qps", stats::ratio(completed as f64, active_s));
        for (class, median, tail) in SELECTIVE {
            m.insert(median, self.class_p50(class));
            m.insert(tail, self.class_quantile(class, 0.95));
        }
    }
}

/// The selective classes with the names of their median and of their
/// 95th-percentile latency.
const SELECTIVE: [(Class, &str, &str); 4] = [
    (Class::Point, "point_p50_ms", "point_p95_ms"),
    (Class::Join, "join_p50_ms", "join_p95_ms"),
    (Class::Optional, "optional_p50_ms", "optional_p95_ms"),
    (Class::AskUnion, "ask_union_p50_ms", "ask_union_p95_ms"),
];

pub(crate) fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The repository root (the parent of this package).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// Runs one workload.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let host = Host::probe(&repo_root());
    let tracer = std::sync::Arc::new(trace::Tracer::new(opts.trace));
    let mut report = match opts.workload {
        Workload::FrozenMix => frozen::run(opts, &tracer),
        Workload::FederatedTcp => federated::run(opts, &tracer),
        Workload::LiveChurn => live::run(opts, &tracer),
    }?;
    let mut trace_file = None;
    if opts.trace {
        split::trace_metrics(&tracer.spans(), &mut report.metrics);
        let dir = Path::new(OUT_DIR).join("trace");
        let path = dir.join(format!("{}-seed{}.jsonl", opts.workload.name(), opts.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| tracer.write_jsonl(&path))
            .map_err(|e| format!("write spans to {}: {e}", path.display()))?;
        trace_file = Some(path);
        report.metrics.insert(
            "failed_ratio",
            stats::ratio(report.failed as f64, report.attempted as f64),
        );
    }
    let wanted = if opts.trace { PER_LAYER } else { END_TO_END };
    for name in report.metrics.keys() {
        if !END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == name) {
            return Err(format!("internal: unregistered metric {name}"));
        }
    }
    let mut metrics = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = match report.metrics.get(name) {
            Some(v) => *v,
            // A layer the workload does not run reports zero.
            None if opts.trace => 0.0,
            None => return Err(format!("internal: end-to-end metric {name} not measured")),
        };
        if !value.is_finite() {
            return Err(format!("internal: metric {name} is {value}"));
        }
        metrics.push((name, value, unit));
    }
    Ok(Outcome {
        correct: report.mismatches.is_empty(),
        mismatches: report.mismatches,
        attempted: report.attempted,
        failed: report.failed,
        metrics,
        host,
        trace_file,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Outcome {
    /// The host line printed before the result.
    pub fn host_json(&self, opts: &Options) -> String {
        let h = &self.host;
        format!(
            "{{\"host\": {{\"nproc\": {}, \"affinity_cpus\": {}, \"pinned_cpu\": {}, \"effective_cpus\": {}, \"exec_workers\": {}, \"exec_shards\": {}, \"rps_shards_set\": {}, \"git_commit\": {}, \"workload\": {}, \"seed\": {}, \"data_seed\": {}, \"request_seed\": {}, \"films_per_peer\": {}, \"seconds\": {}, \"trace\": {}, \"trace_file\": {}}}}}",
            h.nproc,
            h.affinity_cpus,
            h.pinned_cpu.map_or("null".to_string(), |c| c.to_string()),
            h.effective_cpus,
            h.workers,
            h.shards,
            h.rps_shards_set,
            json_str(&h.git_commit),
            json_str(opts.workload.name()),
            opts.seed,
            opts.seed,
            opts.request_seed(),
            opts.films(),
            opts.seconds,
            opts.trace,
            self.trace_file
                .as_ref()
                .map_or("null".to_string(), |p| json_str(&p.display().to_string())),
        )
    }

    /// The result line: the last line of standard output.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_up_repetitions_are_spread_over_the_timed_region() {
        let budget = Duration::from_secs(SETUP_REPS as u64);
        let mut done = 1;
        let mut due_at = Vec::new();
        for second in 0..=SETUP_REPS as u64 {
            while setup_due(done, Duration::from_secs(second), budget) {
                due_at.push(second);
                done += 1;
            }
        }
        assert_eq!(due_at, (1..SETUP_REPS as u64).collect::<Vec<_>>());
        // A region that ends early owes every missing repetition.
        assert!(setup_due(2, budget, budget));
        assert!(!setup_due(SETUP_REPS, budget, budget));
    }
}

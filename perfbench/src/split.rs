//! The traced read path shared by every workload, and the metrics the
//! spans give.
//!
//! A traced read runs the steps `answer_sparql` hides, one public call
//! at a time: `parse_sparql` → `SparqlQuery::lower` → prepare per CQ →
//! execute → collect → `LoweredSparql::assemble`. The session-specific
//! steps come in as closures, which open their own spans.

use crate::queries::RequestGen;
use crate::stats::{mean, median, ratio};
use crate::trace::{self_times_ns, Span, SpanId, Tracer, NO_SPAN};
use crate::{ms, setup_due, Metrics, Options, Reads};
use rps_core::{AnswerStream, RpsError};
use rps_query::{parse_sparql, GraphPatternQuery, SparqlResult};
use rps_rdf::{PrefixMap, Term};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::time::{Duration, Instant};

/// One CQ's answers, as the session façades collect them.
pub type Rows = BTreeSet<Vec<Term>>;

/// Counters of the `sparql` layer over the traced reads.
#[derive(Default)]
pub struct SparqlStats {
    parse_us: Vec<f64>,
    lower_us: Vec<f64>,
    cqs: Vec<f64>,
    assemble_ms: Vec<f64>,
    rows_in: Vec<f64>,
    rows_out: Vec<f64>,
}

impl SparqlStats {
    pub fn metrics(&self, m: &mut Metrics) {
        m.insert("sparql.parse_us", mean(&self.parse_us));
        m.insert("sparql.lower_us", mean(&self.lower_us));
        m.insert("sparql.cqs_per_query", mean(&self.cqs));
        m.insert("sparql.assemble_ms", mean(&self.assemble_ms));
        m.insert("sparql.assemble_rows_in", mean(&self.rows_in));
        m.insert("sparql.assemble_rows_out", mean(&self.rows_out));
    }
}

/// Counters of the `session` and `store` layers over the traced reads
/// of the local (frozen and live) sessions.
#[derive(Default)]
pub struct SessionStats {
    prepare_hit_us: Vec<f64>,
    prepare_miss_us: Vec<f64>,
    /// Per request: the CQs' execute times summed.
    execute_ms: Vec<f64>,
    /// Per request: the CQs' stream collection times summed.
    decode_ms: Vec<f64>,
    /// Per request: rows decoded.
    rows_decoded: Vec<f64>,
    /// Accumulators of the request in flight.
    cur_execute_ms: f64,
    cur_decode_ms: f64,
    cur_rows: f64,
    /// Morsels dispatched by parallel scans during traced reads.
    pub morsels: u64,
    /// Traced reads whose scans dispatched morsels.
    pub par_scans: u64,
}

impl SessionStats {
    /// Records one `prepare` call.
    pub fn prepared(&mut self, hit: bool, took: Duration) {
        let us = us(took);
        if hit {
            self.prepare_hit_us.push(us);
        } else {
            self.prepare_miss_us.push(us);
        }
    }

    /// Executes one prepared CQ on a local session and collects its
    /// stream, as `session.execute` and `session.decode` spans.
    pub fn execute(
        &mut self,
        tracer: &Tracer,
        request: u64,
        root: SpanId,
        execute: impl FnOnce() -> Result<AnswerStream, RpsError>,
    ) -> Result<Rows, RpsError> {
        let (stream, took) = tracer.time("session.execute", request, root, execute);
        self.cur_execute_ms += ms(took);
        let (rows, took) = tracer.time("session.decode", request, root, || {
            stream.map(|s| s.collect::<Rows>())
        });
        self.cur_decode_ms += ms(took);
        let rows = rows?;
        self.cur_rows += rows.len() as f64;
        Ok(rows)
    }

    /// Closes the accumulators of the request in flight.
    pub fn end_request(&mut self) {
        self.execute_ms
            .push(std::mem::take(&mut self.cur_execute_ms));
        self.decode_ms.push(std::mem::take(&mut self.cur_decode_ms));
        self.rows_decoded.push(std::mem::take(&mut self.cur_rows));
    }

    pub fn metrics(&self, m: &mut Metrics) {
        let hits = self.prepare_hit_us.len() as f64;
        let total = hits + self.prepare_miss_us.len() as f64;
        m.insert("session.prepare_hit_us", mean(&self.prepare_hit_us));
        m.insert("session.prepare_miss_us", mean(&self.prepare_miss_us));
        m.insert("session.plan_cache_hit_ratio", ratio(hits, total));
        m.insert("session.execute_ms", mean(&self.execute_ms));
        m.insert("session.decode_ms", mean(&self.decode_ms));
        m.insert("session.rows_decoded", mean(&self.rows_decoded));
        m.insert("store.morsels_dispatched", self.morsels as f64);
        m.insert("store.par_scans", self.par_scans as f64);
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs one read as separate layer calls under a `request` root span.
/// `prepare` compiles one lowered CQ; `run` executes a prepared CQ and
/// collects its rows. Both get the root span as parent. Returns the
/// assembled result and the request's wall time.
pub fn traced_read<P>(
    tracer: &Tracer,
    request: u64,
    text: &str,
    sparql: &mut SparqlStats,
    mut prepare: impl FnMut(&GraphPatternQuery, SpanId) -> Result<P, RpsError>,
    mut run: impl FnMut(&P, SpanId) -> Result<Rows, RpsError>,
) -> (Result<SparqlResult, RpsError>, Duration) {
    let start = std::time::Instant::now();
    let root = tracer.open("request", request, NO_SPAN);
    let result = (|| {
        let (parsed, took) = tracer.time("sparql.parse", request, root, || {
            parse_sparql(text, &PrefixMap::common())
        });
        sparql.parse_us.push(us(took));
        let parsed = parsed?;
        let (lowered, took) = tracer.time("sparql.lower", request, root, || parsed.lower());
        sparql.lower_us.push(us(took));
        let cqs = lowered.queries();
        sparql.cqs.push(cqs.len() as f64);
        let plans = cqs
            .into_iter()
            .map(|cq| prepare(cq, root))
            .collect::<Result<Vec<P>, RpsError>>()?;
        let answers = plans
            .iter()
            .map(|p| run(p, root))
            .collect::<Result<Vec<Rows>, RpsError>>()?;
        sparql
            .rows_in
            .push(answers.iter().map(BTreeSet::len).sum::<usize>() as f64);
        let (result, took) = tracer.time("sparql.assemble", request, root, || {
            lowered.assemble(&answers)
        });
        sparql.assemble_ms.push(ms(took));
        sparql.rows_out.push(match &result {
            SparqlResult::Rows(rows) => rows.rows.len() as f64,
            SparqlResult::Boolean(_) => 1.0,
        });
        Ok(result)
    })();
    tracer.close(root);
    (result, start.elapsed())
}

/// What the read loop of a session with an `answer_sparql` entry point
/// measured.
pub struct ReadLoop {
    /// Reads through `answer_sparql`.
    pub untraced: Reads,
    /// Reads through the split path.
    pub traced: Reads,
    /// The part of the timed region spent in the untraced reads.
    pub untraced_active: Duration,
    /// The first answer to each distinct text.
    pub first: HashMap<String, SparqlResult>,
    /// Split-path answers that differ from `answer_sparql`.
    pub mismatches: Vec<String>,
}

/// Serves reads from `gen` until their wall time fills the run. With
/// tracing on, every other read goes through `traced(request, text)`
/// and the rest through `answer`, which gives the overhead baseline in
/// the same run; with tracing off every read goes through `answer`.
/// The first traced answer to each distinct text must equal what
/// `answer` returns. Both closures report a failed read as `Err`.
/// `setup` runs one more set-up repetition whenever one is due (the
/// first ran before the loop); its time is not part of the region.
pub fn read_loop(
    opts: &Options,
    gen: &mut RequestGen,
    mut setup: impl FnMut() -> Result<(), String>,
    answer: impl Fn(&str) -> Result<SparqlResult, String>,
    mut traced: impl FnMut(u64, &str) -> (Result<SparqlResult, String>, Duration),
) -> Result<ReadLoop, String> {
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut out = ReadLoop {
        untraced: Reads::new(opts.penalty_ms()),
        traced: Reads::new(opts.penalty_ms()),
        untraced_active: Duration::ZERO,
        first: HashMap::new(),
        mismatches: Vec::new(),
    };
    let mut split_checked = HashSet::new();
    let mut request = 0u64;
    let mut setups = 1;
    // The timed region: the reads' wall time summed.
    let mut active = Duration::ZERO;
    while active < budget {
        while setup_due(setups, active, budget) {
            setup()?;
            setups += 1;
        }
        request += 1;
        let req = gen.next_request();
        let is_traced = opts.trace && request.is_multiple_of(2);
        let (result, took) = if is_traced {
            traced(request, &req.text)
        } else {
            let start = Instant::now();
            let result = answer(&req.text);
            (result, start.elapsed())
        };
        active += took;
        let reads = if is_traced {
            &mut out.traced
        } else {
            out.untraced_active += took;
            &mut out.untraced
        };
        match result {
            Ok(rows) => {
                reads.ok(req.class, ms(took));
                if is_traced && split_checked.insert(req.text.clone()) {
                    match answer(&req.text) {
                        Ok(direct) if direct == rows => {}
                        other => out.mismatches.push(format!(
                            "traced split path differs from answer_sparql for {}: {:?}",
                            req.text,
                            other.err()
                        )),
                    }
                }
                out.first.entry(req.text).or_insert(rows);
            }
            Err(e) => reads.fail(req.class, e),
        }
    }
    while setup_due(setups, active, budget) {
        setup()?;
        setups += 1;
    }
    Ok(out)
}

/// The span-derived metrics: each layer's self time per traced read,
/// the glue the benchmark itself adds, and the traced latency. Setup
/// and writes carry request id 0 and are left out.
pub fn trace_metrics(spans: &[Span], m: &mut Metrics) {
    let selfs = self_times_ns(spans);
    let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
    let mut roots = Vec::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        if s.request == 0 {
            continue;
        }
        *by_layer.entry(s.layer()).or_default() += self_ns;
        if s.parent == NO_SPAN {
            roots.push(s.duration_ns() as f64 / 1e6);
        }
    }
    let n = roots.len() as f64;
    let per_request = |layer: &str| ratio(*by_layer.get(layer).unwrap_or(&0) as f64 / 1e6, n);
    for (layer, metric) in [
        ("sparql", "sparql.self_ms"),
        ("session", "session.self_ms"),
        ("rewriting", "rewriting.self_ms"),
        ("federation", "federation.self_ms"),
        ("transport", "transport.self_ms"),
        ("request", "trace.glue_ms"),
    ] {
        m.insert(metric, per_request(layer));
    }
    let total: f64 = roots.iter().sum();
    m.insert(
        "trace.accounted_share",
        ratio(total - per_request("request") * n, total),
    );
    let traced = median(&roots);
    m.insert("trace.traced_p50_ms", traced);
    if let Some(&untraced) = m.get("trace.untraced_p50_ms") {
        m.insert("trace.overhead_ratio", ratio(traced, untraced) - 1.0);
    }
}

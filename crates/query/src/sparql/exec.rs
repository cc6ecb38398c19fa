//! The id-level assembly tail of SPARQL evaluation.
//!
//! Everything the conjunctive engine cannot express happens here:
//! OPTIONAL left joins (compatible-mapping semantics), FILTER
//! evaluation, projection with unbound columns, DISTINCT, ORDER BY with
//! a numeric-aware comparator, and LIMIT/OFFSET. Rows stay flat
//! [`TermId`] tuples — one numbered column per variable, [`UNBOUND`]
//! for a variable a row leaves unbound — until the final page: terms
//! are read by reference through a [`TermSource`] wherever a filter or
//! the sort order needs them, and only the rows actually returned are
//! cloned out as [`Term`]s.
//!
//! The tail has two entry points over one implementation:
//!
//! * [`LoweredSparql::assemble_ids`] takes id rows plus the dictionary
//!   they were minted by — the materialised and live routes hand over
//!   their solution's ids untouched;
//! * [`LoweredSparql::assemble`] takes term sets, interns them into a
//!   per-query [`QueryDict`] and runs the same tail — the entry for
//!   callers holding decoded answers, and for the routes (rewritten,
//!   Datalog, federated) whose answers arrive as terms.
//!
//! Ids are only ever compared for equality, and only within one
//! dictionary, where equal ids are equal terms; every ordering and
//! every filter comparison other than that equality fast path reads the
//! terms, so all routes answer byte-identically.

use super::lower::{LoweredSparql, SparqlResult, SparqlRows};
use super::parse::{CmpOp, FilterExpr, Operand};
use crate::pattern::Variable;
use rps_rdf::{Graph, LiteralAnnotation, Term, TermId};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The id of an unbound column. A graph's dictionary would mint it
/// only as its 2³²-th term; [`QueryDict`] refuses to mint it at all.
const UNBOUND: TermId = TermId(u32::MAX);

/// A multiplicative hasher (the Fx hash) for id tuples, the keys of the
/// left-join index and of DISTINCT. Ids are minted densely by a
/// dictionary, never taken from input, so the default hasher's
/// protection against crafted keys buys nothing here.
#[derive(Default)]
struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IdBuild = BuildHasherDefault<IdHasher>;

/// The dictionary the ids of an id-level input were minted by.
pub trait TermSource {
    /// The term behind `id`.
    fn term(&self, id: TermId) -> &Term;

    /// The id of `term`, if the dictionary holds it.
    fn id(&self, term: &Term) -> Option<TermId>;
}

impl TermSource for Graph {
    fn term(&self, id: TermId) -> &Term {
        Graph::term(self, id)
    }

    fn id(&self, term: &Term) -> Option<TermId> {
        self.term_id(term)
    }
}

/// One lowered CQ's answers as id tuples in the CQ's head order,
/// stored flat (`width` ids per row). Like the CQ's answers, the rows
/// are a set: the tail relies on no row appearing twice.
#[derive(Debug)]
pub struct IdRows {
    width: usize,
    len: usize,
    ids: Vec<TermId>,
}

impl IdRows {
    /// An empty table of `width`-id rows.
    pub fn new(width: usize) -> Self {
        IdRows {
            width,
            len: 0,
            ids: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `width` ids long.
    pub fn push(&mut self, row: &[TermId]) {
        assert_eq!(row.len(), self.width, "row width");
        self.ids.extend_from_slice(row);
        self.len += 1;
    }

    fn row(&self, i: usize) -> &[TermId] {
        &self.ids[i * self.width..(i + 1) * self.width]
    }

    fn rows(&self) -> impl Iterator<Item = &[TermId]> {
        (0..self.len).map(|i| self.row(i))
    }

    fn push_iter(&mut self, row: impl IntoIterator<Item = TermId>) {
        self.ids.extend(row);
        self.len += 1;
    }
}

/// A per-query dictionary over borrowed terms: the id space the tail
/// runs in when its inputs are term tuples. Interning borrows, so the
/// terms are cloned only for the rows the query returns.
#[derive(Default)]
pub struct QueryDict<'a> {
    terms: Vec<&'a Term>,
    ids: HashMap<&'a Term, TermId>,
    /// The terms seen so far by the address of their string payload.
    /// Clones of one term share that payload, so answers decoded from
    /// one dictionary are mostly found here without hashing the string;
    /// a hit is still checked for term equality.
    by_payload: HashMap<usize, (&'a Term, TermId), IdBuild>,
}

impl<'a> QueryDict<'a> {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id of `term`, minting one on first sight.
    fn intern(&mut self, term: &'a Term) -> TermId {
        let payload = match term {
            Term::Iri(iri) => iri.as_str(),
            Term::Blank(blank) => blank.label(),
            Term::Literal(lit) => lit.lexical(),
        };
        let addr = payload.as_ptr().addr();
        if let Some(&(seen, id)) = self.by_payload.get(&addr) {
            if seen == term {
                return id;
            }
        }
        let next = self.terms.len();
        let id = *self.ids.entry(term).or_insert_with(|| {
            u32::try_from(next)
                .ok()
                .filter(|&n| n != UNBOUND.0)
                .map(TermId)
                .expect("query dictionary overflow")
        });
        if id.index() == next {
            self.terms.push(term);
        }
        self.by_payload.insert(addr, (term, id));
        id
    }

    /// Interns `width`-term rows into an id table.
    pub fn intern_rows<R>(&mut self, width: usize, rows: impl IntoIterator<Item = R>) -> IdRows
    where
        R: IntoIterator<Item = &'a Term>,
    {
        let rows = rows.into_iter();
        let bound = rows.size_hint().0.saturating_mul(width);
        self.by_payload.reserve(bound);
        self.ids.reserve(bound);
        let mut out = IdRows::new(width);
        for row in rows {
            let before = out.ids.len();
            for term in row {
                let id = self.intern(term);
                out.ids.push(id);
            }
            assert_eq!(out.ids.len() - before, width, "row width");
            out.len += 1;
        }
        out
    }
}

impl TermSource for QueryDict<'_> {
    fn term(&self, id: TermId) -> &Term {
        self.terms[id.index()]
    }

    fn id(&self, term: &Term) -> Option<TermId> {
        self.ids.get(term).copied()
    }
}

/// The column layout of one query: every variable a CQ head, the
/// projection, a sort key or a filter mentions gets one column.
#[derive(Default)]
struct Layout {
    cols: BTreeMap<Variable, usize>,
}

impl Layout {
    fn col(&mut self, var: &Variable) -> usize {
        let next = self.cols.len();
        *self.cols.entry(var.clone()).or_insert(next)
    }

    fn cols(&mut self, vars: &[Variable]) -> Vec<usize> {
        vars.iter().map(|v| self.col(v)).collect()
    }

    fn width(&self) -> usize {
        self.cols.len()
    }
}

/// A filter operand: a column of the row, or a constant.
enum Arg<'q> {
    Col(usize),
    Const(&'q Term),
}

/// A FILTER expression with its variables resolved to columns.
enum Cond<'q> {
    Or(Box<Cond<'q>>, Box<Cond<'q>>),
    And(Box<Cond<'q>>, Box<Cond<'q>>),
    Not(Box<Cond<'q>>),
    Bound(usize),
    Compare(Arg<'q>, CmpOp, Arg<'q>),
    /// `?v = t` (or `!=` when `negated`) for a non-numeric constant
    /// `t`: term equality, hence id equality. `id` is `t`'s id, `None`
    /// when the dictionary lacks `t` and no row can equal it.
    Is {
        col: usize,
        id: Option<TermId>,
        negated: bool,
    },
}

impl<'q> Cond<'q> {
    fn compile<T: TermSource + ?Sized>(
        expr: &'q FilterExpr,
        layout: &mut Layout,
        terms: &T,
    ) -> Self {
        let arg = |op: &'q Operand, layout: &mut Layout| match op {
            Operand::Var(v) => Arg::Col(layout.col(v)),
            Operand::Term(t) => Arg::Const(t),
        };
        let mut boxed = |e: &'q FilterExpr| Box::new(Cond::compile(e, layout, terms));
        match expr {
            FilterExpr::Or(a, b) => Cond::Or(boxed(a), boxed(b)),
            FilterExpr::And(a, b) => Cond::And(boxed(a), boxed(b)),
            FilterExpr::Not(a) => Cond::Not(boxed(a)),
            FilterExpr::Bound(v) => Cond::Bound(layout.col(v)),
            FilterExpr::Compare(l, op, r) => match (l, op, r) {
                (Operand::Var(v), CmpOp::Eq | CmpOp::Ne, Operand::Term(t))
                | (Operand::Term(t), CmpOp::Eq | CmpOp::Ne, Operand::Var(v))
                    if numeric(t).is_none() =>
                {
                    Cond::Is {
                        col: layout.col(v),
                        id: terms.id(t),
                        negated: *op == CmpOp::Ne,
                    }
                }
                _ => Cond::Compare(arg(l, layout), *op, arg(r, layout)),
            },
        }
    }

    /// SPARQL's three-valued filter logic: `Some(bool)` is a defined
    /// result, `None` a type error — a comparison over an unbound
    /// variable, or an ordering comparison on a non-literal. The
    /// negation of an error is an error, `true || error` is `true`,
    /// `false && error` is `false`, and every other combination
    /// involving an error is an error. `=`/`!=` between two bound terms
    /// are total: distinct terms compare unequal rather than erroring.
    fn eval<T: TermSource + ?Sized>(&self, row: &[TermId], terms: &T) -> Option<bool> {
        match self {
            Cond::Or(a, b) => match a.eval(row, terms) {
                Some(true) => Some(true),
                left => match (left, b.eval(row, terms)) {
                    (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                },
            },
            Cond::And(a, b) => match a.eval(row, terms) {
                Some(false) => Some(false),
                left => match (left, b.eval(row, terms)) {
                    (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                },
            },
            Cond::Not(a) => a.eval(row, terms).map(|v| !v),
            Cond::Bound(col) => Some(row[*col] != UNBOUND),
            Cond::Is { col, id, negated } => {
                (row[*col] != UNBOUND).then(|| (Some(row[*col]) == *id) != *negated)
            }
            Cond::Compare(l, op, r) => {
                // Fast path: one bound id on both sides is one term, so
                // `=` holds and `!=` fails. Unequal ids can still be
                // numerically equal ("1" and "01"), so they fall through.
                if let (Arg::Col(a), Arg::Col(b)) = (l, r) {
                    if row[*a] == row[*b] && row[*a] != UNBOUND {
                        match op {
                            CmpOp::Eq => return Some(true),
                            CmpOp::Ne => return Some(false),
                            _ => {}
                        }
                    }
                }
                let operand = |arg: &Arg<'q>| match arg {
                    Arg::Const(t) => Some(*t),
                    Arg::Col(c) => (row[*c] != UNBOUND).then(|| terms.term(row[*c])),
                };
                compare(operand(l)?, *op, operand(r)?)
            }
        }
    }
}

/// A comparison between two bound terms: numerically when both are
/// numeric, otherwise term equality for `=`/`!=` and lexical order on
/// literals for the ordering operators (a type error on anything else).
fn compare(l: &Term, op: CmpOp, r: &Term) -> Option<bool> {
    if let (Some(a), Some(b)) = (numeric(l), numeric(r)) {
        return Some(match op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        });
    }
    match (op, l, r) {
        (CmpOp::Eq, _, _) => Some(l == r),
        (CmpOp::Ne, _, _) => Some(l != r),
        (_, Term::Literal(a), Term::Literal(b)) => {
            let ord = a.lexical().cmp(b.lexical());
            Some(matches!(
                (op, ord),
                (CmpOp::Lt, Ordering::Less)
                    | (CmpOp::Le, Ordering::Less | Ordering::Equal)
                    | (CmpOp::Gt, Ordering::Greater)
                    | (CmpOp::Ge, Ordering::Greater | Ordering::Equal)
            ))
        }
        _ => None,
    }
}

/// The numeric value of a term for filter comparison and ORDER BY:
/// any non-language-tagged literal whose lexical form parses as a
/// finite float counts (covering the engine's `xsd:integer` literals
/// and plain digit strings alike).
fn numeric(term: &Term) -> Option<f64> {
    let Term::Literal(lit) = term else {
        return None;
    };
    if matches!(lit.annotation(), LiteralAnnotation::Lang(_)) {
        return None;
    }
    let v: f64 = lit.lexical().parse().ok()?;
    v.is_finite().then_some(v)
}

/// Term order on two column values, unbound first.
fn id_cmp<T: TermSource + ?Sized>(a: TermId, b: TermId, terms: &T) -> Ordering {
    if a == b {
        return Ordering::Equal;
    }
    match (a == UNBOUND, b == UNBOUND) {
        (true, _) => Ordering::Less,
        (_, true) => Ordering::Greater,
        _ => terms.term(a).cmp(terms.term(b)),
    }
}

/// Keeps the rows of `rows` on which every filter evaluates to `true`:
/// both `false` and a type error remove a row, per the FILTER rule.
fn retain(rows: IdRows, filters: &[Cond<'_>], terms: &(impl TermSource + ?Sized)) -> IdRows {
    if filters.is_empty() {
        return rows;
    }
    let mut out = IdRows::new(rows.width);
    for row in rows.rows() {
        if filters.iter().all(|f| f.eval(row, terms) == Some(true)) {
            out.push(row);
        }
    }
    out
}

/// Places a CQ's answers into full-width rows: head position `i` goes
/// to column `cols[i]`, every other column is unbound.
fn widen(answers: &IdRows, cols: &[usize], width: usize) -> IdRows {
    assert_eq!(
        answers.width,
        cols.len(),
        "answer width matches the CQ head"
    );
    let mut out = IdRows::new(width);
    out.ids.reserve(answers.len * width);
    let mut row = vec![UNBOUND; width];
    for tuple in answers.rows() {
        for (&col, &id) in cols.iter().zip(tuple) {
            row[col] = id;
        }
        out.push(&row);
    }
    out
}

/// SPARQL LeftJoin as a hash join. `key` is the base head's columns:
/// the extension CQ's head is a superset of it, so rows and extensions
/// that agree on the key agree on everything the base binds.
/// Compatibility still has to hold on `rest` — the extension's other
/// columns, which an earlier OPTIONAL may have bound. Rows with at
/// least one compatible extension are replaced by all their merges;
/// rows with none pass through unextended.
fn left_join(rows: &IdRows, exts: &IdRows, key: &[usize], rest: &[usize]) -> IdRows {
    let mut index: HashMap<Vec<TermId>, Vec<usize>, IdBuild> = HashMap::default();
    let mut probe = Vec::with_capacity(key.len());
    for (i, ext) in exts.rows().enumerate() {
        probe.clear();
        probe.extend(key.iter().map(|&c| ext[c]));
        match index.get_mut(probe.as_slice()) {
            Some(matches) => matches.push(i),
            None => {
                index.insert(probe.clone(), vec![i]);
            }
        }
    }
    let mut out = IdRows::new(rows.width);
    for row in rows.rows() {
        probe.clear();
        probe.extend(key.iter().map(|&c| row[c]));
        let mut extended = false;
        for &i in index.get(probe.as_slice()).into_iter().flatten() {
            let ext = exts.row(i);
            if rest.iter().all(|&c| row[c] == UNBOUND || row[c] == ext[c]) {
                out.push_iter(
                    row.iter()
                        .zip(ext)
                        .map(|(&r, &e)| if r == UNBOUND { e } else { r }),
                );
                extended = true;
            }
        }
        if !extended {
            out.push(row);
        }
    }
    out
}

/// A row index ordered by a comparator, for [`BinaryHeap`].
struct Ranked<'c, F>(usize, &'c F);

impl<F: Fn(&usize, &usize) -> Ordering> Ord for Ranked<'_, F> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.1)(&self.0, &other.0)
    }
}

impl<F: Fn(&usize, &usize) -> Ordering> PartialOrd for Ranked<'_, F> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<F: Fn(&usize, &usize) -> Ordering> PartialEq for Ranked<'_, F> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<F: Fn(&usize, &usize) -> Ordering> Eq for Ranked<'_, F> {}

/// One UNION branch resolved to columns: the base CQ's head columns,
/// each OPTIONAL's extension head columns and filters, and the
/// branch filters.
struct BranchPlan<'q> {
    base: Vec<usize>,
    optionals: Vec<(Vec<usize>, Vec<Cond<'q>>)>,
    filters: Vec<Cond<'q>>,
}

fn compile_filters<'q, T: TermSource + ?Sized>(
    filters: &'q [FilterExpr],
    layout: &mut Layout,
    terms: &T,
) -> Vec<Cond<'q>> {
    filters
        .iter()
        .map(|f| Cond::compile(f, layout, terms))
        .collect()
}

pub(crate) fn assemble<T: TermSource + ?Sized>(
    lowered: &LoweredSparql,
    answers: &[IdRows],
    terms: &T,
) -> SparqlResult {
    let expected: usize = lowered.branches.iter().map(|b| 1 + b.optionals.len()).sum();
    assert_eq!(
        answers.len(),
        expected,
        "assemble needs one answer set per lowered CQ"
    );

    // Resolve every variable to its column before any row is built.
    let mut layout = Layout::default();
    let projection = layout.cols(&lowered.projection);
    let sort_keys: Vec<(usize, bool)> = lowered
        .order_by
        .iter()
        .filter_map(|k| {
            lowered
                .projection
                .iter()
                .position(|v| *v == k.var)
                .map(|i| (i, k.descending))
        })
        .collect();
    let plans: Vec<BranchPlan<'_>> = lowered
        .branches
        .iter()
        .map(|b| BranchPlan {
            base: layout.cols(b.base.free_vars()),
            optionals: b
                .optionals
                .iter()
                .map(|o| {
                    (
                        layout.cols(o.query.free_vars()),
                        compile_filters(&o.filters, &mut layout, terms),
                    )
                })
                .collect(),
            filters: compile_filters(&b.filters, &mut layout, terms),
        })
        .collect();
    let width = layout.width();

    let mut merged = IdRows::new(width);
    let mut answers = answers.iter();
    let mut next = || answers.next().expect("counted above");
    for plan in &plans {
        let mut rows = widen(next(), &plan.base, width);
        for (cols, filters) in &plan.optionals {
            // Optional filters see the extension row alone.
            let exts = retain(widen(next(), cols, width), filters, terms);
            let rest: Vec<usize> = cols
                .iter()
                .copied()
                .filter(|c| !plan.base.contains(c))
                .collect();
            rows = left_join(&rows, &exts, &plan.base, &rest);
        }
        if lowered.ask {
            let pass = |row: &[TermId]| {
                plan.filters
                    .iter()
                    .all(|f| f.eval(row, terms) == Some(true))
            };
            if rows.rows().any(pass) {
                return SparqlResult::Boolean(true);
            }
            continue;
        }
        let rows = retain(rows, &plan.filters, terms);
        if merged.len == 0 {
            merged = rows;
        } else {
            merged.ids.extend_from_slice(&rows.ids);
            merged.len += rows.len;
        }
    }
    if lowered.ask {
        return SparqlResult::Boolean(false);
    }

    // Project, then dedup: the engine computes set semantics throughout,
    // so DISTINCT and REDUCED are satisfied without extra work.
    let mut projected = IdRows::new(projection.len());
    for row in merged.rows() {
        projected.push_iter(projection.iter().map(|&c| row[c]));
    }
    // One branch without OPTIONALs that projects its whole head keeps
    // its CQ's rows apart: they are a set, and projection drops none of
    // their columns.
    let one_cq = match plans.as_slice() {
        [only] => only.optionals.is_empty() && only.base.iter().all(|c| projection.contains(c)),
        _ => false,
    };
    let distinct: Vec<&[TermId]> = if one_cq {
        projected.rows().collect()
    } else {
        let mut seen: HashSet<&[TermId], IdBuild> =
            HashSet::with_capacity_and_hasher(projected.len, IdBuild::default());
        projected.rows().filter(|row| seen.insert(*row)).collect()
    };

    // ORDER BY keys, by class: unbound first, then numeric terms (by
    // value, then term order), then every other bound term (term
    // order) — a total order even over mixed columns. Ties fall through to the next key and finally to the whole row in term
    // order. Without ORDER BY the whole-row order alone gives the
    // canonical order. Numeric values are parsed once per row and key.
    let numbers: Vec<Option<f64>> = distinct
        .iter()
        .flat_map(|row| {
            sort_keys.iter().map(|&(col, _)| {
                (row[col] != UNBOUND)
                    .then(|| numeric(terms.term(row[col])))
                    .flatten()
            })
        })
        .collect();
    let keys = sort_keys.len();
    let cmp = |&a: &usize, &b: &usize| -> Ordering {
        let (ra, rb) = (distinct[a], distinct[b]);
        for (k, &(col, descending)) in sort_keys.iter().enumerate() {
            let ord = match (ra[col] == UNBOUND, rb[col] == UNBOUND) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                (false, false) => match (numbers[a * keys + k], numbers[b * keys + k]) {
                    (Some(na), Some(nb)) => na.total_cmp(&nb),
                    (Some(_), None) => Ordering::Less,
                    (None, Some(_)) => Ordering::Greater,
                    (None, None) => Ordering::Equal,
                }
                .then_with(|| id_cmp(ra[col], rb[col], terms)),
            };
            let ord = if descending { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        ra.iter()
            .zip(rb)
            .map(|(&x, &y)| id_cmp(x, y, terms))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    };

    // Top-k: only the first `offset + limit` rows are ever ordered. A
    // bounded max-heap of them costs one comparison per row that does
    // not make the cut.
    let n = distinct.len();
    let offset = lowered.offset.unwrap_or(0).min(n);
    let end = lowered
        .limit
        .map_or(n, |limit| offset.saturating_add(limit))
        .min(n);
    let order: Vec<usize> = if offset == end {
        Vec::new()
    } else if end < n {
        let mut top: BinaryHeap<Ranked<'_, _>> = BinaryHeap::with_capacity(end);
        for i in 0..n {
            if top.len() < end {
                top.push(Ranked(i, &cmp));
            } else if let Some(mut worst) = top.peek_mut() {
                if cmp(&i, &worst.0).is_lt() {
                    worst.0 = i;
                }
            }
        }
        top.into_sorted_vec().into_iter().map(|r| r.0).collect()
    } else {
        let mut all: Vec<usize> = (0..n).collect();
        // Distinct rows never compare equal, so an unstable sort is exact.
        all.sort_unstable_by(cmp);
        all
    };

    let rows = order
        .get(offset..)
        .unwrap_or_default()
        .iter()
        .map(|&i| {
            distinct[i]
                .iter()
                .map(|&id| (id != UNBOUND).then(|| terms.term(id).clone()))
                .collect()
        })
        .collect();
    SparqlResult::Rows(SparqlRows {
        vars: lowered.columns(),
        rows,
    })
}

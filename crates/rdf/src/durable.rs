//! Persist/open/recover orchestration for the durable storage tier.
//!
//! This module ties together the three `store` submodules —
//! [`page`](crate::store::page) (checksummed fixed-size pages),
//! [`wal`](crate::store::wal) (the write-ahead log) and
//! [`disk`](crate::store::disk) (paged run files, dictionary segments
//! and the manifest) — into the two graph-level operations
//! [`Graph::persist`] and [`Graph::open`], plus [`DurableGraph`], a
//! write-through handle that logs every mutation to the WAL as it
//! happens so state since the last checkpoint survives a crash.
//!
//! # Checkpoint lifecycle
//!
//! A persist writes a **new epoch** of files and commits them with one
//! atomic manifest rename:
//!
//! 1. live-only run images (`run-e{epoch}-{perm}-{idx}.rpg`) — the
//!    tombstones are dropped on the way out, a persist doubles as a
//!    purge-compaction;
//! 2. dictionary segments: previous epochs' segments are *reused* when
//!    they still verify as a prefix of the current dictionary (ids are
//!    dense and append-only), and one new segment covers the terms
//!    interned since;
//! 3. a fresh WAL (`wal-e{epoch}.log`) holding the mutable tail as
//!    `Insert` records;
//! 4. `MANIFEST.tmp` → fsync → rename over `MANIFEST` → directory fsync.
//!
//! Every new file carries the epoch in its name, so nothing the *old*
//! manifest references is ever overwritten: a crash anywhere before the
//! rename leaves the old checkpoint fully intact, and a crash after it
//! leaves the new one. Files no longer referenced are deleted
//! best-effort after the commit.
//!
//! # Recovery invariants
//!
//! [`Graph::open`] trusts nothing it cannot verify: the manifest and
//! every page and segment carry CRC-32 checksums; run images are
//! re-validated for strict sortedness, dictionary-bounded ids and
//! cross-permutation agreement; WAL replay is idempotent and stops
//! cleanly at a torn tail (see the torn-tail discipline in
//! [`crate::store::wal`]). Unverifiable *committed* state is a typed
//! [`RdfError::Corrupt`] — recovery refuses to serve over silently
//! wrong data, and never panics on corrupt input.
//!
//! The insertion log of a recovered graph starts fresh (one entry per
//! live triple, SPO order, then WAL replay order): log indexes are
//! process-local delta marks, not durable state, so marks taken in a
//! previous process are meaningless after recovery.

use crate::dict::{TermDict, TermId};
use crate::error::RdfError;
use crate::graph::{DurCounters, Graph};
use crate::store::disk::{
    read_dict_segment, read_run_file, write_dict_segment, write_run_file, DictSegmentMeta,
    Manifest, RunMeta, MANIFEST_NAME,
};
use crate::store::page::KEYS_PER_PAGE;
use crate::store::wal::{read_wal, WalRecord, WalWriter};
use crate::store::TripleStore;
use crate::term::Term;
use crate::triple::IdTriple;
use std::fs;
use std::path::{Path, PathBuf};

const PERM_NAMES: [&str; 3] = ["spo", "pos", "osp"];

fn run_name(epoch: u64, perm: &str, idx: usize) -> String {
    format!("run-e{epoch:06}-{perm}-{idx}.rpg")
}

fn wal_name(epoch: u64) -> String {
    format!("wal-e{epoch:06}.log")
}

fn seg_name(epoch: u64, first_id: u32) -> String {
    format!("dict-e{epoch:06}-{first_id}.seg")
}

/// Checkpoints `graph` into `dir` (see [`Graph::persist`] for the
/// contract).
pub(crate) fn persist_graph(graph: &Graph, dir: &Path) -> Result<(), RdfError> {
    fs::create_dir_all(dir)
        .map_err(|e| RdfError::io(format!("create graph directory {}", dir.display()), &e))?;
    // A previous checkpoint's manifest tells us which dictionary
    // segments may be reusable and which epoch to stamp. A *corrupt*
    // manifest is surfaced, not silently clobbered — the caller decides
    // whether to clear the directory.
    let prev = match Manifest::load(dir) {
        Ok(m) => Some(m),
        Err(RdfError::Io {
            kind: std::io::ErrorKind::NotFound,
            ..
        }) => None,
        Err(e) => return Err(e),
    };
    let epoch = prev.as_ref().map_or(1, |m| m.epoch + 1);

    // Dictionary segments: reuse the previous epoch's chain while it
    // still verifies as a prefix of the current dictionary, then write
    // one new segment for the terms interned since.
    let mut dict_segments: Vec<DictSegmentMeta> = Vec::new();
    let mut covered: u32 = 0;
    if let Some(prev) = &prev {
        let mut reusable = Vec::new();
        let mut at: u32 = 0;
        for meta in &prev.dict_segments {
            if meta.first_id != at || (at + meta.terms) as usize > graph.dict().len() {
                break;
            }
            let Ok(terms) = read_dict_segment(&dir.join(&meta.name), meta) else {
                break;
            };
            let matches = terms
                .iter()
                .enumerate()
                .all(|(i, t)| graph.dict().term(TermId(at + i as u32)) == t);
            if !matches {
                break;
            }
            at += meta.terms;
            reusable.push(meta.clone());
        }
        dict_segments = reusable;
        covered = at;
    }
    if (covered as usize) < graph.dict().len() {
        let fresh: Vec<Term> = graph
            .dict()
            .iter()
            .skip(covered as usize)
            .map(|(_, t)| t.clone())
            .collect();
        let name = seg_name(epoch, covered);
        let crc = write_dict_segment(&dir.join(&name), covered, &fresh)?;
        dict_segments.push(DictSegmentMeta {
            name,
            first_id: covered,
            terms: fresh.len() as u32,
            crc,
        });
    }

    // Live-only run images, one paged file per run per permutation.
    let snapshot = graph.store_snapshot();
    let mut runs: [Vec<RunMeta>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut pages_written = 0u64;
    for (perm_idx, perm_runs) in snapshot.runs.iter().enumerate() {
        for (idx, run) in perm_runs.iter().enumerate() {
            let name = run_name(epoch, PERM_NAMES[perm_idx], idx);
            pages_written += write_run_file(&dir.join(&name), run)?;
            runs[perm_idx].push(RunMeta {
                name,
                keys: run.len() as u64,
            });
        }
    }

    // The mutable tail rides in the fresh WAL as plain inserts — tail
    // keys are never tombstoned, so they are all live.
    let wal = wal_name(epoch);
    let mut writer = WalWriter::create(&dir.join(&wal))?;
    for &t in &snapshot.tail {
        writer.append(&WalRecord::Insert(t))?;
    }
    writer.sync()?;
    let wal_bytes = writer.bytes();
    drop(writer);

    let manifest = Manifest {
        version: 1,
        epoch,
        sealed: graph.is_sealed(),
        triples: graph.len() as u64,
        dict_segments,
        runs,
        wal,
    };
    manifest.commit(dir)?;

    DurCounters::add(&graph.dur().pages_written, pages_written);
    DurCounters::add(&graph.dur().wal_bytes, wal_bytes);
    cleanup_stale(dir, &manifest);
    Ok(())
}

/// Best-effort removal of files no longer referenced by the committed
/// manifest (previous epochs' runs, segments and WALs). Failures are
/// ignored — stale files are garbage, not state.
fn cleanup_stale(dir: &Path, manifest: &Manifest) {
    let mut keep: Vec<&str> = vec![MANIFEST_NAME];
    keep.extend(manifest.dict_segments.iter().map(|s| s.name.as_str()));
    keep.extend(manifest.runs.iter().flatten().map(|r| r.name.as_str()));
    keep.push(manifest.wal.as_str());
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let ours = name == "MANIFEST.tmp"
            || name.ends_with(".rpg")
            || name.ends_with(".seg")
            || name.ends_with(".log");
        if ours && !keep.contains(&name) {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// Opens a checkpointed graph (see [`Graph::open`] for the contract) and
/// additionally reports the WAL's verified prefix length, which
/// [`DurableGraph::open`] resumes appending from.
fn open_graph_inner(dir: &Path) -> Result<(Graph, Manifest, u64), RdfError> {
    let manifest = Manifest::load(dir)?;
    let dirname = dir.display().to_string();

    // Dictionary: segments must tile [0, n) contiguously and re-intern
    // without collisions (a duplicate term across segments would shift
    // every later id).
    let mut dict = TermDict::new();
    for meta in &manifest.dict_segments {
        if meta.first_id as usize != dict.len() {
            return Err(RdfError::corrupt(
                &dirname,
                format!(
                    "dictionary segment {} starts at id {}, expected {}",
                    meta.name,
                    meta.first_id,
                    dict.len()
                ),
            ));
        }
        for term in read_dict_segment(&dir.join(&meta.name), meta)? {
            let expect = TermId(dict.len() as u32);
            if dict.intern(&term) != expect {
                return Err(RdfError::corrupt(
                    &dirname,
                    format!(
                        "dictionary segment {} re-interns a duplicate term",
                        meta.name
                    ),
                ));
            }
        }
    }

    // Runs: read each file in one verified sequential pass, then
    // re-validate the structural invariants the store relies on.
    let dur = DurCounters::default();
    let mut images: [Vec<Vec<[u32; 3]>>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (perm_idx, metas) in manifest.runs.iter().enumerate() {
        for meta in metas {
            let (keys, pages) = read_run_file(&dir.join(&meta.name), meta.keys)?;
            DurCounters::add(&dur.pages_read, pages);
            images[perm_idx].push(keys);
        }
    }
    let store = TripleStore::from_runs(images, dict.len() as u32)
        .map_err(|detail| RdfError::corrupt(&dirname, detail))?;

    let mut graph = Graph::from_recovered(dict, store, dur);

    // WAL replay: idempotent, in append order, stopping cleanly at a
    // torn tail. Term appends must agree with the rebuilt dictionary;
    // triple records must stay within it.
    let replay = read_wal(&dir.join(&manifest.wal))?;
    let replayed = replay.records.len() as u64;
    for rec in replay.records {
        match rec {
            WalRecord::TermAppend { id, term } => {
                if graph.intern(&term) != id {
                    return Err(RdfError::corrupt(
                        &dirname,
                        format!(
                            "WAL term append disagrees with the dictionary at id {}",
                            id.0
                        ),
                    ));
                }
            }
            WalRecord::Insert(t) | WalRecord::Remove(t) => {
                let n = graph.dict().len() as u32;
                if [t.s.0, t.p.0, t.o.0].iter().any(|&id| id >= n) {
                    return Err(RdfError::corrupt(
                        &dirname,
                        format!("WAL triple references term id beyond the dictionary ({n} terms)"),
                    ));
                }
                if matches!(rec, WalRecord::Insert(_)) {
                    graph.insert_ids(t);
                } else {
                    graph.remove_ids(t);
                }
            }
        }
    }
    DurCounters::add(&graph.dur().wal_replayed, replayed);
    DurCounters::add(&graph.dur().wal_bytes, replay.bytes);
    Ok((graph, manifest, replay.bytes))
}

/// Opens a checkpointed graph (the implementation of [`Graph::open`]).
pub(crate) fn open_graph(dir: &Path) -> Result<Graph, RdfError> {
    open_graph_inner(dir).map(|(g, _, _)| g)
}

/// A write-through handle on a persisted graph: every mutation is
/// captured in the write-ahead log as it happens, so the state since
/// the last [`DurableGraph::checkpoint`] survives a crash (up to the
/// last [`DurableGraph::sync`]). Reads go straight to the in-memory
/// [`Graph`].
///
/// ```no_run
/// use rps_rdf::{DurableGraph, Term};
///
/// let mut g = DurableGraph::create("/tmp/my-graph")?;
/// let s = g.intern(&Term::iri("s"))?;
/// let p = g.intern(&Term::iri("p"))?;
/// let o = g.intern(&Term::iri("o"))?;
/// g.insert(rps_rdf::IdTriple::new(s, p, o))?;
/// g.sync()?; // durable from here on
/// # Ok::<(), rps_rdf::RdfError>(())
/// ```
pub struct DurableGraph {
    dir: PathBuf,
    graph: Graph,
    wal: WalWriter,
}

impl DurableGraph {
    /// Creates an empty persisted graph in `dir` (the directory is
    /// created if needed; an existing checkpoint there is an error —
    /// open it instead).
    pub fn create(dir: impl AsRef<Path>) -> Result<Self, RdfError> {
        let dir = dir.as_ref();
        if dir.join(MANIFEST_NAME).exists() {
            return Err(RdfError::corrupt(
                dir.display().to_string(),
                "directory already holds a checkpoint; use DurableGraph::open",
            ));
        }
        Graph::new().persist(dir)?;
        Self::open(dir)
    }

    /// Opens (and recovers) a persisted graph for writing: replays the
    /// WAL, truncates any torn tail, and resumes appending after the
    /// verified prefix.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, RdfError> {
        let dir = dir.as_ref();
        let (graph, manifest, valid_bytes) = open_graph_inner(dir)?;
        let wal = WalWriter::open_append(&dir.join(&manifest.wal), valid_bytes)?;
        Ok(DurableGraph {
            dir: dir.to_path_buf(),
            graph,
            wal,
        })
    }

    /// Read access to the underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Interns a term, logging it if it is new to the dictionary.
    pub fn intern(&mut self, term: &Term) -> Result<TermId, RdfError> {
        if let Some(id) = self.graph.term_id(term) {
            return Ok(id);
        }
        let id = self.graph.intern(term);
        self.append(&WalRecord::TermAppend {
            id,
            term: term.clone(),
        })?;
        Ok(id)
    }

    /// Inserts an interned triple, logging it if newly added. Ids must
    /// come from this graph's dictionary.
    pub fn insert(&mut self, t: IdTriple) -> Result<bool, RdfError> {
        let n = self.graph.dict().len() as u32;
        if [t.s.0, t.p.0, t.o.0].iter().any(|&id| id >= n) {
            return Err(RdfError::InvalidTriple(format!(
                "triple references term id beyond the dictionary ({n} terms)"
            )));
        }
        let added = self.graph.insert_ids(t);
        if added {
            self.append(&WalRecord::Insert(t))?;
        }
        Ok(added)
    }

    /// Removes an interned triple, logging the removal if it was
    /// present.
    pub fn remove(&mut self, t: IdTriple) -> Result<bool, RdfError> {
        let removed = self.graph.remove_ids(t);
        if removed {
            self.append(&WalRecord::Remove(t))?;
        }
        Ok(removed)
    }

    fn append(&mut self, rec: &WalRecord) -> Result<(), RdfError> {
        let before = self.wal.bytes();
        self.wal.append(rec)?;
        DurCounters::add(&self.graph.dur().wal_bytes, self.wal.bytes() - before);
        Ok(())
    }

    /// Fsyncs the WAL: everything appended so far is durable.
    pub fn sync(&mut self) -> Result<(), RdfError> {
        self.wal.sync()
    }

    /// Writes a fresh checkpoint epoch and truncates the logical WAL:
    /// the accumulated tombstones and unchecked mutations are folded
    /// into new run images, leaving only the live mutable tail to
    /// replay (as the fresh WAL's insert image).
    pub fn checkpoint(&mut self) -> Result<(), RdfError> {
        self.wal.sync()?;
        self.graph.persist(&self.dir)?;
        let manifest = Manifest::load(&self.dir)?;
        let wal_path = self.dir.join(&manifest.wal);
        let len = fs::metadata(&wal_path)
            .map_err(|e| RdfError::io(format!("stat WAL {}", wal_path.display()), &e))?
            .len();
        self.wal = WalWriter::open_append(&wal_path, len)?;
        Ok(())
    }

    /// Consumes the handle, returning the in-memory graph. Anything not
    /// yet synced is flushed first.
    pub fn into_graph(mut self) -> Result<Graph, RdfError> {
        self.wal.sync()?;
        Ok(self.graph)
    }
}

impl std::fmt::Debug for DurableGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableGraph")
            .field("dir", &self.dir)
            .field("graph", &self.graph)
            .finish()
    }
}

/// Rough page count a graph of `triples` triples persists to, used by
/// benchmarks to sanity-check I/O volumes: three permutations at
/// [`KEYS_PER_PAGE`] keys per page.
pub fn estimated_pages(triples: usize) -> usize {
    3 * triples.div_ceil(KEYS_PER_PAGE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rps-durable-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_graph(n: u32) -> Graph {
        let mut g = Graph::new();
        for i in 0..n {
            g.insert_terms(
                Term::iri(format!("http://e/s{}", i % 97)),
                Term::iri(format!("http://e/p{}", i % 7)),
                Term::literal(format!("v{i}")),
            )
            .unwrap();
        }
        g
    }

    fn assert_same(a: &Graph, b: &Graph) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.dict().len(), b.dict().len());
        // Byte-identical id assignment, not just set equality.
        let xs: Vec<IdTriple> = a.iter_ids().collect();
        let ys: Vec<IdTriple> = b.iter_ids().collect();
        assert_eq!(xs, ys);
        for (id, term) in a.dict().iter() {
            assert_eq!(b.dict().term(id), term);
        }
    }

    #[test]
    fn persist_open_roundtrip_preserves_ids_and_order() {
        let dir = tmp("roundtrip");
        let g = sample_graph(1500);
        let stats = g.storage_stats();
        assert!(stats.runs >= 1 && stats.tail > 0, "mixed shape: {stats:?}");
        g.persist(&dir).unwrap();
        assert!(g.storage_stats().pages_written > 0);
        assert!(g.storage_stats().wal_bytes > 0, "tail rode in the WAL");

        let re = Graph::open(&dir).unwrap();
        assert_same(&g, &re);
        let rs = re.storage_stats();
        assert!(rs.pages_read > 0);
        assert_eq!(rs.wal_replayed, stats.tail as u64);
        assert_eq!(rs.tombstones, 0, "persist purged tombstones");
    }

    #[test]
    fn persist_is_a_purge_compaction() {
        let dir = tmp("purge");
        let mut g = sample_graph(1200);
        let victims: Vec<IdTriple> = g.iter_ids().take(50).collect();
        for &v in &victims {
            assert!(g.remove_ids(v));
        }
        g.persist(&dir).unwrap();
        let re = Graph::open(&dir).unwrap();
        assert_eq!(re.len(), g.len());
        for &v in &victims {
            assert!(!re.contains_ids(v));
        }
        assert_eq!(re.storage_stats().tombstones, 0);
        // Observational equality on owned triples too.
        assert_eq!(g, re);
    }

    #[test]
    fn second_epoch_reuses_dict_segments() {
        let dir = tmp("epochs");
        let mut g = sample_graph(800);
        g.persist(&dir).unwrap();
        let m1 = Manifest::load(&dir).unwrap();
        assert_eq!(m1.epoch, 1);
        assert_eq!(m1.dict_segments.len(), 1);

        g.insert_terms(
            Term::iri("http://e/new"),
            Term::iri("http://e/p0"),
            Term::iri("http://e/s0"),
        )
        .unwrap();
        g.persist(&dir).unwrap();
        let m2 = Manifest::load(&dir).unwrap();
        assert_eq!(m2.epoch, 2);
        assert_eq!(
            m2.dict_segments.len(),
            2,
            "old segment reused, one appended"
        );
        assert_eq!(m2.dict_segments[0], m1.dict_segments[0]);
        // Stale epoch-1 run files were cleaned up; epoch-1 segment kept.
        for meta in m1.runs.iter().flatten() {
            assert!(!dir.join(&meta.name).exists(), "stale {}", meta.name);
        }
        assert!(dir.join(&m1.dict_segments[0].name).exists());
        assert_same(&g, &Graph::open(&dir).unwrap());
    }

    #[test]
    fn durable_graph_recovers_unchecked_writes() {
        let dir = tmp("write-through");
        let (s, p, o, o2);
        {
            let mut d = DurableGraph::create(&dir).unwrap();
            s = d.intern(&Term::iri("s")).unwrap();
            p = d.intern(&Term::iri("p")).unwrap();
            o = d.intern(&Term::iri("o")).unwrap();
            o2 = d.intern(&Term::iri("o2")).unwrap();
            d.insert(IdTriple::new(s, p, o)).unwrap();
            d.insert(IdTriple::new(s, p, o2)).unwrap();
            d.remove(IdTriple::new(s, p, o)).unwrap();
            d.sync().unwrap();
            // No checkpoint: the manifest still describes the empty
            // graph; everything lives in the WAL. Dropping without
            // checkpointing simulates a crash after the sync.
        }
        let g = Graph::open(&dir).unwrap();
        assert_eq!(g.len(), 1);
        assert!(g.contains_ids(IdTriple::new(s, p, o2)));
        assert!(!g.contains_ids(IdTriple::new(s, p, o)));
        assert_eq!(g.dict().len(), 4);
        assert_eq!(g.storage_stats().wal_replayed, 7);

        // Reopening for writing resumes the same WAL.
        let mut d = DurableGraph::open(&dir).unwrap();
        assert_eq!(d.graph().len(), 1);
        d.insert(IdTriple::new(s, p, o)).unwrap();
        let g = d.into_graph().unwrap();
        assert_eq!(g.len(), 2);
        let re = Graph::open(&dir).unwrap();
        assert_eq!(re, g);
    }

    #[test]
    fn checkpoint_folds_wal_into_runs() {
        let dir = tmp("checkpoint");
        let mut d = DurableGraph::create(&dir).unwrap();
        let p = d.intern(&Term::iri("p")).unwrap();
        for i in 0..300u32 {
            let s = d.intern(&Term::iri(format!("s{i}"))).unwrap();
            let o = d.intern(&Term::iri(format!("o{}", i % 13))).unwrap();
            d.insert(IdTriple::new(s, p, o)).unwrap();
        }
        d.checkpoint().unwrap();
        let m = Manifest::load(&dir).unwrap();
        assert!(m.epoch >= 2);
        let re = Graph::open(&dir).unwrap();
        assert_eq!(re.len(), 300);
        // Post-checkpoint replay is just the (small) tail again.
        assert!(re.storage_stats().wal_replayed < 300);
        // And the handle keeps working after the checkpoint.
        let s = d.intern(&Term::iri("post")).unwrap();
        d.insert(IdTriple::new(s, p, s)).unwrap();
        let g = d.into_graph().unwrap();
        assert_eq!(Graph::open(&dir).unwrap(), g);
    }

    #[test]
    fn empty_graph_roundtrip() {
        let dir = tmp("empty");
        Graph::new().persist(&dir).unwrap();
        let g = Graph::open(&dir).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.dict().len(), 0);
    }

    #[test]
    fn btree_backend_persists_too() {
        let dir = tmp("btree");
        let mut g = Graph::with_backend(crate::store::StorageBackend::BTree);
        g.insert_terms(Term::iri("a"), Term::iri("p"), Term::iri("b"))
            .unwrap();
        g.persist(&dir).unwrap();
        // Reopens under the default sorted-run backend with identical
        // contents — the durable format is backend-agnostic.
        let re = Graph::open(&dir).unwrap();
        assert_eq!(re, g);
    }

    #[test]
    fn create_refuses_existing_checkpoint() {
        let dir = tmp("refuse");
        DurableGraph::create(&dir).unwrap();
        assert!(matches!(
            DurableGraph::create(&dir),
            Err(RdfError::Corrupt { .. })
        ));
    }

    #[test]
    fn open_missing_dir_is_not_found_io() {
        let dir = tmp("missing");
        assert!(matches!(
            Graph::open(&dir),
            Err(RdfError::Io {
                kind: std::io::ErrorKind::NotFound,
                ..
            })
        ));
    }
}

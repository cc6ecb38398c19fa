//! Paged run files, dictionary segments and the versioned manifest — the on-disk half of the durable storage tier.
//!
//! A persisted graph is a directory:
//!
//! ```text
//! MANIFEST                    versioned commit point (atomic rename)
//! run-e000001-spo-0.rpg       one paged file per immutable sorted run,
//! run-e000001-pos-0.rpg       per permutation, epoch-stamped
//! run-e000001-osp-0.rpg
//! dict-e000001-0.seg          append-only dictionary segments
//! wal-e000001.log             the active write-ahead log
//! ```
//!
//! Run and WAL files are never modified after their manifest commits
//! (the WAL only grows, and only past its committed prefix); a
//! checkpoint writes a **new epoch** of files and then commits a new
//! `MANIFEST` via write-temp-then-atomic-rename, so a crash at any point
//! leaves either the old manifest with its intact old files or the new
//! manifest with its intact new files. Dictionary segments are the
//! exception that proves the rule: they are immutable *and shared* —
//! a checkpoint reuses the previous epoch's segments and appends one new
//! segment covering the terms interned since, because dictionary ids are
//! dense and append-only.
//!
//! Opening a graph reads each run file once, front to back
//! ([`read_run_file`]), verifying every page on the way; the pages read
//! are counted for [`StorageStats`](super::StorageStats).

use super::page::{
    self, crc32, get_str, get_term, get_varint, put_str, put_term, put_varint, KEYS_PER_PAGE,
    PAGE_SIZE,
};
use crate::error::RdfError;
use crate::term::Term;
use std::fs::{self, File};
use std::io::{BufReader, Read, Write};
use std::path::Path;

/// Name of the manifest file inside a persisted graph directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

const MANIFEST_MAGIC: [u8; 4] = *b"RMF1";
const SEG_MAGIC: [u8; 4] = *b"RDS1";

/// Reads a whole run file in one sequential pass and verifies it
/// against the key count its manifest entry promises: the file must be
/// a whole number of pages, as many as `keys` needs; every page must
/// carry its own page number and a valid checksum; and the pages
/// together must hold exactly `keys` keys. Returns the keys in file
/// order and the number of pages read. Every failed check is
/// [`RdfError::Corrupt`].
pub fn read_run_file(path: &Path, keys: u64) -> Result<(Vec<[u32; 3]>, u64), RdfError> {
    let name = path.display().to_string();
    let ctx = || format!("read run file {name}");
    let file = File::open(path).map_err(|e| RdfError::io(ctx(), &e))?;
    let len = file.metadata().map_err(|e| RdfError::io(ctx(), &e))?.len();
    if len % PAGE_SIZE as u64 != 0 {
        return Err(RdfError::corrupt(
            &name,
            format!("file length {len} is not a whole number of pages"),
        ));
    }
    let pages = len / PAGE_SIZE as u64;
    let expect_pages = keys.div_ceil(KEYS_PER_PAGE as u64);
    if pages != expect_pages {
        return Err(RdfError::corrupt(
            &name,
            format!("manifest promises {keys} keys ({expect_pages} pages), file has {pages} pages"),
        ));
    }
    let mut reader = BufReader::with_capacity(16 * PAGE_SIZE, file);
    let mut page = vec![0u8; PAGE_SIZE];
    let mut out = Vec::with_capacity(keys as usize);
    for page_no in 0..pages as u32 {
        reader
            .read_exact(&mut page)
            .map_err(|e| RdfError::io(ctx(), &e))?;
        let n = page::verify_page(page_no, &page).map_err(|d| RdfError::corrupt(&name, d))?;
        out.extend((0..n).map(|i| page::page_key(&page, i)));
    }
    if out.len() as u64 != keys {
        return Err(RdfError::corrupt(
            &name,
            format!("pages hold {} keys, manifest promises {keys}", out.len()),
        ));
    }
    Ok((out, pages))
}

/// Writes a sorted run as checksummed pages, fsyncing the file. Returns
/// the number of pages written.
pub(crate) fn write_run_file(path: &Path, keys: &[[u32; 3]]) -> Result<u64, RdfError> {
    let ctx = || format!("write run file {}", path.display());
    let mut file = File::create(path).map_err(|e| RdfError::io(ctx(), &e))?;
    let mut pages = 0u64;
    for (page_no, chunk) in keys.chunks(KEYS_PER_PAGE).enumerate() {
        let buf = page::encode_page(page_no as u32, chunk);
        file.write_all(&buf).map_err(|e| RdfError::io(ctx(), &e))?;
        pages += 1;
    }
    file.sync_all().map_err(|e| RdfError::io(ctx(), &e))?;
    Ok(pages)
}

/// Manifest entry for one immutable run file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunMeta {
    /// File name within the graph directory.
    pub name: String,
    /// Keys stored in the run.
    pub keys: u64,
}

/// Manifest entry for one dictionary segment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DictSegmentMeta {
    /// File name within the graph directory.
    pub name: String,
    /// The id of the first term in the segment (segments are contiguous
    /// in id order).
    pub first_id: u32,
    /// Terms stored in the segment.
    pub terms: u32,
    /// CRC-32 of the whole segment file (matches its trailing checksum).
    pub crc: u32,
}

/// The versioned per-graph manifest: which run files, dictionary
/// segments and WAL constitute the current epoch. Committed atomically
/// by the crate-internal `Manifest::commit`; the rename of `MANIFEST.tmp` over
/// [`MANIFEST_NAME`] is the durability commit point.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Manifest {
    /// Format version (currently 1).
    pub version: u32,
    /// Checkpoint epoch, incremented by every persist.
    pub epoch: u64,
    /// Whether the graph was in the sealed shape when persisted.
    pub sealed: bool,
    /// Live triples at persist time (runs plus WAL tail inserts).
    pub triples: u64,
    /// Dictionary segments in id order.
    pub dict_segments: Vec<DictSegmentMeta>,
    /// Run lists for the SPO, POS and OSP permutations (in that order),
    /// each oldest-first.
    pub runs: [Vec<RunMeta>; 3],
    /// File name of the active WAL.
    pub wal: String,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MANIFEST_MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        put_varint(&mut out, self.epoch);
        out.push(u8::from(self.sealed));
        put_varint(&mut out, self.triples);
        put_varint(&mut out, self.dict_segments.len() as u64);
        for seg in &self.dict_segments {
            put_str(&mut out, &seg.name);
            put_varint(&mut out, u64::from(seg.first_id));
            put_varint(&mut out, u64::from(seg.terms));
            out.extend_from_slice(&seg.crc.to_le_bytes());
        }
        for runs in &self.runs {
            put_varint(&mut out, runs.len() as u64);
            for run in runs {
                put_str(&mut out, &run.name);
                put_varint(&mut out, run.keys);
            }
        }
        put_str(&mut out, &self.wal);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    fn decode(buf: &[u8]) -> Result<Manifest, String> {
        if buf.len() < 12 {
            return Err("manifest too short".into());
        }
        let (body, crc_bytes) = buf.split_at(buf.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if stored != crc32(body) {
            return Err("manifest checksum mismatch".into());
        }
        if body[..4] != MANIFEST_MAGIC {
            return Err("bad manifest magic".into());
        }
        let version = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes"));
        if version != 1 {
            return Err(format!("unsupported manifest version {version}"));
        }
        let mut pos = 8;
        let epoch = get_varint(body, &mut pos)?;
        let &sealed = body.get(pos).ok_or("truncated manifest")?;
        pos += 1;
        let triples = get_varint(body, &mut pos)?;
        let n_segs = get_varint(body, &mut pos)? as usize;
        let mut dict_segments = Vec::with_capacity(n_segs.min(1024));
        for _ in 0..n_segs {
            let name = get_str(body, &mut pos)?;
            let first_id = get_varint(body, &mut pos)? as u32;
            let terms = get_varint(body, &mut pos)? as u32;
            let crc_at = pos;
            let crc_bytes = body
                .get(crc_at..crc_at + 4)
                .ok_or("truncated segment entry")?;
            pos += 4;
            dict_segments.push(DictSegmentMeta {
                name,
                first_id,
                terms,
                crc: u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes")),
            });
        }
        let mut runs: [Vec<RunMeta>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for perm in &mut runs {
            let n = get_varint(body, &mut pos)? as usize;
            for _ in 0..n {
                let name = get_str(body, &mut pos)?;
                let keys = get_varint(body, &mut pos)?;
                perm.push(RunMeta { name, keys });
            }
        }
        let wal = get_str(body, &mut pos)?;
        if pos != body.len() {
            return Err(format!("manifest has {} trailing bytes", body.len() - pos));
        }
        Ok(Manifest {
            version,
            epoch,
            sealed: sealed != 0,
            triples,
            dict_segments,
            runs,
            wal,
        })
    }

    /// Loads and verifies the manifest of a persisted graph directory.
    /// A missing manifest is an [`RdfError::Io`] with
    /// [`std::io::ErrorKind::NotFound`]; anything unverifiable is
    /// [`RdfError::Corrupt`].
    pub fn load(dir: &Path) -> Result<Manifest, RdfError> {
        let path = dir.join(MANIFEST_NAME);
        let mut buf = Vec::new();
        File::open(&path)
            .and_then(|mut f| f.read_to_end(&mut buf))
            .map_err(|e| RdfError::io(format!("open manifest {}", path.display()), &e))?;
        Manifest::decode(&buf)
            .map_err(|detail| RdfError::corrupt(path.display().to_string(), detail))
    }

    /// Commits this manifest atomically: writes `MANIFEST.tmp`, fsyncs
    /// it, renames it over [`MANIFEST_NAME`] and fsyncs the directory.
    pub(crate) fn commit(&self, dir: &Path) -> Result<(), RdfError> {
        let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
        let dst = dir.join(MANIFEST_NAME);
        let ctx = || format!("commit manifest in {}", dir.display());
        let mut file = File::create(&tmp).map_err(|e| RdfError::io(ctx(), &e))?;
        file.write_all(&self.encode())
            .and_then(|()| file.sync_all())
            .map_err(|e| RdfError::io(ctx(), &e))?;
        drop(file);
        fs::rename(&tmp, &dst).map_err(|e| RdfError::io(ctx(), &e))?;
        // Make the rename itself durable (best-effort on platforms where
        // directories cannot be fsynced).
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

/// Serialises a dictionary segment (`first_id` onwards, in id order) and
/// returns the file's trailing CRC for the manifest entry.
///
/// Layout: magic `RDS1`, `first_id` u32 LE, term count u32 LE, the
/// tagged term records, and a trailing CRC-32 over everything before it.
pub(crate) fn write_dict_segment(
    path: &Path,
    first_id: u32,
    terms: &[Term],
) -> Result<u32, RdfError> {
    let ctx = || format!("write dictionary segment {}", path.display());
    let mut out = Vec::new();
    out.extend_from_slice(&SEG_MAGIC);
    out.extend_from_slice(&first_id.to_le_bytes());
    out.extend_from_slice(&(terms.len() as u32).to_le_bytes());
    for t in terms {
        put_term(&mut out, t);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    let mut file = File::create(path).map_err(|e| RdfError::io(ctx(), &e))?;
    file.write_all(&out)
        .and_then(|()| file.sync_all())
        .map_err(|e| RdfError::io(ctx(), &e))?;
    Ok(crc)
}

/// Reads and verifies a dictionary segment against its manifest entry,
/// returning its terms in id order.
pub(crate) fn read_dict_segment(
    path: &Path,
    meta: &DictSegmentMeta,
) -> Result<Vec<Term>, RdfError> {
    let name = path.display().to_string();
    let mut buf = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut buf))
        .map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                RdfError::corrupt(&name, "dictionary segment named by the manifest is missing")
            } else {
                RdfError::io(format!("read dictionary segment {name}"), &e)
            }
        })?;
    if buf.len() < 16 {
        return Err(RdfError::corrupt(&name, "segment too short"));
    }
    let (body, crc_bytes) = buf.split_at(buf.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if stored != crc32(body) || stored != meta.crc {
        return Err(RdfError::corrupt(&name, "segment checksum mismatch"));
    }
    if body[..4] != SEG_MAGIC {
        return Err(RdfError::corrupt(&name, "bad segment magic"));
    }
    let first_id = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes"));
    let count = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
    if first_id != meta.first_id || count != meta.terms {
        return Err(RdfError::corrupt(
            &name,
            format!(
                "segment header ({first_id}, {count} terms) disagrees with manifest \
                 ({}, {} terms)",
                meta.first_id, meta.terms
            ),
        ));
    }
    let mut pos = 12;
    let mut terms = Vec::with_capacity(count as usize);
    for _ in 0..count {
        terms.push(get_term(body, &mut pos).map_err(|d| RdfError::corrupt(&name, d))?);
    }
    if pos != body.len() {
        return Err(RdfError::corrupt(&name, "segment has trailing bytes"));
    }
    Ok(terms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rps-disk-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn run_file_roundtrip_multiple_pages() {
        let dir = tmp("run-roundtrip");
        let keys: Vec<[u32; 3]> = (0..(KEYS_PER_PAGE as u32 * 2 + 57))
            .map(|i| [i, i % 7, i % 13])
            .collect();
        let path = dir.join("run.rpg");
        let pages = write_run_file(&path, &keys).unwrap();
        assert_eq!(pages, 3);
        assert_eq!(
            read_run_file(&path, keys.len() as u64).unwrap(),
            (keys, pages)
        );
    }

    #[test]
    fn torn_run_page_is_typed_corruption() {
        let dir = tmp("torn-page");
        let keys: Vec<[u32; 3]> = (0..(KEYS_PER_PAGE as u32 + 5)).map(|i| [i, 1, 2]).collect();
        let path = dir.join("run.rpg");
        write_run_file(&path, &keys).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip a bit inside the second page's payload (not its zero
        // padding, which the checksum deliberately excludes).
        let at = PAGE_SIZE + 20;
        bytes[at] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_run_file(&path, keys.len() as u64),
            Err(RdfError::Corrupt { .. })
        ));
    }

    #[test]
    fn manifest_roundtrip_and_corruption() {
        let dir = tmp("manifest");
        let m = Manifest {
            version: 1,
            epoch: 7,
            sealed: true,
            triples: 12345,
            dict_segments: vec![DictSegmentMeta {
                name: "dict-e000001-0.seg".into(),
                first_id: 0,
                terms: 42,
                crc: 0xDEAD_BEEF,
            }],
            runs: [
                vec![RunMeta {
                    name: "run-e000007-spo-0.rpg".into(),
                    keys: 1000,
                }],
                vec![RunMeta {
                    name: "run-e000007-pos-0.rpg".into(),
                    keys: 1000,
                }],
                vec![RunMeta {
                    name: "run-e000007-osp-0.rpg".into(),
                    keys: 1000,
                }],
            ],
            wal: "wal-e000007.log".into(),
        };
        m.commit(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), m);
        assert!(!dir.join("MANIFEST.tmp").exists(), "tmp renamed away");

        // Missing manifest: NotFound I/O error (the caller decides what
        // that means); truncated manifest: typed corruption.
        let empty = tmp("manifest-missing");
        assert!(matches!(
            Manifest::load(&empty),
            Err(RdfError::Io {
                kind: std::io::ErrorKind::NotFound,
                ..
            })
        ));
        let bytes = fs::read(dir.join(MANIFEST_NAME)).unwrap();
        fs::write(dir.join(MANIFEST_NAME), &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            Manifest::load(&dir),
            Err(RdfError::Corrupt { .. })
        ));
    }

    #[test]
    fn dict_segment_roundtrip_and_validation() {
        let dir = tmp("segment");
        let terms = vec![
            Term::iri("http://e/a"),
            Term::blank("b1"),
            Term::literal("lit"),
        ];
        let path = dir.join("dict-e000001-0.seg");
        let crc = write_dict_segment(&path, 0, &terms).unwrap();
        let meta = DictSegmentMeta {
            name: "dict-e000001-0.seg".into(),
            first_id: 0,
            terms: 3,
            crc,
        };
        assert_eq!(read_dict_segment(&path, &meta).unwrap(), terms);

        // A wrong manifest CRC or tampered payload is corruption.
        let wrong = DictSegmentMeta {
            crc: crc ^ 1,
            ..meta.clone()
        };
        assert!(matches!(
            read_dict_segment(&path, &wrong),
            Err(RdfError::Corrupt { .. })
        ));
        let mut bytes = fs::read(&path).unwrap();
        bytes[13] ^= 0x80;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_dict_segment(&path, &meta),
            Err(RdfError::Corrupt { .. })
        ));
    }
}

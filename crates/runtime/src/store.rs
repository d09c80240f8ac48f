//! Persistent on-disk tier under the in-memory landscape cache.
//!
//! The LRU ([`crate::cache::LandscapeCache`]) dies with the process, so
//! every restart of a sweep service re-pays the dominant pipeline cost:
//! landscape generation, seconds per entry. [`LandscapeStore`] keeps
//! those landscapes on disk, keyed by the same process-stable 128-bit
//! [`LandscapeKey`] the in-memory tier uses — a warm store makes a
//! repeated sweep pure reconstruction in a fresh process.
//!
//! # Design
//!
//! * **One file per entry**, named by the FNV-1a-128 hash of the key's
//!   canonical bytes (`<hash:032x>.osl`). The full 72-byte key block is
//!   stored in the header and verified on open, so even a filename hash
//!   collision degrades to a miss, never to wrong data.
//! * **Write-behind**: [`LandscapeStore::save`] enqueues the entry on an
//!   unbounded channel served by one writer thread — the executor hot
//!   path never blocks on disk. Entries are written to a temp file and
//!   atomically renamed into place, so readers (including concurrent
//!   processes sharing a store directory) never observe a torn entry.
//!   [`LandscapeStore::flush`] drains the queue; dropping the last
//!   handle joins the writer, so process exit flushes too.
//! * **Corruption-safe open**: every failure mode — zero-length or
//!   truncated file, bad magic, unknown format version, checksum
//!   mismatch, inconsistent shape/payload header — is a clean miss
//!   (plus a `store.corrupt_entries` metric), never a panic. A missed
//!   entry is simply regenerated and rewritten.
//!
//! # On-disk format (version 1, normative)
//!
//! All integers little-endian; `f64` as IEEE-754 bit patterns.
//!
//! | field | size | contents |
//! |---|---|---|
//! | magic | 8 | `b"OSCARLS\0"` |
//! | version | 4 | `u32` = 1 |
//! | key | 72 | [`LandscapeKey`] canonical bytes (4×`u128` + `u64`) |
//! | shape kind | 1 | 0 = 2-D grid, 1 = N-D tensor |
//! | rank | 8 | axis count (`u64`; 2 for grids) |
//! | axes | rank×24 | per axis: `lo` `f64`, `hi` `f64`, `n` `u64` |
//! | count | 8 | payload value count (`u64`, = ∏ nᵢ) |
//! | payload | count×8 | raw `f64` values, row-major |
//! | checksum | 16 | FNV-1a-128 over **all** preceding bytes |

use crate::cache::{lock, LandscapeKey};
use oscar_core::grid::{Axis, Grid2d, TensorShape};
use oscar_core::landscape::{Landscape, NdLandscape, ShapedLandscape};
use oscar_qsim::fingerprint::Fingerprint;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Format magic, first 8 bytes of every entry.
const MAGIC: [u8; 8] = *b"OSCARLS\0";
/// Current format version.
const VERSION: u32 = 1;
/// Entry file extension.
const EXT: &str = "osl";
/// Bytes before the axis blocks: magic + version + key + kind + rank.
const FIXED_HEADER: usize = 8 + 4 + 72 + 1 + 8;
/// Trailing checksum size.
const CHECKSUM: usize = 16;

/// `store.*` counters in the obs registry, resolved once.
struct StoreMetrics {
    hits: oscar_obs::Counter,
    misses: oscar_obs::Counter,
    writes: oscar_obs::Counter,
    write_errors: oscar_obs::Counter,
    corrupt_entries: oscar_obs::Counter,
}

fn store_metrics() -> &'static StoreMetrics {
    static METRICS: OnceLock<StoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = oscar_obs::Registry::global();
        StoreMetrics {
            hits: registry.counter("store.hits"),
            misses: registry.counter("store.misses"),
            writes: registry.counter("store.writes"),
            write_errors: registry.counter("store.write_errors"),
            corrupt_entries: registry.counter("store.corrupt_entries"),
        }
    })
}

/// A snapshot of the store's effectiveness counters (process-wide, from
/// the obs registry — all stores in a process share them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries served from disk.
    pub hits: u64,
    /// Probes that found no (valid) entry.
    pub misses: u64,
    /// Entries written behind.
    pub writes: u64,
    /// Failed write attempts (disk full, permissions, …).
    pub write_errors: u64,
    /// Entries that failed validation on open (each also counts a miss).
    pub corrupt_entries: u64,
}

/// Reads the process-wide `store.*` counter snapshot.
pub fn store_stats() -> StoreStats {
    let m = store_metrics();
    StoreStats {
        hits: m.hits.get(),
        misses: m.misses.get(),
        writes: m.writes.get(),
        write_errors: m.write_errors.get(),
        corrupt_entries: m.corrupt_entries.get(),
    }
}

/// What the write-behind thread processes.
enum WriteReq {
    Entry {
        key: LandscapeKey,
        landscape: Arc<ShapedLandscape>,
    },
    Flush(Sender<()>),
}

/// The persistent disk tier. See the module docs for format and
/// semantics. Cheap to share: clone the `Arc` returned by
/// [`Self::open`] into [`crate::scheduler::RuntimeConfig::store`].
pub struct LandscapeStore {
    dir: PathBuf,
    /// `None` once the store has begun shutting down.
    tx: Mutex<Option<Sender<WriteReq>>>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for LandscapeStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LandscapeStore")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl LandscapeStore {
    /// Opens (creating if needed) a store rooted at `dir` and starts
    /// its write-behind thread.
    ///
    /// # Errors
    ///
    /// Propagates failures to create the directory or spawn the writer
    /// thread.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<Arc<LandscapeStore>> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let (tx, rx) = mpsc::channel::<WriteReq>();
        let writer_dir = dir.clone();
        let writer = std::thread::Builder::new()
            .name("oscar-store-writer".into())
            .spawn(move || {
                while let Ok(req) = rx.recv() {
                    match req {
                        WriteReq::Entry { key, landscape } => {
                            write_entry(&writer_dir, &key, &landscape);
                        }
                        WriteReq::Flush(ack) => {
                            // Everything enqueued before the flush has
                            // already been written (single consumer, in
                            // order); just acknowledge.
                            let _ = ack.send(());
                        }
                    }
                }
            })?;
        Ok(Arc::new(LandscapeStore {
            dir,
            tx: Mutex::new(Some(tx)),
            writer: Mutex::new(Some(writer)),
        }))
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for `key`.
    fn entry_path(&self, key: &LandscapeKey) -> PathBuf {
        self.dir.join(format!("{:032x}.{EXT}", key.store_hash()))
    }

    /// Probes the disk tier for `key`. Any invalid entry — truncated,
    /// bad magic, unknown version, checksum mismatch, key mismatch,
    /// inconsistent header — is a miss; structurally invalid entries
    /// also count `store.corrupt_entries`. Never panics, never blocks
    /// on the write-behind queue.
    pub fn load(&self, key: &LandscapeKey) -> Option<ShapedLandscape> {
        let metrics = store_metrics();
        let bytes = match std::fs::read(self.entry_path(key)) {
            Ok(bytes) => bytes,
            Err(e) => {
                if e.kind() != ErrorKind::NotFound {
                    // Unreadable is indistinguishable from absent for
                    // correctness, but worth counting as corruption.
                    metrics.corrupt_entries.inc();
                }
                metrics.misses.inc();
                return None;
            }
        };
        match decode_entry(key, &bytes) {
            Ok(landscape) => {
                metrics.hits.inc();
                Some(landscape)
            }
            Err(DecodeError::KeyMismatch) => {
                // A filename-hash collision with a *valid* foreign
                // entry: not corruption, just not our landscape.
                metrics.misses.inc();
                None
            }
            Err(DecodeError::Corrupt) => {
                metrics.corrupt_entries.inc();
                metrics.misses.inc();
                None
            }
        }
    }

    /// Enqueues `landscape` for write-behind under `key` and returns
    /// immediately; the writer thread encodes and writes it. Dropped
    /// silently (counting `store.write_errors`) if the store is
    /// shutting down.
    pub fn save(&self, key: &LandscapeKey, landscape: &Arc<ShapedLandscape>) {
        let sent = match lock(&self.tx).as_ref() {
            Some(tx) => tx
                .send(WriteReq::Entry {
                    key: *key,
                    landscape: Arc::clone(landscape),
                })
                .is_ok(),
            None => false,
        };
        if !sent {
            store_metrics().write_errors.inc();
        }
    }

    /// Blocks until every previously enqueued write has been written
    /// (or failed, counting `store.write_errors`). Call before
    /// measuring a warm run or comparing directory contents; process
    /// exit via drop flushes too.
    pub fn flush(&self) {
        let tx = lock(&self.tx).clone();
        if let Some(tx) = tx {
            let (ack_tx, ack_rx) = mpsc::channel();
            if tx.send(WriteReq::Flush(ack_tx)).is_ok() {
                let _ = ack_rx.recv();
            }
        }
    }
}

impl Drop for LandscapeStore {
    fn drop(&mut self) {
        // Closing the channel ends the writer loop after it drains the
        // queue; joining guarantees every accepted write is durable
        // before the process can exit.
        *lock(&self.tx) = None;
        let writer = lock(&self.writer).take();
        if let Some(writer) = writer {
            let _ = writer.join();
        }
    }
}

/// Encodes and writes one entry: temp file + atomic rename, so a
/// concurrent reader (or a crash) never sees a partial entry.
fn write_entry(dir: &Path, key: &LandscapeKey, landscape: &ShapedLandscape) {
    let metrics = store_metrics();
    let bytes = encode_entry(key, landscape);
    let hash = key.store_hash();
    let tmp = dir.join(format!("{hash:032x}.tmp"));
    let path = dir.join(format!("{hash:032x}.{EXT}"));
    let result = std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, &path));
    match result {
        Ok(()) => metrics.writes.inc(),
        Err(_) => {
            let _ = std::fs::remove_file(&tmp);
            metrics.write_errors.inc();
        }
    }
}

/// Serializes one entry per the module-level format table.
fn encode_entry(key: &LandscapeKey, landscape: &ShapedLandscape) -> Vec<u8> {
    let (kind, axes): (u8, Vec<Axis>) = match landscape {
        ShapedLandscape::Grid2d(l) => (0, vec![l.grid().beta, l.grid().gamma]),
        ShapedLandscape::Tensor(l) => (1, l.shape().axes().to_vec()),
    };
    let values = landscape.values();
    let mut out = Vec::with_capacity(FIXED_HEADER + axes.len() * 24 + 8 + values.len() * 8 + 16);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&key.encode());
    out.push(kind);
    out.extend_from_slice(&(axes.len() as u64).to_le_bytes());
    for axis in &axes {
        out.extend_from_slice(&axis.lo.to_bits().to_le_bytes());
        out.extend_from_slice(&axis.hi.to_bits().to_le_bytes());
        out.extend_from_slice(&(axis.n as u64).to_le_bytes());
    }
    out.extend_from_slice(&(values.len() as u64).to_le_bytes());
    out.extend_from_slice(&f64s_to_le_bytes(values));
    let mut h = Fingerprint::new();
    h.write_bytes(&out);
    out.extend_from_slice(&h.finish().to_le_bytes());
    out
}

/// Encodes `values` as raw IEEE-754 bytes, 8 per value, little-endian.
/// Bit-exact: [`f64s_from_le_bytes`] recovers the identical bit
/// patterns, including NaN payloads and signed zeros.
fn f64s_to_le_bytes(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Decodes a raw little-endian f64 payload written by
/// [`f64s_to_le_bytes`]. Returns `None` unless the length is a whole
/// number of 8-byte values (a truncated payload must read as corrupt,
/// never as a shorter landscape).
fn f64s_from_le_bytes(bytes: &[u8]) -> Option<Vec<f64>> {
    if !bytes.len().is_multiple_of(8) {
        return None;
    }
    Some(
        bytes
            .chunks_exact(8)
            .map(|chunk| {
                let mut raw = [0u8; 8];
                raw.copy_from_slice(chunk);
                f64::from_bits(u64::from_le_bytes(raw))
            })
            .collect(),
    )
}

/// Why an entry failed to decode.
enum DecodeError {
    /// Structurally invalid: counts `store.corrupt_entries`.
    Corrupt,
    /// A valid entry for a different key (filename-hash collision).
    KeyMismatch,
}

/// Bounded little-endian reader over an entry body; every read is
/// length-checked so malformed entries can never index out of bounds.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let chunk = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(chunk)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(self.take(4)?);
        Some(u32::from_le_bytes(raw))
    }

    fn u64(&mut self) -> Option<u64> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.take(8)?);
        Some(u64::from_le_bytes(raw))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
}

/// Validates and decodes one entry for `key`. Pure; every failure path
/// returns an error instead of panicking.
fn decode_entry(key: &LandscapeKey, bytes: &[u8]) -> Result<ShapedLandscape, DecodeError> {
    // Structure: verify the envelope (length, magic, version, checksum)
    // before trusting any field past the fixed header.
    if bytes.len() < FIXED_HEADER + CHECKSUM {
        return Err(DecodeError::Corrupt);
    }
    let (body, sum) = bytes.split_at(bytes.len() - CHECKSUM);
    let mut h = Fingerprint::new();
    h.write_bytes(body);
    if h.finish().to_le_bytes() != sum {
        return Err(DecodeError::Corrupt);
    }
    let mut r = Reader {
        bytes: body,
        pos: 0,
    };
    if r.take(8) != Some(&MAGIC) {
        return Err(DecodeError::Corrupt);
    }
    if r.u32() != Some(VERSION) {
        return Err(DecodeError::Corrupt);
    }
    if r.take(72) != Some(&key.encode()[..]) {
        return Err(DecodeError::KeyMismatch);
    }
    let kind = r.u8().ok_or(DecodeError::Corrupt)?;
    let rank = r.u64().ok_or(DecodeError::Corrupt)?;
    // A rank beyond any real workload is corruption, and bounding it
    // keeps a bit-flipped header from driving a huge axis loop.
    if rank == 0 || rank > 64 {
        return Err(DecodeError::Corrupt);
    }
    let mut axes = Vec::with_capacity(rank as usize);
    let mut expected_len: usize = 1;
    for _ in 0..rank {
        let lo = r.f64().ok_or(DecodeError::Corrupt)?;
        let hi = r.f64().ok_or(DecodeError::Corrupt)?;
        let n = r.u64().ok_or(DecodeError::Corrupt)?;
        // The Axis contract (`lo < hi`, `n >= 2`), checked here so the
        // plain struct construction below can never build an invalid
        // axis from corrupt bytes.
        if !(lo.is_finite() && hi.is_finite() && lo < hi) || n < 2 {
            return Err(DecodeError::Corrupt);
        }
        let n = usize::try_from(n).map_err(|_| DecodeError::Corrupt)?;
        expected_len = expected_len.checked_mul(n).ok_or(DecodeError::Corrupt)?;
        axes.push(Axis { lo, hi, n });
    }
    let count = r.u64().ok_or(DecodeError::Corrupt)?;
    if count != expected_len as u64 {
        return Err(DecodeError::Corrupt);
    }
    let payload = r.take(expected_len.checked_mul(8).ok_or(DecodeError::Corrupt)?);
    let values = payload
        .and_then(f64s_from_le_bytes)
        .ok_or(DecodeError::Corrupt)?;
    // Trailing garbage between payload and checksum is also corruption.
    if r.pos != body.len() {
        return Err(DecodeError::Corrupt);
    }
    match kind {
        0 if axes.len() == 2 => {
            let grid = Grid2d {
                beta: axes[0],
                gamma: axes[1],
            };
            Ok(Landscape::from_values(grid, values).into())
        }
        1 => Ok(NdLandscape::from_values(TensorShape::new(axes), values).into()),
        _ => Err(DecodeError::Corrupt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_core::grid::Shape;
    use oscar_problems::ising::IsingProblem;
    use oscar_problems::workload::ProblemInstance;

    fn test_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("oscar-store-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> (LandscapeKey, Arc<ShapedLandscape>) {
        let problem = ProblemInstance::ising(IsingProblem::mesh(2, 3), 1);
        let grid = oscar_core::grid::Grid2d::small_p1(6, 8);
        let shape = Shape::Grid2d(grid);
        let key = LandscapeKey::exact(&problem, &shape);
        let landscape: ShapedLandscape =
            Landscape::generate(grid, |b, g| (3.0 * b).sin() * g + b).into();
        (key, Arc::new(landscape))
    }

    fn entry_file(dir: &Path) -> PathBuf {
        let mut entries: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == EXT))
            .collect();
        assert_eq!(entries.len(), 1, "expected exactly one entry in {dir:?}");
        entries.pop().unwrap()
    }

    #[test]
    fn f64_payload_roundtrip_is_bit_exact() {
        let values = [
            0.0,
            -0.0,
            1.5,
            -2.25e-308,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_0000_0000_1234), // NaN with payload
        ];
        let bytes = f64s_to_le_bytes(&values);
        assert_eq!(bytes.len(), values.len() * 8);
        let back = f64s_from_le_bytes(&bytes).unwrap();
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn f64_payload_rejects_ragged_lengths() {
        let bytes = f64s_to_le_bytes(&[1.0, 2.0]);
        for cut in [1, 7, 9, 15] {
            assert!(f64s_from_le_bytes(&bytes[..cut]).is_none());
        }
        assert_eq!(f64s_from_le_bytes(&[]), Some(vec![]));
    }

    #[test]
    fn save_flush_load_roundtrip_is_bit_exact() {
        let dir = test_dir("roundtrip");
        let store = LandscapeStore::open(&dir).unwrap();
        let (key, landscape) = sample();
        assert!(store.load(&key).is_none(), "cold store must miss");
        store.save(&key, &landscape);
        store.flush();
        let back = store.load(&key).expect("warm store must hit");
        assert_eq!(back.shape(), landscape.shape());
        let bits = |l: &ShapedLandscape| l.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&landscape));
        drop(store);
        // A fresh handle over the same directory (a "restart") hits too.
        let reopened = LandscapeStore::open(&dir).unwrap();
        let again = reopened.load(&key).expect("reopened store must hit");
        assert_eq!(bits(&again), bits(&landscape));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tensor_entries_roundtrip() {
        let dir = test_dir("tensor");
        let store = LandscapeStore::open(&dir).unwrap();
        let problem = ProblemInstance::ising(IsingProblem::mesh(2, 2), 2);
        let shape = Shape::qaoa(2, 3, 4);
        let key = LandscapeKey::exact(&problem, &shape);
        let Shape::Tensor(tensor) = &shape else {
            unreachable!("qaoa(2, ..) is tensor-shaped")
        };
        let landscape: Arc<ShapedLandscape> = Arc::new(
            NdLandscape::generate_indexed_par(tensor.clone(), |i, p| i as f64 + p[0]).into(),
        );
        store.save(&key, &landscape);
        store.flush();
        let back = store.load(&key).expect("tensor entry must load");
        assert_eq!(back.shape(), shape);
        assert_eq!(back.values(), landscape.values());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_flushes_pending_writes() {
        let dir = test_dir("drop-flush");
        {
            let store = LandscapeStore::open(&dir).unwrap();
            let (key, landscape) = sample();
            store.save(&key, &landscape);
            // No explicit flush: drop must drain the queue.
        }
        let store = LandscapeStore::open(&dir).unwrap();
        let (key, _) = sample();
        assert!(store.load(&key).is_some(), "drop must flush the write");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The corruption matrix: every damaged form of a valid entry must
    /// open as a clean miss and count `store.corrupt_entries`.
    #[test]
    fn corruption_matrix_degrades_to_misses() {
        let dir = test_dir("matrix");
        let store = LandscapeStore::open(&dir).unwrap();
        let (key, landscape) = sample();
        store.save(&key, &landscape);
        store.flush();
        let path = entry_file(&dir);
        let pristine = std::fs::read(&path).unwrap();

        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("zero-length file", Vec::new()),
            ("truncated header", pristine[..40].to_vec()),
            (
                "truncated payload",
                pristine[..pristine.len() - 24].to_vec(),
            ),
            ("bit-flipped checksum", {
                let mut b = pristine.clone();
                let last = b.len() - 1;
                b[last] ^= 0x01;
                b
            }),
            ("bit-flipped payload byte", {
                let mut b = pristine.clone();
                b[FIXED_HEADER + 60] ^= 0x80;
                b
            }),
            ("wrong magic", {
                let mut b = pristine.clone();
                b[0] = b'X';
                b
            }),
            ("unknown version", {
                let mut b = pristine.clone();
                b[8..12].copy_from_slice(&99u32.to_le_bytes());
                b
            }),
        ];
        for (name, mutated) in cases {
            std::fs::write(&path, &mutated).unwrap();
            let before = store_stats();
            assert!(store.load(&key).is_none(), "{name} must be a miss");
            let after = store_stats();
            assert!(
                after.corrupt_entries > before.corrupt_entries,
                "{name} must count store.corrupt_entries"
            );
            assert!(after.misses > before.misses, "{name} must count a miss");
        }

        // The pristine bytes still load (the matrix damaged copies).
        std::fs::write(&path, &pristine).unwrap();
        assert!(store.load(&key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_version_with_valid_checksum_is_still_rejected() {
        // A future-format entry whose checksum is internally consistent
        // must still read as a miss for this version of the code.
        let dir = test_dir("future-version");
        let store = LandscapeStore::open(&dir).unwrap();
        let (key, landscape) = sample();
        store.save(&key, &landscape);
        store.flush();
        let path = entry_file(&dir);
        let bytes = std::fs::read(&path).unwrap();
        let mut body = bytes[..bytes.len() - CHECKSUM].to_vec();
        body[8..12].copy_from_slice(&2u32.to_le_bytes());
        let mut h = Fingerprint::new();
        h.write_bytes(&body);
        body.extend_from_slice(&h.finish().to_le_bytes());
        std::fs::write(&path, &body).unwrap();
        let before = store_stats();
        assert!(store.load(&key).is_none());
        assert!(store_stats().corrupt_entries > before.corrupt_entries);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_is_a_miss_not_corruption() {
        let dir = test_dir("key-mismatch");
        let store = LandscapeStore::open(&dir).unwrap();
        let (key, landscape) = sample();
        store.save(&key, &landscape);
        store.flush();
        // Rename the (valid) entry to another key's filename: the open
        // verifies the embedded key block and must refuse to serve it.
        let other_problem = ProblemInstance::ising(IsingProblem::mesh(3, 3), 1);
        let other = LandscapeKey::exact(
            &other_problem,
            &Shape::Grid2d(oscar_core::grid::Grid2d::small_p1(6, 8)),
        );
        let from = entry_file(&dir);
        let to = dir.join(format!("{:032x}.{EXT}", other.store_hash()));
        std::fs::rename(&from, &to).unwrap();
        let before = store_stats();
        assert!(store.load(&other).is_none());
        let after = store_stats();
        assert!(after.misses > before.misses);
        assert_eq!(
            after.corrupt_entries, before.corrupt_entries,
            "a foreign valid entry is not corruption"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writes_count_and_write_errors_never_panic() {
        let dir = test_dir("counters");
        let store = LandscapeStore::open(&dir).unwrap();
        let (key, landscape) = sample();
        let before = store_stats();
        store.save(&key, &landscape);
        store.flush();
        assert!(store_stats().writes > before.writes);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

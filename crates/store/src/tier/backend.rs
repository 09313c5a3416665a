//! Storage backends for the cold tier: where sealed segments live when
//! they are not resident.
//!
//! A [`StorageBackend`] is a flat, keyed blob store — deliberately no
//! richer than `put`/`get`/`delete`, so a data file, an in-memory map
//! (deterministic tests) and a fault-injecting wrapper are all drop-in.
//! Every operation returns a typed [`StorageError`]; the scan fault path
//! (see [`crate::tier::scan`]) turns any of them into a clean query error
//! with no partial results.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Identifies one sealed segment: a run of blocks of one column of one
/// sealed table generation. Ids are allocated monotonically per table and
/// never reused, so a compacted-away segment's key can never be confused
/// with its replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentKey {
    /// Process-unique id of the owning [`crate::tier::TieredTable`] lineage.
    pub table: u64,
    /// Column the segment belongs to.
    pub dim: u32,
    /// Monotone per-table segment id.
    pub id: u64,
}

impl fmt::Display for SegmentKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{:x}.d{}.s{}", self.table, self.dim, self.id)
    }
}

/// Typed failure surfaced by the cold tier. Scans return it verbatim — no
/// panic, no partial results — and the serving layer retries or degrades
/// per the policy documented on [`crate::tier::TieredScan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The backend could not read or write the segment (I/O failure).
    Io {
        /// Segment the operation targeted.
        key: SegmentKey,
        /// Backend-specific description.
        detail: String,
    },
    /// The segment's bytes came back but failed validation — a short read,
    /// a checksum mismatch, or an inconsistent header.
    Corrupt {
        /// Segment whose payload failed validation.
        key: SegmentKey,
        /// What the codec rejected.
        detail: String,
    },
    /// The backend has no blob under this key.
    Missing {
        /// The absent segment.
        key: SegmentKey,
    },
    /// A failure not tied to one segment (e.g. the backing directory could
    /// not be created).
    Backend {
        /// Backend-specific description.
        detail: String,
    },
    /// An inserted row, or a query, whose column count is not the
    /// table's.
    Arity {
        /// The table's column count.
        expected: usize,
        /// Values the row carried, or columns the query reads.
        got: usize,
    },
    /// A writer panicked holding a server's build side (its write buffer),
    /// so inserts and compactions are refused; reads go on serving the
    /// published generation.
    BuildSidePoisoned,
}

impl StorageError {
    /// The segment the error is about, when it is about one.
    pub fn key(&self) -> Option<SegmentKey> {
        match self {
            StorageError::Io { key, .. }
            | StorageError::Corrupt { key, .. }
            | StorageError::Missing { key } => Some(*key),
            StorageError::Backend { .. }
            | StorageError::Arity { .. }
            | StorageError::BuildSidePoisoned => None,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { key, detail } => write!(f, "segment {key}: I/O error: {detail}"),
            StorageError::Corrupt { key, detail } => {
                write!(f, "segment {key}: corrupt payload: {detail}")
            }
            StorageError::Missing { key } => write!(f, "segment {key}: not found"),
            StorageError::Backend { detail } => write!(f, "storage backend error: {detail}"),
            StorageError::Arity { expected, got } => {
                write!(f, "{got} columns where the table has {expected}")
            }
            StorageError::BuildSidePoisoned => {
                write!(f, "build side poisoned: a writer panicked holding it")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// A keyed blob store holding sealed cold segments.
///
/// Implementations must be shareable across reader threads: scans on
/// different snapshots fault segments concurrently.
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// Store `bytes` under `key`, replacing any previous blob.
    fn put(&self, key: SegmentKey, bytes: &[u8]) -> Result<(), StorageError>;

    /// Fetch the blob under `key`.
    fn get(&self, key: SegmentKey) -> Result<Vec<u8>, StorageError>;

    /// Remove the blob under `key`. Removing an absent key is not an error
    /// (deletion is best-effort cleanup on segment retirement).
    fn delete(&self, key: SegmentKey) -> Result<(), StorageError>;
}

/// In-memory backend: a mutex-guarded map. The deterministic choice for
/// tests and the differential property suite — identical latency for every
/// segment, no OS page cache underneath.
#[derive(Debug, Default)]
pub struct MemBackend {
    blobs: Mutex<HashMap<SegmentKey, Arc<[u8]>>>,
}

impl MemBackend {
    /// An empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of blobs currently stored.
    pub fn blob_count(&self) -> usize {
        self.blobs.lock().expect("mem backend poisoned").len()
    }
}

impl StorageBackend for MemBackend {
    fn put(&self, key: SegmentKey, bytes: &[u8]) -> Result<(), StorageError> {
        self.blobs
            .lock()
            .expect("mem backend poisoned")
            .insert(key, bytes.into());
        Ok(())
    }

    fn get(&self, key: SegmentKey) -> Result<Vec<u8>, StorageError> {
        self.blobs
            .lock()
            .expect("mem backend poisoned")
            .get(&key)
            .map(|b| b.to_vec())
            .ok_or(StorageError::Missing { key })
    }

    fn delete(&self, key: SegmentKey) -> Result<(), StorageError> {
        self.blobs
            .lock()
            .expect("mem backend poisoned")
            .remove(&key);
        Ok(())
    }
}

/// Counter making concurrently created temp directories unique within the
/// process (the pid disambiguates across processes).
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Name of the one data file inside a [`FileBackend`]'s directory.
const DATA_FILE: &str = "segments.dat";

/// Name a reclaim copies the live blobs to before renaming it over
/// [`DATA_FILE`].
const RECLAIM_FILE: &str = "segments.dat.reclaim";

/// File-backed cold tier: every segment in one append-only data file,
/// `dir/segments.dat`, found through an in-memory index.
///
/// * **On disk** the file is only payload: blobs back to back, no header,
///   no framing. Where each one lives — `SegmentKey → (offset, len)` — is
///   held in memory next to the file handle, both behind one `RwLock`.
/// * **`get`** looks the key up under the read lock and does one
///   positioned read of exactly that blob; concurrent gets share the lock.
///   A read that comes back short returns the bytes it got, which the
///   segment codec rejects as [`StorageError::Corrupt`].
/// * **`put`** appends at the end of the file under the write lock; a
///   replaced key's old bytes, like a deleted key's, become *dead*.
/// * **Reclaim.** When dead bytes exceed live bytes, the live blobs are
///   copied into a fresh file that is renamed over the data file, and the
///   handle and offsets are swapped under the write lock. So the file
///   stays within 2 × live bytes + one blob, and the copying costs O(1)
///   amortised per byte deleted. The rule is fixed, not a setting.
/// * **One backend per directory, no reopen.** [`FileBackend::new`]
///   starts an empty data file, truncating any left behind: keys are
///   process-local and nothing records the index across a restart.
///
/// Positioned `pread`/`pwrite` rather than mmap: segment loads are
/// explicit, bounded, and accounted (the fault counters in
/// [`ScanStats`](crate::ScanStats) mean "this many disk reads"), which an
/// mmap'd page fault would hide.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    /// Created by [`FileBackend::new_temp`]: remove the directory on drop.
    owns_dir: bool,
    data: RwLock<DataFile>,
}

/// The data file and where each live blob sits in it.
#[derive(Debug)]
struct DataFile {
    file: File,
    /// Live blobs: `(offset, len)` in `file`.
    index: HashMap<SegmentKey, (u64, usize)>,
    /// Bytes of indexed blobs.
    live: u64,
    /// Bytes no key indexes any more. `live + dead` is the file's end.
    dead: u64,
}

/// Create (or truncate) `path` for positioned reads and writes.
fn create_data_file(path: &Path) -> std::io::Result<File> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
}

/// Read the `len` bytes at `off`, or as many as there are before the end
/// of the file: a blob cut short by a truncated file reads short.
fn read_blob(file: &File, off: u64, len: usize) -> std::io::Result<Vec<u8>> {
    let mut buf = vec![0; len];
    let mut got = 0;
    while got < len {
        match file.read_at(&mut buf[got..], off + got as u64) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    buf.truncate(got);
    Ok(buf)
}

impl DataFile {
    /// Count `key`'s blob, if it has one, as dead.
    fn unindex(&mut self, key: SegmentKey) {
        if let Some((_, len)) = self.index.remove(&key) {
            self.live -= len as u64;
            self.dead += len as u64;
        }
    }

    /// Once dead bytes exceed live ones, copy the live blobs in file order
    /// into a fresh file at `dir`, rename it over the data file and switch
    /// to it. On failure the current file and offsets stay as they were.
    fn reclaim_if_due(&mut self, dir: &Path) -> std::io::Result<()> {
        if self.dead <= self.live {
            return Ok(());
        }
        let mut blobs: Vec<(u64, usize, SegmentKey)> = self
            .index
            .iter()
            .map(|(&key, &(off, len))| (off, len, key))
            .collect();
        blobs.sort_unstable_by_key(|&(off, ..)| off);
        let tmp = dir.join(RECLAIM_FILE);
        let file = create_data_file(&tmp)?;
        let mut index = HashMap::with_capacity(blobs.len());
        let mut end = 0u64;
        for (off, len, key) in blobs {
            // A blob that already reads short is copied short.
            let bytes = read_blob(&self.file, off, len)?;
            file.write_all_at(&bytes, end)?;
            index.insert(key, (end, bytes.len()));
            end += bytes.len() as u64;
        }
        std::fs::rename(&tmp, dir.join(DATA_FILE))?;
        *self = DataFile {
            file,
            index,
            live: end,
            dead: 0,
        };
        Ok(())
    }
}

impl FileBackend {
    /// Use `dir` (created if needed) as a segment store, starting an empty
    /// `segments.dat` in it.
    pub fn new(dir: impl AsRef<Path>) -> Result<Self, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        let backend_err = |what: &str, path: &Path, e: std::io::Error| StorageError::Backend {
            detail: format!("{what} {}: {e}", path.display()),
        };
        std::fs::create_dir_all(&dir).map_err(|e| backend_err("create", &dir, e))?;
        let path = dir.join(DATA_FILE);
        let file = create_data_file(&path).map_err(|e| backend_err("open", &path, e))?;
        Ok(FileBackend {
            dir,
            owns_dir: false,
            data: RwLock::new(DataFile {
                file,
                index: HashMap::new(),
                live: 0,
                dead: 0,
            }),
        })
    }

    /// A process-unique temporary segment store under the system temp
    /// directory, removed (best-effort) when the backend drops.
    pub fn new_temp() -> Result<Self, StorageError> {
        let dir = std::env::temp_dir().join(format!(
            "flood-tier-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut b = FileBackend::new(&dir)?;
        b.owns_dir = true;
        Ok(b)
    }

    /// The directory the data file is stored in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn read(&self) -> RwLockReadGuard<'_, DataFile> {
        self.data
            .read()
            .expect("no thread panics holding the data file")
    }

    fn write(&self) -> RwLockWriteGuard<'_, DataFile> {
        self.data
            .write()
            .expect("no thread panics holding the data file")
    }
}

impl Drop for FileBackend {
    fn drop(&mut self) {
        if self.owns_dir {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// Map an I/O error on `key`'s behalf to [`StorageError::Io`].
fn io_error(key: SegmentKey) -> impl Fn(std::io::Error) -> StorageError {
    move |e| StorageError::Io {
        key,
        detail: e.to_string(),
    }
}

impl StorageBackend for FileBackend {
    fn put(&self, key: SegmentKey, bytes: &[u8]) -> Result<(), StorageError> {
        let mut data = self.write();
        let at = data.live + data.dead;
        data.file.write_all_at(bytes, at).map_err(io_error(key))?;
        data.unindex(key);
        data.index.insert(key, (at, bytes.len()));
        data.live += bytes.len() as u64;
        data.reclaim_if_due(&self.dir).map_err(io_error(key))
    }

    fn get(&self, key: SegmentKey) -> Result<Vec<u8>, StorageError> {
        let data = self.read();
        let &(off, len) = data.index.get(&key).ok_or(StorageError::Missing { key })?;
        read_blob(&data.file, off, len).map_err(io_error(key))
    }

    fn delete(&self, key: SegmentKey) -> Result<(), StorageError> {
        let mut data = self.write();
        data.unindex(key);
        data.reclaim_if_due(&self.dir).map_err(io_error(key))
    }
}

/// One planned fault for [`FailingBackend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Injection {
    /// Fail the load outright with [`StorageError::Io`].
    Error,
    /// Return only the first `keep` bytes of the blob (a short read), which
    /// the segment codec must reject as [`StorageError::Corrupt`].
    ShortRead(usize),
}

/// Fault-injecting wrapper used by the fault-injection test suites: fails
/// or truncates chosen segment *loads* (counted from 1) while passing
/// writes and deletes through untouched.
///
/// Lives in the crate proper (not `#[cfg(test)]`) because the integration
/// suites in `tests/` and the serve-layer policy tests need it; it carries
/// no overhead for production callers who simply never construct one.
#[derive(Debug)]
pub struct FailingBackend {
    inner: Arc<dyn StorageBackend>,
    /// Planned injections keyed by load ordinal (1-based).
    planned: Mutex<HashMap<u64, Injection>>,
    loads: AtomicU64,
    injected: AtomicU64,
}

impl FailingBackend {
    /// Wrap `inner`, initially injecting nothing.
    pub fn new(inner: Arc<dyn StorageBackend>) -> Self {
        FailingBackend {
            inner,
            planned: Mutex::new(HashMap::new()),
            loads: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Make the `nth` upcoming load (1 = the very next one, counted from
    /// the backend's creation) fail with an I/O error.
    pub fn fail_load(&self, nth: u64) {
        self.planned
            .lock()
            .expect("fault plan poisoned")
            .insert(self.loads.load(Ordering::SeqCst) + nth, Injection::Error);
    }

    /// Make the `nth` upcoming load return only the first `keep` bytes.
    pub fn short_read_load(&self, nth: u64, keep: usize) {
        self.planned.lock().expect("fault plan poisoned").insert(
            self.loads.load(Ordering::SeqCst) + nth,
            Injection::ShortRead(keep),
        );
    }

    /// Total loads attempted through this wrapper.
    pub fn loads(&self) -> u64 {
        self.loads.load(Ordering::SeqCst)
    }

    /// Faults actually injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }
}

impl StorageBackend for FailingBackend {
    fn put(&self, key: SegmentKey, bytes: &[u8]) -> Result<(), StorageError> {
        self.inner.put(key, bytes)
    }

    fn get(&self, key: SegmentKey) -> Result<Vec<u8>, StorageError> {
        let ordinal = self.loads.fetch_add(1, Ordering::SeqCst) + 1;
        let injection = self
            .planned
            .lock()
            .expect("fault plan poisoned")
            .remove(&ordinal);
        match injection {
            Some(Injection::Error) => {
                self.injected.fetch_add(1, Ordering::SeqCst);
                Err(StorageError::Io {
                    key,
                    detail: format!("injected failure at load {ordinal}"),
                })
            }
            Some(Injection::ShortRead(keep)) => {
                self.injected.fetch_add(1, Ordering::SeqCst);
                let mut bytes = self.inner.get(key)?;
                bytes.truncate(keep);
                Ok(bytes)
            }
            None => self.inner.get(key),
        }
    }

    fn delete(&self, key: SegmentKey) -> Result<(), StorageError> {
        self.inner.delete(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flood_testkit::Lcg;

    fn key(id: u64) -> SegmentKey {
        SegmentKey {
            table: 7,
            dim: 1,
            id,
        }
    }

    #[test]
    fn mem_backend_roundtrip_and_missing() {
        let b = MemBackend::new();
        b.put(key(0), &[1, 2, 3]).unwrap();
        assert_eq!(b.get(key(0)).unwrap(), vec![1, 2, 3]);
        assert_eq!(b.get(key(1)), Err(StorageError::Missing { key: key(1) }));
        b.delete(key(0)).unwrap();
        assert_eq!(b.get(key(0)), Err(StorageError::Missing { key: key(0) }));
        // Deleting an absent key is fine.
        b.delete(key(0)).unwrap();
    }

    #[test]
    fn file_backend_roundtrip_and_temp_cleanup() {
        let b = FileBackend::new_temp().unwrap();
        let dir = b.dir().to_path_buf();
        b.put(key(3), &[9; 100]).unwrap();
        b.put(key(5), &[7; 50]).unwrap();
        assert_eq!(b.get(key(3)).unwrap(), vec![9; 100]);
        assert!(matches!(b.get(key(4)), Err(StorageError::Missing { .. })));
        b.delete(key(3)).unwrap();
        b.delete(key(3)).unwrap();
        assert_eq!(b.get(key(3)), Err(StorageError::Missing { key: key(3) }));
        assert_eq!(b.get(key(5)).unwrap(), vec![7; 50]);
        drop(b);
        assert!(!dir.exists(), "temp dir must be removed on drop");
    }

    /// A blob that names its key and version, so a reader can tell an
    /// exact copy from a torn or misplaced one. Lengths vary by version.
    fn blob(id: u64, version: u64) -> Vec<u8> {
        let len = 16 + (id * 131 + version * 977) as usize % 3_000;
        let mut b = Vec::with_capacity(len);
        b.extend_from_slice(&id.to_le_bytes());
        b.extend_from_slice(&version.to_le_bytes());
        b.extend((16..len).map(|i| (i as u64 ^ id ^ version.rotate_left(7)) as u8));
        b
    }

    fn data_file_len(b: &FileBackend) -> u64 {
        std::fs::metadata(b.dir().join(DATA_FILE)).unwrap().len()
    }

    #[test]
    fn file_backend_put_replace_get_is_byte_exact() {
        let b = FileBackend::new_temp().unwrap();
        b.put(key(0), &blob(0, 0)).unwrap();
        b.put(key(1), &blob(1, 0)).unwrap();
        b.put(key(0), &blob(0, 1)).unwrap();
        b.put(key(2), &[]).unwrap();
        assert_eq!(b.get(key(0)).unwrap(), blob(0, 1));
        assert_eq!(b.get(key(1)).unwrap(), blob(1, 0));
        assert_eq!(b.get(key(2)).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn file_backend_reclaim_bounds_the_file_and_keeps_every_live_blob() {
        let b = FileBackend::new_temp().unwrap();
        // Live keys → (version, blob length).
        let mut live: HashMap<u64, (u64, u64)> = HashMap::new();
        let (mut live_bytes, mut largest) = (0, 0);
        let mut rng = Lcg::new(0x5eed, 0);
        for version in 0..10_000u64 {
            let s = rng.next_u64();
            let id = (s >> 33) % 300;
            if let Some((_, len)) = live.remove(&id) {
                live_bytes -= len;
            }
            if (s >> 20) % 3 == 0 {
                b.delete(key(id)).unwrap();
            } else {
                let bytes = blob(id, version);
                let len = bytes.len() as u64;
                b.put(key(id), &bytes).unwrap();
                live.insert(id, (version, len));
                (live_bytes, largest) = (live_bytes + len, largest.max(len));
            }
            assert!(
                data_file_len(&b) <= 2 * live_bytes + largest,
                "op {version}: file {} B, live {live_bytes} B",
                data_file_len(&b)
            );
        }
        for (&id, &(version, _)) in &live {
            assert_eq!(b.get(key(id)).unwrap(), blob(id, version), "key {id}");
        }
    }

    #[test]
    fn file_backend_concurrent_gets_are_never_torn() {
        const KEYS: u64 = 16;
        let b = Arc::new(FileBackend::new_temp().unwrap());
        for id in 0..KEYS {
            b.put(key(id), &blob(id, 0)).unwrap();
        }
        let writer = {
            let b = b.clone();
            std::thread::spawn(move || {
                for version in 0..4_000u64 {
                    let id = version % KEYS;
                    if version % 5 == 4 {
                        b.delete(key(id)).unwrap();
                    } else {
                        b.put(key(id), &blob(id, version)).unwrap();
                    }
                }
            })
        };
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let b = b.clone();
                std::thread::spawn(move || {
                    for i in 0..20_000u64 {
                        let id = (i * 7 + r) % KEYS;
                        match b.get(key(id)) {
                            Ok(got) => {
                                let version = u64::from_le_bytes(got[8..16].try_into().unwrap());
                                assert_eq!(got, blob(id, version), "key {id}: torn read");
                            }
                            Err(e) => assert_eq!(e, StorageError::Missing { key: key(id) }),
                        }
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn file_backend_new_starts_empty_over_an_old_data_file() {
        let old = FileBackend::new_temp().unwrap();
        old.put(key(0), &blob(0, 0)).unwrap();
        assert!(data_file_len(&old) > 0);
        let fresh = FileBackend::new(old.dir()).unwrap();
        assert_eq!(data_file_len(&fresh), 0);
        assert_eq!(
            fresh.get(key(0)),
            Err(StorageError::Missing { key: key(0) })
        );
        fresh.put(key(1), &blob(1, 0)).unwrap();
        assert_eq!(fresh.get(key(1)).unwrap(), blob(1, 0));
    }

    #[test]
    fn failing_backend_injects_at_chosen_loads() {
        let inner = Arc::new(MemBackend::new());
        inner.put(key(0), &[1, 2, 3, 4]).unwrap();
        let b = FailingBackend::new(inner);
        b.fail_load(2);
        b.short_read_load(3, 1);
        assert_eq!(b.get(key(0)).unwrap(), vec![1, 2, 3, 4]);
        assert!(matches!(b.get(key(0)), Err(StorageError::Io { .. })));
        assert_eq!(b.get(key(0)).unwrap(), vec![1]);
        assert_eq!(b.get(key(0)).unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(b.loads(), 4);
        assert_eq!(b.injected(), 2);
    }

    #[test]
    fn error_display_names_the_segment() {
        let e = StorageError::Corrupt {
            key: key(5),
            detail: "checksum mismatch".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("t7.d1.s5"), "{msg}");
        assert!(msg.contains("checksum"), "{msg}");
        assert_eq!(e.key(), Some(key(5)));
    }
}

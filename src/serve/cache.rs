//! The self-healing content-addressed artifact cache behind `dcnserve`.
//!
//! Results are keyed by what they *are*, not when they were computed: a
//! [`CacheKey`] combines the topology fingerprint (FNV-1a over the full
//! structure), the simulator-config fingerprint, the fault-plan digest —
//! the same provenance fields run manifests record — and an FNV-1a digest
//! of the canonicalized request config (covering workload, seed, λ,
//! window: everything the other three don't). Two requests with the same
//! key would simulate the identical experiment, so one result serves
//! both.
//!
//! Entries are **checksummed on every read** and written atomically via
//! [`dcn_core::write_atomic`]. The on-disk format is
//!
//! ```text
//! magic "DCNCACHE1" | payload len u64 LE | payload | FNV-1a of all prior bytes
//! ```
//!
//! A truncated, bit-flipped, or otherwise damaged entry is *quarantined*
//! — moved into `quarantine/` for post-mortem, never deleted silently,
//! never served — and the lookup reports a miss so the daemon
//! transparently recomputes. Corruption is an availability event, not a
//! correctness one.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dcn_core::failpoint;

/// Quarantined entries kept for post-mortem before oldest-first pruning
/// kicks in. Corruption evidence is valuable but finite: a bit-rotting
/// disk must not be able to grow `quarantine/` without bound.
pub const QUARANTINE_MAX: usize = 32;

const MAGIC: &[u8; 9] = b"DCNCACHE1";
/// On-disk entry format version (the digit in [`MAGIC`]); reported by the
/// daemon's `stats` op so operators can tell what a state dir holds.
pub const FORMAT_VERSION: u32 = 1;
/// magic + payload length.
const HEADER_LEN: usize = 9 + 8;

/// FNV-1a over a byte string — the workspace's standard content hash
/// (topology fingerprints and checkpoint checksums use the same one).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The identity of one experiment result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`Topology::fingerprint`](dcn_topology::Topology::fingerprint).
    pub topo: u64,
    /// [`config_fingerprint`](dcn_sim::config_fingerprint) of the `SimConfig`.
    pub sim_cfg: u64,
    /// [`FaultPlan::digest`](dcn_sim::FaultPlan::digest), 0 when faultless.
    pub faults: u64,
    /// FNV-1a of the canonicalized request config JSON.
    pub request: u64,
    /// [`dcn_sim::checkpoint::VERSION`] of the engine that computed the
    /// result, so a state dir filled by an older engine is not served.
    pub engine: u32,
}

impl CacheKey {
    /// The entry's file stem: 16 hex digits of the combined hash.
    pub fn hex(&self) -> String {
        let mut buf = [0u8; 36];
        buf[..8].copy_from_slice(&self.topo.to_le_bytes());
        buf[8..16].copy_from_slice(&self.sim_cfg.to_le_bytes());
        buf[16..24].copy_from_slice(&self.faults.to_le_bytes());
        buf[24..32].copy_from_slice(&self.request.to_le_bytes());
        buf[32..].copy_from_slice(&self.engine.to_le_bytes());
        format!("{:016x}", fnv1a(&buf))
    }
}

/// Outcome of a cache read.
#[derive(Debug, PartialEq, Eq)]
pub enum Lookup {
    /// A verified entry: these bytes are exactly what was stored.
    Hit(Vec<u8>),
    /// No entry for this key.
    Miss,
    /// An entry existed but failed verification; it has been moved to
    /// quarantine and the caller must recompute.
    Quarantined(String),
}

/// Read-side counters, exported through the daemon's `stats` op.
#[derive(Debug, Default)]
pub struct CacheStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub stores: AtomicU64,
    pub quarantined: AtomicU64,
    /// Entries removed by the `max_bytes` LRU bound.
    pub evicted: AtomicU64,
    /// Quarantined files pruned by the [`QUARANTINE_MAX`] count cap.
    pub quarantine_pruned: AtomicU64,
}

/// A directory of checksummed result artifacts.
pub struct ArtifactCache {
    dir: PathBuf,
    /// Total on-disk entry bytes the cache may hold; `None` = unbounded.
    max_bytes: Option<u64>,
    /// LRU bookkeeping: entry file name → last-touch stamp from `clock`.
    /// In-memory only — after a daemon restart, untouched entries rank by
    /// file mtime until read or stored again.
    recency: Mutex<HashMap<String, u64>>,
    clock: AtomicU64,
    pub stats: CacheStats,
}

impl ArtifactCache {
    /// Opens (creating if needed) the cache directory and its
    /// `quarantine/` sibling, with no size bound.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ArtifactCache> {
        Self::open_bounded(dir, None)
    }

    /// [`ArtifactCache::open`] with an LRU size bound: after every store,
    /// least-recently-used entries are evicted until total entry bytes
    /// fit in `max_bytes` (the just-stored entry is always kept, even if
    /// it alone exceeds the bound — serving it beats thrashing).
    pub fn open_bounded(
        dir: impl Into<PathBuf>,
        max_bytes: Option<u64>,
    ) -> io::Result<ArtifactCache> {
        let dir = dir.into();
        std::fs::create_dir_all(dir.join("quarantine"))?;
        Ok(ArtifactCache {
            dir,
            max_bytes,
            recency: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(1),
            stats: CacheStats::default(),
        })
    }

    /// Records a touch of `path` for LRU ranking.
    fn touch(&self, path: &Path) {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            return;
        };
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut map = self.recency.lock().unwrap_or_else(|e| e.into_inner());
        map.insert(name.to_string(), stamp);
    }

    /// Path of the entry for `key`.
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.res", key.hex()))
    }

    /// Where a corrupt entry for `key` ends up.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Verifies and decodes one entry image.
    fn decode(data: &[u8]) -> Result<Vec<u8>, String> {
        if data.len() < HEADER_LEN + 8 {
            return Err("entry truncated: shorter than header".into());
        }
        if &data[..9] != MAGIC {
            return Err("bad magic".into());
        }
        let len = u64::from_le_bytes(data[9..17].try_into().unwrap()) as usize;
        let want_total = HEADER_LEN + len + 8;
        if data.len() != want_total {
            return Err(format!(
                "entry length mismatch: header says {want_total} bytes, file has {}",
                data.len()
            ));
        }
        let body = &data[..data.len() - 8];
        let want = u64::from_le_bytes(data[data.len() - 8..].try_into().unwrap());
        if fnv1a(body) != want {
            return Err("checksum mismatch".into());
        }
        Ok(data[HEADER_LEN..HEADER_LEN + len].to_vec())
    }

    /// Looks `key` up, verifying the checksum before trusting a byte. A
    /// damaged entry is renamed into `quarantine/` (a unique name, so
    /// repeated corruption never overwrites evidence) and reported as
    /// [`Lookup::Quarantined`].
    pub fn load(&self, key: &CacheKey) -> Lookup {
        let path = self.entry_path(key);
        let data = match failpoint::fail_io("cache.read").and_then(|()| std::fs::read(&path)) {
            Ok(d) => d,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return Lookup::Miss;
            }
            Err(e) => {
                // Unreadable is as good as corrupt: fail toward recompute.
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return Lookup::Quarantined(format!("read {}: {e}", path.display()));
            }
        };
        match Self::decode(&data) {
            Ok(bytes) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                self.touch(&path);
                Lookup::Hit(bytes)
            }
            Err(why) => {
                let n = self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                let dest = self
                    .quarantine_dir()
                    .join(format!("{}.{}.res", key.hex(), n));
                let moved = failpoint::fail_io("cache.quarantine")
                    .and_then(|()| std::fs::rename(&path, &dest));
                let note = match moved {
                    Ok(()) => format!("{why}; quarantined to {}", dest.display()),
                    Err(e) => {
                        // Cannot move it aside: remove so it is never
                        // re-read as truth.
                        let _ = std::fs::remove_file(&path);
                        format!("{why}; quarantine rename failed ({e}), entry removed")
                    }
                };
                self.prune_quarantine();
                Lookup::Quarantined(note)
            }
        }
    }

    /// Stores `payload` under `key`, atomically (temporary + fsync +
    /// rename + parent fsync), so a crash mid-store leaves either the old
    /// entry or the new one — never a torn file. When a `max_bytes` bound
    /// is set, least-recently-used entries are evicted afterwards until
    /// the cache fits.
    pub fn store(&self, key: &CacheKey, payload: &[u8]) -> io::Result<()> {
        let mut image = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
        image.extend_from_slice(MAGIC);
        image.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        image.extend_from_slice(payload);
        let sum = fnv1a(&image);
        image.extend_from_slice(&sum.to_le_bytes());
        let path = self.entry_path(key);
        failpoint::fail_io("cache.store")?;
        dcn_core::write_atomic(&path, &image)?;
        self.stats.stores.fetch_add(1, Ordering::Relaxed);
        self.touch(&path);
        if self.max_bytes.is_some() {
            self.evict_to_bound(&path);
        }
        Ok(())
    }

    /// Evicts least-recently-used entries until total entry bytes fit in
    /// the bound, never touching `keep` (the entry just stored). Eviction
    /// is a plain unlink: entries are immutable once renamed into place,
    /// so removal is atomic and a concurrent reader either got the whole
    /// file or sees a miss.
    fn evict_to_bound(&self, keep: &Path) {
        let Some(bound) = self.max_bytes else { return };
        // Rank: recency stamp if the entry was touched this process
        // lifetime, else 0 — cold restarts rank untouched entries oldest,
        // tie-broken by mtime so pre-restart entries still age out
        // oldest-first.
        let map = self.recency.lock().unwrap_or_else(|e| e.into_inner());
        let mut entries: Vec<(u64, std::time::SystemTime, u64, PathBuf)> = Vec::new();
        let mut total = 0u64;
        for p in entry_paths(&self.dir) {
            let Ok(md) = std::fs::metadata(&p) else {
                continue;
            };
            total += md.len();
            let stamp = p
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| map.get(n).copied())
                .unwrap_or(0);
            let mtime = md.modified().unwrap_or(std::time::UNIX_EPOCH);
            entries.push((stamp, mtime, md.len(), p));
        }
        drop(map);
        if total <= bound {
            return;
        }
        entries.sort();
        for (_, _, len, path) in entries {
            if total <= bound {
                break;
            }
            if path == keep {
                continue;
            }
            if std::fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                self.stats.evicted.fetch_add(1, Ordering::Relaxed);
                if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                    let mut map = self.recency.lock().unwrap_or_else(|e| e.into_inner());
                    map.remove(name);
                }
            }
        }
    }

    /// Caps `quarantine/` at [`QUARANTINE_MAX`] files, pruning
    /// oldest-first (mtime, then name). Called after every quarantine so
    /// a bit-rotting disk cannot grow the evidence directory forever.
    fn prune_quarantine(&self) {
        let Ok(rd) = std::fs::read_dir(self.quarantine_dir()) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, PathBuf)> = rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .map(|p| {
                let mtime = std::fs::metadata(&p)
                    .and_then(|md| md.modified())
                    .unwrap_or(std::time::UNIX_EPOCH);
                (mtime, p)
            })
            .collect();
        if files.len() <= QUARANTINE_MAX {
            return;
        }
        files.sort();
        let excess = files.len() - QUARANTINE_MAX;
        for (_, p) in files.into_iter().take(excess) {
            if std::fs::remove_file(&p).is_ok() {
                self.stats.quarantine_pruned.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// `(entries, payload bytes)` currently on disk — a directory walk,
    /// so called at stats/metrics render time, never on the serve path.
    pub fn disk_usage(&self) -> (u64, u64) {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for p in entry_paths(&self.dir) {
            if let Ok(md) = std::fs::metadata(&p) {
                entries += 1;
                bytes += md.len();
            }
        }
        (entries, bytes)
    }

    /// Number of quarantined files on disk (test/debug visibility).
    pub fn quarantined_on_disk(&self) -> usize {
        std::fs::read_dir(self.quarantine_dir())
            .map(|it| it.count())
            .unwrap_or(0)
    }
}

/// `Path`-taking convenience used by tests and the CI gate.
pub fn entry_paths(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "res"))
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Failpoint state is process-global: tests that arm `cache.*` sites
    /// must not interleave with tests that call `store`/`load`, so every
    /// test in this module serializes on this lock.
    static FP_LOCK: Mutex<()> = Mutex::new(());

    fn fp_lock() -> std::sync::MutexGuard<'static, ()> {
        FP_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn key(n: u64) -> CacheKey {
        CacheKey {
            topo: n,
            sim_cfg: n ^ 1,
            faults: 0,
            request: n.wrapping_mul(7),
            engine: dcn_sim::checkpoint::VERSION,
        }
    }

    fn fresh(name: &str) -> ArtifactCache {
        let dir =
            std::env::temp_dir().join(format!("dcnserve_cache_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactCache::open(dir).unwrap()
    }

    #[test]
    fn store_then_load_roundtrips() {
        let _g = fp_lock();
        let c = fresh("roundtrip");
        let k = key(1);
        assert_eq!(c.load(&k), Lookup::Miss);
        c.store(&k, b"{\"avg_fct_ms\": 1.5}\n").unwrap();
        assert_eq!(c.load(&k), Lookup::Hit(b"{\"avg_fct_ms\": 1.5}\n".to_vec()));
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let _g = fp_lock();
        let c = fresh("keys");
        c.store(&key(1), b"one").unwrap();
        c.store(&key(2), b"two").unwrap();
        assert_eq!(c.load(&key(1)), Lookup::Hit(b"one".to_vec()));
        assert_eq!(c.load(&key(2)), Lookup::Hit(b"two".to_vec()));
        // Any single component changing changes the key.
        let base = key(1);
        for k in [
            CacheKey { topo: 99, ..base },
            CacheKey {
                sim_cfg: 99,
                ..base
            },
            CacheKey { faults: 99, ..base },
            CacheKey {
                request: 99,
                ..base
            },
        ] {
            assert_ne!(k.hex(), base.hex());
        }
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn engine_version_is_part_of_the_key() {
        let base = key(1);
        let older = CacheKey {
            engine: base.engine - 1,
            ..base
        };
        assert_ne!(older.hex(), base.hex());
    }

    #[test]
    fn bit_flip_quarantines_and_recovers() {
        let _g = fp_lock();
        let c = fresh("bitflip");
        let k = key(3);
        c.store(&k, b"the truth").unwrap();
        let path = c.entry_path(&k);
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x40;
        std::fs::write(&path, &data).unwrap();

        match c.load(&k) {
            Lookup::Quarantined(why) => assert!(why.contains("quarantined"), "{why}"),
            other => panic!("corrupt entry served: {other:?}"),
        }
        assert!(!path.exists(), "corrupt entry must leave the serving path");
        assert_eq!(c.quarantined_on_disk(), 1);
        // Self-healing: the recomputed result stores and serves again.
        c.store(&k, b"the truth").unwrap();
        assert_eq!(c.load(&k), Lookup::Hit(b"the truth".to_vec()));
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn truncation_and_bad_magic_quarantine() {
        let _g = fp_lock();
        let c = fresh("trunc");
        let k = key(4);
        c.store(&k, b"0123456789").unwrap();
        let path = c.entry_path(&k);
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        assert!(matches!(c.load(&k), Lookup::Quarantined(_)));

        c.store(&k, b"0123456789").unwrap();
        let mut data = std::fs::read(c.entry_path(&k)).unwrap();
        data[0] = b'X';
        std::fs::write(c.entry_path(&k), &data).unwrap();
        assert!(matches!(c.load(&k), Lookup::Quarantined(_)));
        assert_eq!(c.quarantined_on_disk(), 2, "evidence never overwritten");
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn empty_and_header_only_files_quarantine() {
        let _g = fp_lock();
        let c = fresh("tiny");
        let k = key(5);
        std::fs::write(c.entry_path(&k), b"").unwrap();
        assert!(matches!(c.load(&k), Lookup::Quarantined(_)));
        std::fs::write(c.entry_path(&k), MAGIC).unwrap();
        assert!(matches!(c.load(&k), Lookup::Quarantined(_)));
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    fn fresh_bounded(name: &str, max_bytes: u64) -> ArtifactCache {
        let dir =
            std::env::temp_dir().join(format!("dcnserve_cache_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactCache::open_bounded(dir, Some(max_bytes)).unwrap()
    }

    #[test]
    fn lru_bound_evicts_least_recently_used() {
        let _g = fp_lock();
        // Each entry: 9 magic + 8 len + 8 payload + 8 checksum = 33 bytes.
        // Bound of 70 holds two entries, not three.
        let c = fresh_bounded("lru", 70);
        c.store(&key(1), b"aaaaaaaa").unwrap();
        c.store(&key(2), b"bbbbbbbb").unwrap();
        // Touch entry 1 so entry 2 becomes the LRU victim.
        assert!(matches!(c.load(&key(1)), Lookup::Hit(_)));
        c.store(&key(3), b"cccccccc").unwrap();
        assert_eq!(c.stats.evicted.load(Ordering::Relaxed), 1);
        assert!(
            matches!(c.load(&key(1)), Lookup::Hit(_)),
            "recently used survives"
        );
        assert_eq!(c.load(&key(2)), Lookup::Miss, "LRU entry evicted");
        assert!(
            matches!(c.load(&key(3)), Lookup::Hit(_)),
            "just-stored survives"
        );
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn lru_bound_never_evicts_the_entry_just_stored() {
        let _g = fp_lock();
        let c = fresh_bounded("lru_keep", 10); // smaller than any one entry
        c.store(&key(1), b"payload that exceeds the whole bound")
            .unwrap();
        assert!(matches!(c.load(&key(1)), Lookup::Hit(_)));
        // Storing a second oversize entry evicts the first, keeps itself.
        c.store(&key(2), b"another oversized payload").unwrap();
        assert_eq!(c.load(&key(1)), Lookup::Miss);
        assert!(matches!(c.load(&key(2)), Lookup::Hit(_)));
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn quarantine_directory_is_bounded() {
        let _g = fp_lock();
        let c = fresh("qbound");
        let k = key(6);
        for _ in 0..(QUARANTINE_MAX + 5) {
            c.store(&k, b"good bytes").unwrap();
            let path = c.entry_path(&k);
            let mut data = std::fs::read(&path).unwrap();
            let mid = data.len() / 2;
            data[mid] ^= 0xff;
            std::fs::write(&path, &data).unwrap();
            assert!(matches!(c.load(&k), Lookup::Quarantined(_)));
        }
        assert!(
            c.quarantined_on_disk() <= QUARANTINE_MAX,
            "quarantine grew past the cap: {}",
            c.quarantined_on_disk()
        );
        assert!(c.stats.quarantine_pruned.load(Ordering::Relaxed) >= 5);
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn injected_store_failure_leaves_cache_servable() {
        let _g = fp_lock();
        let c = fresh("fp_store");
        let k = key(7);
        c.store(&k, b"original").unwrap();
        failpoint::configure("cache.store", "enospc");
        let err = c.store(&k, b"replacement").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        failpoint::disarm("cache.store");
        // The failed store never touched the existing entry.
        assert_eq!(c.load(&k), Lookup::Hit(b"original".to_vec()));
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn injected_read_failure_reports_quarantined_not_panic() {
        let _g = fp_lock();
        let c = fresh("fp_read");
        let k = key(8);
        c.store(&k, b"bytes").unwrap();
        failpoint::configure("cache.read", "err");
        match c.load(&k) {
            Lookup::Quarantined(why) => assert!(why.contains("injected"), "{why}"),
            other => panic!("expected quarantined-style miss, got {other:?}"),
        }
        failpoint::disarm("cache.read");
        // The entry itself is intact once the fault clears.
        assert_eq!(c.load(&k), Lookup::Hit(b"bytes".to_vec()));
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn injected_quarantine_rename_failure_still_heals() {
        let _g = fp_lock();
        let c = fresh("fp_quar");
        let k = key(9);
        c.store(&k, b"truth").unwrap();
        let path = c.entry_path(&k);
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x20;
        std::fs::write(&path, &data).unwrap();
        failpoint::configure("cache.quarantine", "err");
        match c.load(&k) {
            Lookup::Quarantined(why) => assert!(why.contains("entry removed"), "{why}"),
            other => panic!("corrupt entry served: {other:?}"),
        }
        failpoint::disarm("cache.quarantine");
        assert!(
            !path.exists(),
            "corrupt entry must leave the serving path even unquarantined"
        );
        c.store(&k, b"truth").unwrap();
        assert_eq!(c.load(&k), Lookup::Hit(b"truth".to_vec()));
        let _ = std::fs::remove_dir_all(&c.dir);
    }
}

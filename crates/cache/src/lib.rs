//! # jsmt-cache
//!
//! Persistent, content-addressed, self-healing result cache.
//!
//! ROADMAP item 2's exit criterion is "any cell ever simulated anywhere
//! is never simulated again". This crate is the *anywhere*: a flat
//! on-disk store of experiment cell results, keyed by the FNV-1a content
//! hash of a [`CacheKey`] (config fingerprint, workload label, seed),
//! read and written by the grid executor on either of its transports
//! and shared by every run pointed at the same directory.
//!
//! ## Trust model: verify everything, heal everything
//!
//! Multi-process I/O produces torn writes, truncated files, and flipped
//! bits, so no entry is ever trusted:
//!
//! * every entry is written through [`jsmt_faults::fsio::persist`]
//!   (temp file + fsync + atomic rename), under the fault plan's
//!   `cache` target so `cache-corrupt` / `cache-torn-write` /
//!   `io-error,target=cache` drills bite exactly here;
//! * every read re-verifies the snapshot seal (magic, version, kind,
//!   FNV-1a checksum) *and* that the stored key equals the requested
//!   key, so a hash collision can never serve the wrong cell;
//! * a corrupt or torn entry is **quarantined** — renamed aside to
//!   `<entry>.quarantine-<n>`, appended to the `quarantine.log`
//!   manifest in the cache directory — and reported as a miss, so the
//!   caller transparently recomputes and re-stores it. Corruption is
//!   never trusted, and never fatal.
//!
//! A cache store failure (disk full, injected `io-error`) is also
//! non-fatal: the cache is an accelerator, and a run that cannot
//! persist results must still produce them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use jsmt_snapshot::{fnv64, open, seal, Reader, SnapshotError, Writer};

/// Snapshot kind tag of a cache entry (1 = system, 2 = retired grid
/// checkpoint, 3 = crash bundle, 4 = cache entry).
pub const KIND_CACHE_ENTRY: u32 = 4;

/// Name of the append-only quarantine manifest kept in the cache
/// directory: one `entry-file,reason` line per quarantined entry.
pub const QUARANTINE_LOG: &str = "quarantine.log";

/// Identity of one cached cell result.
///
/// The `fingerprint` folds in everything about the simulator and the
/// experiment configuration that affects cell bytes (scale, repeats,
/// and a cache epoch bumped when simulation semantics change); the
/// `workload` names the cell (`solo:jess`, `pair:compress+db`); the
/// `seed` is the master seed. Together they content-address the result:
/// equal key, equal bytes — on any machine, in any process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// Configuration fingerprint (see [`CacheKey`]).
    pub fingerprint: u64,
    /// Workload label, e.g. `solo:jess` or `pair:compress+db`.
    pub workload: String,
    /// Master seed the cell was simulated with.
    pub seed: u64,
}

impl CacheKey {
    /// The FNV-1a content hash addressing this key's entry file.
    pub fn content_hash(&self) -> u64 {
        let mut bytes = Vec::with_capacity(16 + self.workload.len() + 1);
        bytes.extend_from_slice(&self.fingerprint.to_le_bytes());
        bytes.extend_from_slice(self.workload.as_bytes());
        // NUL separator: ("a", seed) and ("a\x01", seed') can't collide
        // by concatenation because workload labels never contain NUL.
        bytes.push(0);
        bytes.extend_from_slice(&self.seed.to_le_bytes());
        fnv64(&bytes)
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@seed={:#x}/cfg={:016x}",
            self.workload, self.seed, self.fingerprint
        )
    }
}

/// Monotonic counters describing one process's view of a [`Cache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups issued.
    pub lookups: u64,
    /// Lookups served from a verified entry.
    pub hits: u64,
    /// Lookups that found no usable entry (absent, quarantined, or
    /// collided).
    pub misses: u64,
    /// Entries persisted.
    pub stores: u64,
    /// Stores that failed (non-fatal; the result was still returned).
    pub store_errors: u64,
    /// Entries quarantined because the seal or key check failed.
    pub quarantined: u64,
    /// Lookups that hit a different key's entry under the same content
    /// hash (the entry is left in place; such a key is simply never
    /// cacheable).
    pub collisions: u64,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lookups={} hits={} misses={} stores={} store_errors={} quarantined={} collisions={}",
            self.lookups,
            self.hits,
            self.misses,
            self.stores,
            self.store_errors,
            self.quarantined,
            self.collisions
        )
    }
}

#[derive(Default)]
struct Counters {
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    store_errors: AtomicU64,
    quarantined: AtomicU64,
    collisions: AtomicU64,
}

/// A persistent result cache rooted at one directory.
///
/// Thread-safe: share it behind an `Arc` across engine worker threads;
/// separate processes open the same directory independently and
/// coordinate only through atomic renames.
pub struct Cache {
    dir: PathBuf,
    counters: Counters,
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Cache {
    /// Open (creating if needed) the cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the directory-creation failure.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Cache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Cache {
            dir,
            counters: Counters::default(),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry file a key is addressed to.
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{:016x}.cell", key.content_hash()))
    }

    /// Fetch the value cached under `key`, verifying the seal and the
    /// stored key. Absent, corrupt (→ quarantined), and collided
    /// entries all report as `None`; corruption is healed by the
    /// recompute-and-store the caller does next, never propagated.
    pub fn lookup(&self, key: &CacheKey) -> Option<Vec<u8>> {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                if e.kind() != io::ErrorKind::NotFound {
                    eprintln!("# cache: unreadable entry {}: {e}", path.display());
                }
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_entry(&bytes, key) {
            Ok(Some(value)) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            Ok(None) => {
                // Same content hash, different key: the entry is a valid
                // result for some *other* cell, so leave it alone.
                self.counters.collisions.fetch_add(1, Ordering::Relaxed);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(err) => {
                self.quarantine(&path, &err.to_string());
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persist `value` under `key`. Failures are recorded and reported,
    /// not propagated: the cache is an accelerator, and the computed
    /// value is already in the caller's hands.
    pub fn store(&self, key: &CacheKey, value: &[u8]) {
        let bytes = encode_entry(key, value);
        let path = self.entry_path(key);
        match jsmt_faults::fsio::persist(&path, &bytes, jsmt_faults::CACHE_TARGET) {
            Ok(()) => {
                self.counters.stores.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                self.counters.store_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("# cache: failed to store {key}: {e} (continuing uncached)");
            }
        }
    }

    /// `lookup` or else compute, store, and return.
    pub fn get_or_compute(&self, key: &CacheKey, compute: impl FnOnce() -> Vec<u8>) -> Vec<u8> {
        if let Some(v) = self.lookup(key) {
            return v;
        }
        let value = compute();
        self.store(key, &value);
        value
    }

    /// Counter snapshot for this process.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.counters.lookups.load(Ordering::Relaxed),
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            stores: self.counters.stores.load(Ordering::Relaxed),
            store_errors: self.counters.store_errors.load(Ordering::Relaxed),
            quarantined: self.counters.quarantined.load(Ordering::Relaxed),
            collisions: self.counters.collisions.load(Ordering::Relaxed),
        }
    }

    /// The `# cache: …` stderr report line the `repro` CLI prints after
    /// a cached run (the CI cache-determinism job greps it).
    pub fn report(&self) -> String {
        format!("# cache: {}", self.stats())
    }

    /// Move a bad entry aside and record it in the quarantine manifest.
    /// Rename races (another process already quarantined or replaced the
    /// entry) are benign and ignored.
    fn quarantine(&self, path: &Path, reason: &str) {
        let mut dest = None;
        for n in 0.. {
            let candidate = path.with_file_name(format!("{}.quarantine-{n}", file_name_of(path)));
            if !candidate.exists() {
                dest = Some(candidate);
                break;
            }
        }
        let dest = dest.expect("unbounded quarantine suffix search");
        match fs::rename(path, &dest) {
            Ok(()) => {
                self.counters.quarantined.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "# cache: quarantined {} -> {} ({reason}); recomputing",
                    file_name_of(path),
                    file_name_of(&dest),
                );
                self.log_quarantine(path, reason);
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => {
                eprintln!(
                    "# cache: could not quarantine {}: {e} (entry stays; every read re-verifies)",
                    path.display()
                );
            }
        }
    }

    fn log_quarantine(&self, path: &Path, reason: &str) {
        // Commas would break the one-line-per-entry CSV shape.
        let reason = reason.replace(',', ";");
        let line = format!("{},{reason}\n", file_name_of(path));
        let res = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(QUARANTINE_LOG))
            .and_then(|mut f| f.write_all(line.as_bytes()));
        if let Err(e) = res {
            eprintln!("# cache: could not append to {QUARANTINE_LOG}: {e}");
        }
    }
}

fn file_name_of(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

fn encode_entry(key: &CacheKey, value: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(key.fingerprint);
    w.put_str(&key.workload);
    w.put_u64(key.seed);
    w.put_usize(value.len());
    w.put_raw(value);
    seal(KIND_CACHE_ENTRY, &w.into_bytes())
}

/// `Ok(Some(value))` = verified entry for `key`; `Ok(None)` = verified
/// entry for a *different* key (content-hash collision); `Err` = the
/// entry is damaged and must be quarantined.
fn decode_entry(bytes: &[u8], key: &CacheKey) -> Result<Option<Vec<u8>>, SnapshotError> {
    let mut r: Reader<'_> = open(bytes, KIND_CACHE_ENTRY)?;
    let fingerprint = r.get_u64()?;
    let workload = r.get_str()?;
    let seed = r.get_u64()?;
    let n = r.get_len(1)?;
    let value = r.get_raw(n)?.to_vec();
    r.expect_end()?;
    let stored = CacheKey {
        fingerprint,
        workload,
        seed,
    };
    Ok((stored == *key).then_some(value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The fault plan is process-global; every test that arms one (or
    /// whose stores could be bitten by one) serializes here.
    static LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn tmp_cache(tag: &str) -> Cache {
        let dir =
            std::env::temp_dir().join(format!("jsmt-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Cache::open(dir).unwrap()
    }

    fn key(workload: &str) -> CacheKey {
        CacheKey {
            fingerprint: 0xDEAD_BEEF,
            workload: workload.to_string(),
            seed: 0x15_9A55,
        }
    }

    #[test]
    fn roundtrip_and_stats() {
        let _l = lock();
        let cache = tmp_cache("roundtrip");
        let k = key("pair:compress+db");
        assert_eq!(cache.lookup(&k), None);
        cache.store(&k, b"outcome-bytes");
        assert_eq!(cache.lookup(&k).as_deref(), Some(&b"outcome-bytes"[..]));
        // Key identity is the full triple, not just the workload.
        let other = CacheKey {
            seed: 1,
            ..k.clone()
        };
        assert_eq!(cache.lookup(&other), None);
        let s = cache.stats();
        assert_eq!((s.lookups, s.hits, s.misses, s.stores), (3, 1, 2, 1));
        assert_eq!((s.quarantined, s.collisions, s.store_errors), (0, 0, 0));
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn get_or_compute_computes_once() {
        let _l = lock();
        let cache = tmp_cache("compute-once");
        let k = key("solo:jess");
        let mut calls = 0;
        let v1 = cache.get_or_compute(&k, || {
            calls += 1;
            vec![1, 2, 3]
        });
        let v2 = cache.get_or_compute(&k, || {
            calls += 1;
            unreachable!("second call must be a hit")
        });
        assert_eq!(v1, vec![1, 2, 3]);
        assert_eq!(v2, vec![1, 2, 3]);
        assert_eq!(calls, 1);
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_healed() {
        let _l = lock();
        let cache = tmp_cache("heal-corrupt");
        let k = key("pair:jess+jack");
        cache.store(&k, b"good");
        // Flip a byte on disk, as a bad disk or torn concurrent writer
        // would.
        let path = cache.entry_path(&k);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5A;
        fs::write(&path, &bytes).unwrap();

        let healed = cache.get_or_compute(&k, || b"good".to_vec());
        assert_eq!(healed, b"good");
        let s = cache.stats();
        assert_eq!(s.quarantined, 1);
        // Entry was re-stored clean and aside sits the quarantined copy.
        assert_eq!(cache.lookup(&k).as_deref(), Some(&b"good"[..]));
        let names: Vec<_> = fs::read_dir(cache.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().any(|n| n.contains(".quarantine-")),
            "quarantined copy must be kept aside: {names:?}"
        );
        let log = fs::read_to_string(cache.dir().join(QUARANTINE_LOG)).unwrap();
        assert!(
            log.contains("checksum"),
            "quarantine manifest must name the reason: {log:?}"
        );
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn truncated_entry_is_quarantined_and_healed() {
        let _l = lock();
        let cache = tmp_cache("heal-torn");
        let k = key("solo:db");
        cache.store(&k, b"value-bytes");
        let path = cache.entry_path(&k);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        assert_eq!(cache.lookup(&k), None);
        assert_eq!(cache.stats().quarantined, 1);
        let healed = cache.get_or_compute(&k, || b"value-bytes".to_vec());
        assert_eq!(healed, b"value-bytes");
        assert_eq!(cache.lookup(&k).as_deref(), Some(&b"value-bytes"[..]));
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn collided_entry_is_left_alone() {
        let _l = lock();
        let cache = tmp_cache("collision");
        let a = key("pair:compress+db");
        let b = key("pair:mtrt+raytrace");
        cache.store(&a, b"a-result");
        // Simulate a content-hash collision by planting a's (valid,
        // sealed) entry at b's address.
        fs::copy(cache.entry_path(&a), cache.entry_path(&b)).unwrap();

        assert_eq!(cache.lookup(&b), None, "collision must not serve a's bytes");
        let s = cache.stats();
        assert_eq!(s.collisions, 1);
        assert_eq!(s.quarantined, 0, "a collided entry is valid, not corrupt");
        assert!(
            cache.entry_path(&b).exists(),
            "collided entry stays in place"
        );
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn injected_store_faults_are_nonfatal_and_heal_on_reread() {
        let _l = lock();
        let cache = tmp_cache("injected");
        let k = key("pair:compress+compress");

        // Write #0 fails outright: result still usable, nothing stored.
        jsmt_faults::install_spec("io-error,target=cache,nth=0").unwrap();
        let v = cache.get_or_compute(&k, || b"computed".to_vec());
        assert_eq!(v, b"computed");
        assert_eq!(cache.stats().store_errors, 1);
        assert!(!cache.entry_path(&k).exists());

        // Next write is torn mid-payload: the follow-up lookup must
        // quarantine and recompute, not trust the stump.
        jsmt_faults::install_spec("cache-torn-write,nth=0").unwrap();
        cache.store(&k, b"computed");
        jsmt_faults::clear();
        let healed = cache.get_or_compute(&k, || b"computed".to_vec());
        assert_eq!(healed, b"computed");
        assert_eq!(cache.stats().quarantined, 1);
        assert_eq!(cache.lookup(&k).as_deref(), Some(&b"computed"[..]));
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn content_hash_separates_fields() {
        let base = key("w");
        let mut by_fp = base.clone();
        by_fp.fingerprint ^= 1;
        let mut by_seed = base.clone();
        by_seed.seed ^= 1;
        let by_wl = key("w2");
        let hashes = [
            base.content_hash(),
            by_fp.content_hash(),
            by_seed.content_hash(),
            by_wl.content_hash(),
        ];
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}

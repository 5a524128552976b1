//! The multi-tenant key store: tenant name → key pair, behind sharded
//! reader-writer locks.
//!
//! Sharding keeps key lookups off a single global lock: the tenant name
//! hashes (FNV-1a) to one of [`ShardedMap::SHARDS`] independent `RwLock`s, so
//! concurrent connections for different tenants never contend, and even
//! same-shard readers share the read lock. Writes (key loading, keygen)
//! are rare and touch one shard.
//!
//! Keys come from the CLI's key-file format ([`crate::keyfile`]), SHA
//! and SHAKE shapes alike: [`KeyStore::load_dir`] ingests every `*.key`
//! file in a directory, tenant = file stem.

use crate::error::{ErrorCode, WireError};
use crate::keyfile;
use hero_sphincs::sign::{SigningKey, VerifyingKey};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// One tenant's key material.
#[derive(Clone, Debug)]
pub struct TenantKey {
    /// The signing key (drives the tenant's `SignService`).
    pub sk: SigningKey,
    /// The matching verifying key (drives the `verify` op).
    pub vk: VerifyingKey,
}

/// A string-keyed map split across independently locked shards.
///
/// Generic over the value so the server reuses it for both the key
/// store and the per-tenant runtime state (service + admission
/// counters).
/// Shard locks are
/// *poison-recovering*: a reader or writer that panicked while holding
/// one (say, an injected fault inside a value constructor) marks the
/// lock poisoned, but the map itself stays structurally valid — every
/// mutation is a single `HashMap` operation that either happened or did
/// not. Recovery therefore reclaims the guard, re-checks consistency by
/// construction, and counts the event in
/// [`ShardedMap::poison_recoveries`] so the metrics page surfaces it.
#[derive(Debug)]
pub struct ShardedMap<V> {
    shards: Vec<RwLock<HashMap<String, V>>>,
    poison_recoveries: AtomicU64,
}

impl<V: Clone> ShardedMap<V> {
    /// Shard count: enough that a hot accept loop does not serialize on
    /// one lock, small enough to stay cache-friendly.
    pub const SHARDS: usize = 16;

    /// An empty map.
    pub fn new() -> Self {
        Self {
            shards: (0..Self::SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            poison_recoveries: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &str) -> &RwLock<HashMap<String, V>> {
        // FNV-1a over the tenant name.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h % Self::SHARDS as u64) as usize]
    }

    /// Read-locks a shard, recovering (and counting) a poisoned lock
    /// instead of propagating the panic to every future caller.
    fn read_shard<'a>(
        &'a self,
        lock: &'a RwLock<HashMap<String, V>>,
    ) -> RwLockReadGuard<'a, HashMap<String, V>> {
        lock.read().unwrap_or_else(|poisoned| {
            self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
            // Un-poison so one panic is counted once, not on every
            // subsequent access to the shard.
            lock.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Write-lock analogue of [`ShardedMap::read_shard`].
    fn write_shard<'a>(
        &'a self,
        lock: &'a RwLock<HashMap<String, V>>,
    ) -> RwLockWriteGuard<'a, HashMap<String, V>> {
        lock.write().unwrap_or_else(|poisoned| {
            self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
            lock.clear_poison();
            poisoned.into_inner()
        })
    }

    /// How many times a poisoned shard lock was reclaimed. Non-zero
    /// means some caller panicked while holding a shard — worth alerting
    /// on even though the map recovers.
    pub fn poison_recoveries(&self) -> u64 {
        self.poison_recoveries.load(Ordering::Relaxed)
    }

    /// Clones the value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<V> {
        self.read_shard(self.shard(key)).get(key).cloned()
    }

    /// Inserts `value` unless `key` is already present; returns whether
    /// the insert happened.
    pub fn insert_new(&self, key: &str, value: V) -> bool {
        let mut shard = self.write_shard(self.shard(key));
        if shard.contains_key(key) {
            return false;
        }
        shard.insert(key.to_string(), value);
        true
    }

    /// Clones the value for `key`, inserting `make()` first when absent.
    pub fn get_or_insert_with(&self, key: &str, make: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(key) {
            return v;
        }
        let mut shard = self.write_shard(self.shard(key));
        shard.entry(key.to_string()).or_insert_with(make).clone()
    }

    /// Fallible [`ShardedMap::get_or_insert_with`]: when `key` is
    /// absent, `make()` runs *outside* the shard lock (constructors may
    /// be slow — engine builds, service spawns — and must not stall
    /// readers of sibling keys) and its error passes straight through
    /// without inserting anything. If a racing caller inserted while
    /// `make()` ran, that winner's value is returned and ours dropped,
    /// so all callers agree on one resident value.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: &str,
        make: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        if let Some(v) = self.get(key) {
            return Ok(v);
        }
        let made = make()?;
        let mut shard = self.write_shard(self.shard(key));
        Ok(shard.entry(key.to_string()).or_insert(made).clone())
    }

    /// All keys, sorted (crosses every shard; for listings and metrics,
    /// not hot paths).
    pub fn keys(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| self.read_shard(s).keys().cloned().collect::<Vec<_>>())
            .collect();
        out.sort();
        out
    }

    /// All `(key, value)` pairs, sorted by key.
    pub fn entries(&self) -> Vec<(String, V)> {
        let mut out: Vec<(String, V)> = self
            .shards
            .iter()
            .flat_map(|s| {
                self.read_shard(s)
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.read_shard(s).len()).sum()
    }

    /// Whether no entries exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V: Clone> Default for ShardedMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// The tenant key store the server dispatches against.
#[derive(Debug, Default)]
pub struct KeyStore {
    keys: ShardedMap<Arc<TenantKey>>,
}

impl KeyStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a key pair for `tenant`.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::TenantExists`] when the tenant already holds a key —
    /// keys are never silently replaced over the network.
    pub fn insert(
        &self,
        tenant: &str,
        sk: SigningKey,
        vk: VerifyingKey,
    ) -> Result<Arc<TenantKey>, WireError> {
        let entry = Arc::new(TenantKey { sk, vk });
        if self.keys.insert_new(tenant, Arc::clone(&entry)) {
            Ok(entry)
        } else {
            Err(WireError::new(
                ErrorCode::TenantExists,
                format!("tenant '{tenant}' already holds a key"),
            ))
        }
    }

    /// Looks a tenant's key up.
    pub fn get(&self, tenant: &str) -> Option<Arc<TenantKey>> {
        self.keys.get(tenant)
    }

    /// Loads every `*.key` file in `dir` (tenant = file stem), SHA and
    /// SHAKE key files alike. Returns the tenants loaded, sorted.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Keyfile`] naming the offending file on I/O or parse
    /// failure, or on a duplicate tenant.
    pub fn load_dir(&self, dir: &Path) -> Result<Vec<String>, WireError> {
        let entries = std::fs::read_dir(dir)
            .map_err(|e| WireError::new(ErrorCode::Keyfile, format!("{}: {e}", dir.display())))?;
        let mut loaded = Vec::new();
        for entry in entries {
            let path = entry
                .map_err(|e| WireError::new(ErrorCode::Keyfile, format!("{}: {e}", dir.display())))?
                .path();
            if path.extension().and_then(|e| e.to_str()) != Some("key") {
                continue;
            }
            let Some(tenant) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if hero_sign::faults::fire(crate::faults::KEYSTORE_IO) {
                return Err(WireError::new(
                    ErrorCode::Keyfile,
                    format!("{}: injected keystore I/O fault", path.display()),
                ));
            }
            let text = std::fs::read_to_string(&path).map_err(|e| {
                WireError::new(ErrorCode::Keyfile, format!("{}: {e}", path.display()))
            })?;
            let (sk, vk) = keyfile::decode(&text).map_err(|e| {
                WireError::new(ErrorCode::Keyfile, format!("{}: {e}", path.display()))
            })?;
            self.insert(tenant, sk, vk)?;
            loaded.push(tenant.to_string());
        }
        loaded.sort();
        Ok(loaded)
    }

    /// All registered tenants, sorted.
    pub fn tenants(&self) -> Vec<String> {
        self.keys.keys()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the store holds no tenants.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Poisoned-lock recoveries in the underlying sharded map (see
    /// [`ShardedMap::poison_recoveries`]).
    pub fn poison_recoveries(&self) -> u64 {
        self.keys.poison_recoveries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_sphincs::hash::HashAlg;
    use hero_sphincs::params::Params;

    fn tiny_key(seed: u8) -> (SigningKey, VerifyingKey) {
        let mut p = Params::sphincs_128f();
        p.h = 4;
        p.d = 2;
        p.log_t = 3;
        p.k = 4;
        hero_sphincs::keygen_from_seeds_with_alg(
            p,
            HashAlg::Sha256,
            vec![seed; p.n],
            vec![seed.wrapping_add(1); p.n],
            vec![seed.wrapping_add(2); p.n],
        )
    }

    #[test]
    fn insert_get_and_duplicate_rejection() {
        let store = KeyStore::new();
        let (sk, vk) = tiny_key(1);
        store.insert("alice", sk.clone(), vk).unwrap();
        assert_eq!(store.get("alice").unwrap().sk.sk_seed(), sk.sk_seed());
        assert!(store.get("bob").is_none());
        let (sk2, vk2) = tiny_key(2);
        let err = store.insert("alice", sk2, vk2).unwrap_err();
        assert_eq!(err.code, ErrorCode::TenantExists);
        assert_eq!(store.tenants(), vec!["alice".to_string()]);
    }

    #[test]
    fn sharded_map_spreads_and_lists() {
        let map: ShardedMap<usize> = ShardedMap::new();
        for i in 0..100 {
            assert!(map.insert_new(&format!("tenant-{i}"), i));
        }
        assert_eq!(map.len(), 100);
        assert_eq!(map.get("tenant-42"), Some(42));
        assert_eq!(map.keys().len(), 100);
        assert_eq!(map.get_or_insert_with("tenant-42", || 999), 42);
        assert_eq!(map.get_or_insert_with("fresh", || 7), 7);
        let entries = map.entries();
        assert_eq!(entries.len(), 101);
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn get_or_try_insert_with_inserts_once_and_propagates_errors() {
        let map: ShardedMap<usize> = ShardedMap::new();
        // A failing constructor leaves no residue: a later success for
        // the same key runs the constructor again and sticks.
        let err: Result<usize, &str> = map.get_or_try_insert_with("t", || Err("engine build"));
        assert_eq!(err, Err("engine build"));
        assert_eq!(map.get("t"), None);
        assert_eq!(map.get_or_try_insert_with::<&str>("t", || Ok(5)), Ok(5));
        // Present keys never re-run the constructor (it would panic).
        assert_eq!(
            map.get_or_try_insert_with::<&str>("t", || panic!("must not rebuild")),
            Ok(5)
        );
    }

    #[test]
    fn poisoned_shard_lock_recovers_and_is_counted() {
        let map: Arc<ShardedMap<usize>> = Arc::new(ShardedMap::new());
        map.insert_new("survivor", 1);
        // Poison the shard holding "survivor" by panicking inside
        // get_or_insert_with's value constructor while the write lock is
        // held — the injected-fault shape chaos schedules produce.
        let poisoner = Arc::clone(&map);
        let _ = std::thread::spawn(move || {
            poisoner.get_or_insert_with("doomed", || panic!("injected fault: value ctor"));
        })
        .join();
        assert_eq!(map.poison_recoveries(), 0, "nothing recovered yet");
        // The poisoned shard's map never held the failed entry (the
        // consistency argument is per-operation atomicity), and probing
        // it both works and counts the recovery.
        assert_eq!(map.get("doomed"), None);
        assert!(map.poison_recoveries() >= 1);
        // Every access path keeps working, including writes to the
        // recovered shard and full-map listings.
        assert!(map.insert_new("doomed", 2));
        assert_eq!(map.get("doomed"), Some(2));
        assert_eq!(map.get("survivor"), Some(1));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn load_dir_ingests_sha_and_shake_keyfiles() {
        let dir = std::env::temp_dir().join(format!("hero-keystore-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sha = Params::sphincs_128f();
        let shake = Params::shake_128f();
        std::fs::write(
            dir.join("val-a.key"),
            keyfile::encode(&sha, HashAlg::Sha256, &[1; 16], &[2; 16], &[3; 16]),
        )
        .unwrap();
        std::fs::write(
            dir.join("val-b.key"),
            keyfile::encode(&shake, HashAlg::Shake256, &[4; 16], &[5; 16], &[6; 16]),
        )
        .unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();

        let store = KeyStore::new();
        let loaded = store.load_dir(&dir).unwrap();
        assert_eq!(loaded, vec!["val-a".to_string(), "val-b".to_string()]);
        assert_eq!(store.get("val-a").unwrap().sk.alg(), HashAlg::Sha256);
        assert_eq!(store.get("val-b").unwrap().sk.alg(), HashAlg::Shake256);
        assert_eq!(
            store.get("val-b").unwrap().sk.params().name(),
            "SPHINCS+-SHAKE-128f"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_dir_reports_bad_files_typed() {
        let dir = std::env::temp_dir().join(format!("hero-keystore-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("broken.key"), "not a key file").unwrap();
        let store = KeyStore::new();
        let err = store.load_dir(&dir).unwrap_err();
        assert_eq!(err.code, ErrorCode::Keyfile);
        assert!(err.message.contains("broken.key"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_dir_reports_non_hex_seeds_typed() {
        // A seed field of an even byte count that splits a character, and
        // one of signed digits: each a typed error naming the file, not a
        // panic or a key.
        let good = keyfile::encode(
            &Params::sphincs_128f(),
            HashAlg::Sha256,
            &[1; 16],
            &[2; 16],
            &[3; 16],
        );
        let hex = keyfile::to_hex(&[1; 16]);
        for (i, seed) in [format!("a\u{e9}b{}", &hex[4..]), "+f".repeat(16)]
            .into_iter()
            .enumerate()
        {
            let dir =
                std::env::temp_dir().join(format!("hero-keystore-hex-{i}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let text = good.replace(&format!("sk_seed: {hex}"), &format!("sk_seed: {seed}"));
            assert_ne!(text, good);
            std::fs::write(dir.join("mangled.key"), text).unwrap();
            let store = KeyStore::new();
            let err = store.load_dir(&dir).unwrap_err();
            assert_eq!(err.code, ErrorCode::Keyfile, "{seed}");
            assert!(err.message.contains("mangled.key"), "{err}");
            assert!(store.is_empty(), "{seed}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

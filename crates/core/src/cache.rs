//! Per-key hypertree memoization: a sharded, capacity- and byte-bounded
//! LRU cache of XMSS subtree node pyramids.
//!
//! ## Why memoize
//!
//! A production signer signs millions of times with the *same* key, yet
//! every hypertree subtree a signature touches depends only on the key
//! material and its `(layer, tree)` coordinates — never on the message
//! (§III-A's independence argument, read in the other direction). The
//! upper layers make this brutal: layer `l` has `2^(h − (l+1)·h')`
//! distinct trees, so the top layer is *one* tree rebuilt from scratch on
//! every signature, and each rebuild pays `2^h'` WOTS+ leaf generations —
//! the register-hungry routine of Table III and the dominant cost of
//! `TREE_Sign`. Memoizing the retained node pyramid
//! ([`hero_sphincs::merkle::TreeLevels`]: WOTS+ roots at the bottom,
//! internal nodes above) turns steady-state signing into FORS plus WOTS+
//! chains plus whatever bottom layers actually churn.
//!
//! ## Structure
//!
//! - **Key**: a 64-bit FNV-1a fingerprint over the hash algorithm, the
//!   shape-critical parameter fields (`n`, `h`, `d`, `log_t`, `k`), and
//!   the secret/public seeds. The fingerprint picks the shard and the map
//!   slot; every hit then compares the *full* identity (algorithm,
//!   parameters, both seeds), so a fingerprint collision degrades to a
//!   miss — it can never serve another key's nodes.
//! - **Value**: per key, a map from `(layer, tree_idx)` to the subtree's
//!   `Arc<TreeLevels>`; slicing a root + authentication path out of it is
//!   byte-identical to a fresh treehash.
//! - **Bounds**: [`CacheConfig::max_keys`] and [`CacheConfig::max_bytes`]
//!   are enforced by exact least-recently-used eviction of whole keys
//!   (recency is a global logical clock bumped on every touch). Eviction
//!   only ever returns a key to cold-fill cost — it cannot fail a sign.
//! - **Layer policy**: a layer is memoized only while its whole layer
//!   holds at most [`CacheConfig::max_trees_per_layer`] trees; bottom
//!   layers of full-size parameter sets draw an effectively fresh tree
//!   every signature and would only pollute the LRU.
//!
//! The chaos point [`crate::faults::HYPERTREE_CACHE`] threads through
//! both sides: at fill time a fired fail spec drops the freshly built
//! subtree, at hit time it force-evicts the key and serves a miss.

use crate::error::HeroError;

use hero_sphincs::hash::HashAlg;
use hero_sphincs::merkle::TreeLevels;
use hero_sphincs::params::Params;
use hero_sphincs::sign::SigningKey;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Shard count; fingerprints spread across shards by their high bits.
const SHARDS: usize = 16;

/// Knobs of the per-key hypertree memoization layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Master switch; `false` makes every lookup a guaranteed miss and
    /// every fill a no-op (pure cold-path signing).
    pub enabled: bool,
    /// Most keys resident at once; the least-recently-used key is
    /// evicted beyond this.
    pub max_keys: usize,
    /// Bound on total retained node bytes across all keys; enforced by
    /// LRU eviction of whole keys.
    pub max_bytes: usize,
    /// A hypertree layer is memoized only while its whole layer has at
    /// most this many trees (`2^(h − (l+1)·h')`). Bottom layers of
    /// full-size parameter sets draw a fresh random tree almost every
    /// signature — caching them is pure churn.
    pub max_trees_per_layer: u64,
    /// Subtree budget of an explicit warm ([`crate::plan::warm_cache`]):
    /// layers are pre-filled top-down while the cumulative tree count
    /// stays within this bound.
    pub warm_trees: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            max_keys: 1 << 20,
            max_bytes: 256 << 20,
            max_trees_per_layer: 4096,
            warm_trees: 64,
        }
    }
}

impl CacheConfig {
    /// A disabled cache: every sign pays the cold path.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }

    /// Checks the configuration for unusable values.
    ///
    /// # Errors
    ///
    /// [`HeroError::InvalidOptions`] naming the offending field (zero
    /// `max_keys` or `max_bytes` on an enabled cache).
    pub fn validate(&self) -> Result<(), HeroError> {
        if self.enabled && self.max_keys == 0 {
            return Err(HeroError::InvalidOptions(
                "cache max_keys must be >= 1 (or disable the cache)".to_string(),
            ));
        }
        if self.enabled && self.max_bytes == 0 {
            return Err(HeroError::InvalidOptions(
                "cache max_bytes must be >= 1 (or disable the cache)".to_string(),
            ));
        }
        Ok(())
    }
}

/// Snapshot of the cache counters ([`HypertreeCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Subtree lookups served from retained nodes.
    pub hits: u64,
    /// Subtree lookups that fell through to a cold fill.
    pub misses: u64,
    /// Keys evicted (LRU bound, memory bound, or forced by chaos).
    pub evictions: u64,
    /// Retained node bytes currently resident.
    pub resident_bytes: u64,
    /// Keys currently resident.
    pub resident_keys: u64,
    /// Subtrees currently resident across all keys.
    pub resident_subtrees: u64,
}

impl CacheStats {
    /// Accumulates `other` into `self` — for aggregating the counters of
    /// several engines' caches onto one metrics surface.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.resident_bytes += other.resident_bytes;
        self.resident_keys += other.resident_keys;
        self.resident_subtrees += other.resident_subtrees;
    }
}

/// Trees in `layer` of `params`' hypertree: `2^(h − (layer+1)·h')`,
/// saturating at `u64::MAX` for the unboundedly wide bottom layers of
/// full-size parameter sets.
pub fn layer_tree_count(params: &Params, layer: u32) -> u64 {
    let bits = params
        .h
        .saturating_sub((layer as usize + 1) * params.tree_height());
    if bits >= 64 {
        u64::MAX
    } else {
        1u64 << bits
    }
}

/// Full identity of a cached key, compared on every hit so a fingerprint
/// collision can only ever read as a miss.
#[derive(Clone, Debug, PartialEq, Eq)]
struct KeyIdent {
    alg: HashAlg,
    n: usize,
    h: usize,
    d: usize,
    log_t: usize,
    k: usize,
    sk_seed: Vec<u8>,
    pk_seed: Vec<u8>,
}

impl KeyIdent {
    fn of(sk: &SigningKey) -> Self {
        let p = sk.params();
        Self {
            alg: sk.alg(),
            n: p.n,
            h: p.h,
            d: p.d,
            log_t: p.log_t,
            k: p.k,
            sk_seed: sk.sk_seed().to_vec(),
            pk_seed: sk.pk_seed().to_vec(),
        }
    }
}

/// One resident key: its subtrees plus LRU bookkeeping.
struct KeyEntry {
    ident: KeyIdent,
    subtrees: HashMap<(u32, u64), Arc<TreeLevels>>,
    bytes: usize,
    last_used: u64,
}

/// 64-bit FNV-1a fingerprint of a signing key's cache identity.
pub fn fingerprint(sk: &SigningKey) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    let p = sk.params();
    eat(&[match sk.alg() {
        HashAlg::Sha256 => 1,
        HashAlg::Sha512 => 2,
        HashAlg::Shake256 => 3,
    }]);
    for field in [p.n, p.h, p.d, p.log_t, p.k] {
        eat(&(field as u64).to_le_bytes());
    }
    eat(sk.sk_seed());
    eat(sk.pk_seed());
    hash
}

/// The sharded per-key subtree store — see the module docs for the
/// design. Shared by all clones of one engine; thread-safe.
pub struct HypertreeCache {
    config: CacheConfig,
    shards: Vec<Mutex<HashMap<u64, KeyEntry>>>,
    /// Global logical clock for exact LRU recency.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    resident_bytes: AtomicU64,
    resident_keys: AtomicU64,
    resident_subtrees: AtomicU64,
}

impl std::fmt::Debug for HypertreeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HypertreeCache")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

impl HypertreeCache {
    /// Creates a cache with `config` (assumed validated by the builder).
    pub fn new(config: CacheConfig) -> Self {
        Self {
            config,
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident_bytes: AtomicU64::new(0),
            resident_keys: AtomicU64::new(0),
            resident_subtrees: AtomicU64::new(0),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Whether the cache participates in signing at all.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Whether `layer` of `params` is memoizable under the per-layer
    /// tree-count policy.
    pub fn caches_layer(&self, params: &Params, layer: u32) -> bool {
        self.config.enabled && layer_tree_count(params, layer) <= self.config.max_trees_per_layer
    }

    /// The `(layer, tree_idx)` pre-fill set an explicit warm covers:
    /// layers top-down while the cumulative tree count stays within
    /// [`CacheConfig::warm_trees`] and the layer is memoizable.
    pub fn warm_coordinates(&self, params: &Params) -> Vec<(u32, u64)> {
        if !self.config.enabled {
            return Vec::new();
        }
        let mut coords = Vec::new();
        let mut budget = self.config.warm_trees;
        for layer in (0..params.d as u32).rev() {
            let trees = layer_tree_count(params, layer);
            if trees > budget || !self.caches_layer(params, layer) {
                break;
            }
            for tree in 0..trees {
                coords.push((layer, tree));
            }
            budget -= trees;
        }
        coords
    }

    /// Mutex recovery: a worker killed by chaos while holding a shard
    /// poisons the lock, but shard contents are always internally
    /// consistent (accounting lives in atomics updated outside the
    /// critical sections), so the poison is cleared and the data reused.
    fn lock_shard(&self, index: usize) -> MutexGuard<'_, HashMap<u64, KeyEntry>> {
        let shard = &self.shards[index];
        shard.lock().unwrap_or_else(|poisoned| {
            shard.clear_poison();
            poisoned.into_inner()
        })
    }

    fn shard_of(fp: u64) -> usize {
        (fp >> 48) as usize % SHARDS
    }

    /// Looks up one subtree for `sk`, bumping the key's recency. Counts a
    /// hit or a miss; a fired [`crate::faults::HYPERTREE_CACHE`] fail
    /// spec on the hit path force-evicts the key and serves a miss.
    pub fn get(&self, sk: &SigningKey, layer: u32, tree_idx: u64) -> Option<Arc<TreeLevels>> {
        if !self.config.enabled {
            return None;
        }
        let fp = fingerprint(sk);
        let found = {
            let mut shard = self.lock_shard(Self::shard_of(fp));
            shard
                .get_mut(&fp)
                .filter(|entry| entry.ident == KeyIdent::of(sk))
                .and_then(|entry| {
                    entry.last_used = self.clock.fetch_add(1, Ordering::Relaxed);
                    entry.subtrees.get(&(layer, tree_idx)).cloned()
                })
        };
        match found {
            Some(levels) => {
                if crate::faults::fire(crate::faults::HYPERTREE_CACHE) {
                    self.evict_fingerprint(fp);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(levels)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Whether a subtree is resident, without touching recency or the
    /// hit/miss counters (used to skip redundant warm fills).
    pub fn contains(&self, sk: &SigningKey, layer: u32, tree_idx: u64) -> bool {
        if !self.config.enabled {
            return false;
        }
        let fp = fingerprint(sk);
        let shard = self.lock_shard(Self::shard_of(fp));
        shard
            .get(&fp)
            .filter(|entry| entry.ident == KeyIdent::of(sk))
            .is_some_and(|entry| entry.subtrees.contains_key(&(layer, tree_idx)))
    }

    /// Stores one freshly built subtree for `sk`, then enforces the key
    /// and byte bounds by LRU eviction. A fired
    /// [`crate::faults::HYPERTREE_CACHE`] fail spec drops the fill (the
    /// signature already has the fresh nodes; the next sign pays cold).
    pub fn insert(&self, sk: &SigningKey, layer: u32, tree_idx: u64, levels: Arc<TreeLevels>) {
        if !self.config.enabled || crate::faults::fire(crate::faults::HYPERTREE_CACHE) {
            return;
        }
        let fp = fingerprint(sk);
        let bytes = levels.byte_len();
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        {
            let mut shard = self.lock_shard(Self::shard_of(fp));
            let entry = match shard.entry(fp) {
                std::collections::hash_map::Entry::Occupied(slot) => {
                    let entry = slot.into_mut();
                    if entry.ident != KeyIdent::of(sk) {
                        // Fingerprint collision: the resident key loses
                        // its slot (counted as an eviction).
                        self.resident_bytes
                            .fetch_sub(entry.bytes as u64, Ordering::Relaxed);
                        self.resident_subtrees
                            .fetch_sub(entry.subtrees.len() as u64, Ordering::Relaxed);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                        *entry = KeyEntry {
                            ident: KeyIdent::of(sk),
                            subtrees: HashMap::new(),
                            bytes: 0,
                            last_used: now,
                        };
                    }
                    entry
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    self.resident_keys.fetch_add(1, Ordering::Relaxed);
                    slot.insert(KeyEntry {
                        ident: KeyIdent::of(sk),
                        subtrees: HashMap::new(),
                        bytes: 0,
                        last_used: now,
                    })
                }
            };
            entry.last_used = now;
            if entry.subtrees.insert((layer, tree_idx), levels).is_none() {
                entry.bytes += bytes;
                self.resident_bytes
                    .fetch_add(bytes as u64, Ordering::Relaxed);
                self.resident_subtrees.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.enforce_bounds();
    }

    /// Evicts least-recently-used keys until both bounds hold. Never
    /// fails: in the worst case the cache empties and signing is cold.
    fn enforce_bounds(&self) {
        loop {
            let over_keys =
                self.resident_keys.load(Ordering::Relaxed) > self.config.max_keys as u64;
            let over_bytes =
                self.resident_bytes.load(Ordering::Relaxed) > self.config.max_bytes as u64;
            if (!over_keys && !over_bytes) || !self.evict_lru() {
                return;
            }
        }
    }

    /// Removes the globally least-recently-used key; `false` when empty.
    fn evict_lru(&self) -> bool {
        let mut victim: Option<(usize, u64, u64)> = None;
        for index in 0..SHARDS {
            let shard = self.lock_shard(index);
            for (fp, entry) in shard.iter() {
                if victim.is_none_or(|(_, _, last)| entry.last_used < last) {
                    victim = Some((index, *fp, entry.last_used));
                }
            }
        }
        let Some((index, fp, _)) = victim else {
            return false;
        };
        let removed = self.lock_shard(index).remove(&fp);
        match removed {
            Some(entry) => {
                self.book_eviction(&entry);
                true
            }
            // A racing evictor got there first; report progress anyway.
            None => true,
        }
    }

    /// Forced eviction of one key (the chaos path).
    fn evict_fingerprint(&self, fp: u64) {
        let removed = self.lock_shard(Self::shard_of(fp)).remove(&fp);
        if let Some(entry) = removed {
            self.book_eviction(&entry);
        }
    }

    fn book_eviction(&self, entry: &KeyEntry) {
        self.resident_keys.fetch_sub(1, Ordering::Relaxed);
        self.resident_bytes
            .fetch_sub(entry.bytes as u64, Ordering::Relaxed);
        self.resident_subtrees
            .fetch_sub(entry.subtrees.len() as u64, Ordering::Relaxed);
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            resident_keys: self.resident_keys.load(Ordering::Relaxed),
            resident_subtrees: self.resident_subtrees.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hero_sphincs::hash::HashCtx;
    use hero_sphincs::hypertree;

    fn tiny_params() -> Params {
        let mut p = Params::sphincs_128f();
        p.h = 6;
        p.d = 3;
        p.log_t = 4;
        p.k = 8;
        p
    }

    fn key(seed: u8) -> SigningKey {
        let p = tiny_params();
        hero_sphincs::keygen_from_seeds(
            p,
            vec![seed; p.n],
            vec![seed + 1; p.n],
            vec![seed + 2; p.n],
        )
        .0
    }

    fn levels_for(sk: &SigningKey, layer: u32, tree: u64) -> Arc<TreeLevels> {
        let ctx = HashCtx::with_alg(*sk.params(), sk.pk_seed(), sk.alg());
        let mut built = hypertree::subtrees(&ctx, sk.sk_seed(), &[(layer, tree)]);
        Arc::new(built.pop().expect("one pyramid per subtree"))
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = HypertreeCache::new(CacheConfig::default());
        let sk = key(10);
        assert!(cache.get(&sk, 2, 0).is_none());
        let levels = levels_for(&sk, 2, 0);
        cache.insert(&sk, 2, 0, Arc::clone(&levels));
        assert_eq!(cache.get(&sk, 2, 0).as_deref(), Some(&*levels));
        assert!(cache.contains(&sk, 2, 0));
        assert!(!cache.contains(&sk, 2, 1));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(s.resident_keys, 1);
        assert_eq!(s.resident_subtrees, 1);
        assert_eq!(s.resident_bytes, levels.byte_len() as u64);
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = HypertreeCache::new(CacheConfig::disabled());
        let sk = key(11);
        cache.insert(&sk, 2, 0, levels_for(&sk, 2, 0));
        assert!(cache.get(&sk, 2, 0).is_none());
        assert!(!cache.caches_layer(sk.params(), 2));
        assert!(cache.warm_coordinates(sk.params()).is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn keys_do_not_alias() {
        let cache = HypertreeCache::new(CacheConfig::default());
        let (a, b) = (key(20), key(30));
        cache.insert(&a, 2, 0, levels_for(&a, 2, 0));
        assert!(cache.get(&b, 2, 0).is_none());
        assert_eq!(cache.stats().resident_keys, 1);
        cache.insert(&b, 2, 0, levels_for(&b, 2, 0));
        assert_ne!(
            cache.get(&a, 2, 0).unwrap().root(),
            cache.get(&b, 2, 0).unwrap().root()
        );
    }

    #[test]
    fn key_bound_evicts_exactly_the_lru_key() {
        let cache = HypertreeCache::new(CacheConfig {
            max_keys: 3,
            ..CacheConfig::default()
        });
        let keys: Vec<SigningKey> = (0..4).map(|i| key(40 + i * 5)).collect();
        for sk in &keys[..3] {
            cache.insert(sk, 2, 0, levels_for(sk, 2, 0));
        }
        // Touch key 0 so key 1 becomes the LRU.
        assert!(cache.get(&keys[0], 2, 0).is_some());
        assert_eq!(cache.stats().evictions, 0);
        cache.insert(&keys[3], 2, 0, levels_for(&keys[3], 2, 0));
        let s = cache.stats();
        assert_eq!(s.evictions, 1, "exactly one eviction");
        assert_eq!(s.resident_keys, 3);
        assert!(cache.contains(&keys[0], 2, 0), "recently touched survives");
        assert!(!cache.contains(&keys[1], 2, 0), "LRU key evicted");
    }

    #[test]
    fn byte_bound_degrades_to_empty_not_error() {
        let sk = key(60);
        let one = levels_for(&sk, 2, 0);
        let cache = HypertreeCache::new(CacheConfig {
            // Two subtrees fit, three do not.
            max_bytes: one.byte_len() * 2,
            ..CacheConfig::default()
        });
        cache.insert(&sk, 2, 0, Arc::clone(&one));
        cache.insert(&sk, 1, 0, levels_for(&sk, 1, 0));
        assert_eq!(cache.stats().evictions, 0);
        // Third subtree pushes the single resident key over the byte
        // bound: the whole key evicts, then the insert-before-enforce
        // ordering leaves the cache empty — cold, never an error.
        cache.insert(&sk, 1, 1, levels_for(&sk, 1, 1));
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident_bytes, 0);
        assert!(cache.get(&sk, 2, 0).is_none());
    }

    #[test]
    fn layer_policy_tracks_tree_counts() {
        let p = tiny_params(); // h = 6, d = 3, h' = 2
        assert_eq!(layer_tree_count(&p, 0), 16);
        assert_eq!(layer_tree_count(&p, 1), 4);
        assert_eq!(layer_tree_count(&p, 2), 1);
        let full = Params::sphincs_128f();
        assert!(layer_tree_count(&full, 0) > 1 << 40);

        let cache = HypertreeCache::new(CacheConfig {
            max_trees_per_layer: 4,
            ..CacheConfig::default()
        });
        assert!(!cache.caches_layer(&p, 0));
        assert!(cache.caches_layer(&p, 1));
        assert!(cache.caches_layer(&p, 2));
        // Warm covers the memoizable layers top-down within budget.
        assert_eq!(
            cache.warm_coordinates(&p),
            vec![(2, 0), (1, 0), (1, 1), (1, 2), (1, 3)]
        );
    }

    #[test]
    fn warm_budget_stops_at_layer_boundary() {
        let p = tiny_params();
        let cache = HypertreeCache::new(CacheConfig {
            warm_trees: 3, // top layer (1 tree) fits, layer 1 (4 trees) does not
            ..CacheConfig::default()
        });
        assert_eq!(cache.warm_coordinates(&p), vec![(2, 0)]);
    }

    #[test]
    fn fingerprints_separate_params_alg_and_seeds() {
        let a = key(10);
        let b = key(11);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let p = tiny_params();
        let shake = hero_sphincs::keygen_from_seeds_with_alg(
            p,
            HashAlg::Shake256,
            vec![10; p.n],
            vec![11; p.n],
            vec![12; p.n],
        )
        .0;
        assert_ne!(fingerprint(&a), fingerprint(&shake));
        let mut wider = p;
        wider.k = 9;
        let other =
            hero_sphincs::keygen_from_seeds(wider, vec![10; p.n], vec![11; p.n], vec![12; p.n]).0;
        assert_ne!(fingerprint(&a), fingerprint(&other));
    }

    #[test]
    fn config_validation() {
        CacheConfig::default().validate().unwrap();
        CacheConfig::disabled().validate().unwrap();
        for bad in [
            CacheConfig {
                max_keys: 0,
                ..CacheConfig::default()
            },
            CacheConfig {
                max_bytes: 0,
                ..CacheConfig::default()
            },
        ] {
            assert!(matches!(bad.validate(), Err(HeroError::InvalidOptions(_))));
        }
        // Zero bounds are fine on a disabled cache.
        CacheConfig {
            max_keys: 0,
            ..CacheConfig::disabled()
        }
        .validate()
        .unwrap();
    }
}

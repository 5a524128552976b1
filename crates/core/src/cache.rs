//! Per-key hypertree memoization: a sharded, capacity- and byte-bounded
//! LRU cache of XMSS subtrees' leaves.
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
//! `TREE_Sign`. Memoizing a subtree's `2^h'` leaves (its WOTS+ public
//! keys, [`hero_sphincs::merkle::TreeLevels::leaves`]) turns steady-state
//! signing into FORS plus WOTS+ chains plus whatever bottom layers
//! actually churn. A hit rebuilds the `2^h' − 1` nodes above the leaves
//! ([`hero_sphincs::hypertree::subtrees_from_leaves`]): 7 `H` at 128f,
//! where generating the 8 leaves takes ≈ 4,600 hash calls. Keeping the
//! leaves alone takes about half the bytes of the whole node pyramid.
//!
//! ## Structure
//!
//! - **Key**: one SHA-256 identity ([`KeyId`]) over the hash algorithm,
//!   the shape-critical parameter fields (`n`, `h`, `d`, `log_t`, `k`,
//!   `w`), and the secret/public seeds. It picks the shard, keys the map and is
//!   what equality means; the planner computes it once per call, where it
//!   holds the key anyway, so no seed is kept by the cache.
//! - **Value**: per key, a map from `(layer, tree_idx)` to the subtree's
//!   leaves in one boxed slice (`2^h' · n` bytes, 128 at 128f); the tree
//!   rebuilt from them is byte-identical to a fresh build.
//!   [`HypertreeCache::get`] copies them into the caller's buffer under
//!   the shard lock.
//! - **Bounds**: [`CacheConfig::max_keys`] and [`CacheConfig::max_bytes`]
//!   are enforced by exact least-recently-used eviction of whole keys
//!   (recency is a global logical clock bumped on every touch). Eviction
//!   only ever returns a key to cold-fill cost — it cannot fail a sign.
//! - **Layer policy**: a layer is memoized only while its whole layer
//!   holds at most `MAX_TREES_PER_LAYER` (4096) trees; bottom layers of
//!   full-size parameter sets draw an effectively fresh tree every
//!   signature and would only pollute the LRU. Under 128f that is layers
//!   17–21.
//! - **Warm budget**: an explicit warm pre-fills whole memoizable layers
//!   top-down while their cumulative tree count stays within
//!   `WARM_TREES` (64) — under 128f, layer 21's one tree and layer 20's
//!   eight.
//!
//! The chaos point [`crate::faults::HYPERTREE_CACHE`] threads through
//! both sides: at fill time a fired fail spec drops the freshly built
//! subtree, at hit time it force-evicts the key and serves a miss.

use crate::error::HeroError;

use hero_sphincs::hash::HashAlg;
use hero_sphincs::params::Params;
use hero_sphincs::sha256::Sha256;
use hero_sphincs::sign::SigningKey;

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Shard count; identities spread across shards by their first byte.
const SHARDS: usize = 16;

/// The layer policy: a layer is memoized only while it has at most this
/// many trees (`2^(h − (l+1)·h')`).
const MAX_TREES_PER_LAYER: u64 = 4096;

/// The warm budget: the most subtrees an explicit warm
/// ([`crate::plan::warm_cache`]) pre-fills.
const WARM_TREES: u64 = 64;

/// Knobs of the per-key hypertree memoization layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Master switch; `false` makes every lookup a guaranteed miss and
    /// every fill a no-op (pure cold-path signing).
    pub enabled: bool,
    /// Most keys resident at once; the least-recently-used key is
    /// evicted beyond this.
    pub max_keys: usize,
    /// Bound on the resident subtrees' leaf bytes across all keys
    /// (`2^h' · n` a subtree); enforced by LRU eviction of whole keys.
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            max_keys: 1 << 20,
            max_bytes: 256 << 20,
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
    /// Subtree lookups served from resident leaves.
    pub hits: u64,
    /// Subtree lookups that fell through to a cold fill.
    pub misses: u64,
    /// Keys evicted (LRU bound, memory bound, or forced by chaos).
    pub evictions: u64,
    /// Leaf bytes currently resident (`2^h' · n` a subtree).
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

/// The cache identity of a signing key: SHA-256 over the hash algorithm,
/// the parameter fields a subtree's bytes depend on and both seeds. Two
/// keys share subtrees exactly when they share all of those, and the
/// digest stands for them without keeping a seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KeyId([u8; 32]);

impl KeyId {
    /// The identity of `sk`. Costs a few compressions: compute it once
    /// per planned call, not per lookup.
    pub fn of(sk: &SigningKey) -> Self {
        let p = sk.params();
        let mut hash = Sha256::new();
        hash.update(&[match sk.alg() {
            HashAlg::Sha256 => 1,
            HashAlg::Sha512 => 2,
            HashAlg::Shake256 => 3,
        }]);
        for field in [p.n, p.h, p.d, p.log_t, p.k, p.w] {
            hash.update(&(field as u64).to_le_bytes());
        }
        hash.update(sk.sk_seed());
        hash.update(sk.pk_seed());
        Self(hash.finalize())
    }

    fn shard(&self) -> usize {
        self.0[0] as usize % SHARDS
    }
}

/// One resident key: its subtrees' leaves plus LRU bookkeeping.
struct KeyEntry {
    subtrees: HashMap<(u32, u64), Box<[u8]>>,
    bytes: usize,
    last_used: u64,
}

/// The sharded per-key subtree store — see the module docs for the
/// design. Shared by all clones of one engine; thread-safe.
pub struct HypertreeCache {
    config: CacheConfig,
    shards: Vec<Mutex<HashMap<KeyId, KeyEntry>>>,
    /// Global logical clock for exact LRU recency.
    clock: AtomicU64,
    /// Held while the bounds are enforced, so that a bound check and the
    /// eviction it leads to are one step: two fills that each see the
    /// cache one key over evict one key between them, not two.
    evicting: Mutex<()>,
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
            evicting: Mutex::new(()),
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
        self.config.enabled && layer_tree_count(params, layer) <= MAX_TREES_PER_LAYER
    }

    /// The `(layer, tree_idx)` pre-fill set an explicit warm covers:
    /// layers top-down while the cumulative tree count stays within
    /// `WARM_TREES` and the layer is memoizable.
    pub fn warm_coordinates(&self, params: &Params) -> Vec<(u32, u64)> {
        if !self.config.enabled {
            return Vec::new();
        }
        let mut coords = Vec::new();
        let mut budget = WARM_TREES;
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
    fn lock_shard(&self, index: usize) -> MutexGuard<'_, HashMap<KeyId, KeyEntry>> {
        let shard = &self.shards[index];
        shard.lock().unwrap_or_else(|poisoned| {
            shard.clear_poison();
            poisoned.into_inner()
        })
    }

    /// Looks up one subtree of the key `key`, bumping the key's recency,
    /// and on a hit copies its leaves into `leaves`; `true` on a hit.
    /// Counts a hit or a miss; a fired [`crate::faults::HYPERTREE_CACHE`]
    /// fail spec on the hit path force-evicts the key and serves a miss.
    ///
    /// # Panics
    ///
    /// Panics on a hit if `leaves` is not the subtree's `2^h' · n` bytes.
    pub fn get(&self, key: &KeyId, layer: u32, tree_idx: u64, leaves: &mut [u8]) -> bool {
        if !self.config.enabled {
            return false;
        }
        let found = self
            .lock_shard(key.shard())
            .get_mut(key)
            .is_some_and(|entry| {
                entry.last_used = self.clock.fetch_add(1, Ordering::Relaxed);
                entry
                    .subtrees
                    .get(&(layer, tree_idx))
                    .map(|resident| leaves.copy_from_slice(resident))
                    .is_some()
            });
        if found && crate::faults::fire(crate::faults::HYPERTREE_CACHE) {
            self.evict_key(key);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let counter = if found { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Whether a subtree is resident, without touching recency or the
    /// hit/miss counters (used to skip redundant warm fills).
    pub fn contains(&self, key: &KeyId, layer: u32, tree_idx: u64) -> bool {
        self.config.enabled
            && self
                .lock_shard(key.shard())
                .get(key)
                .is_some_and(|entry| entry.subtrees.contains_key(&(layer, tree_idx)))
    }

    /// Stores a copy of the leaves of one freshly built subtree of the
    /// key `key` ([`hero_sphincs::merkle::TreeLevels::leaves`]), then
    /// enforces the key and byte bounds by LRU eviction. A fired
    /// [`crate::faults::HYPERTREE_CACHE`] fail spec drops the fill (the
    /// signature already has the fresh nodes; the next sign pays cold).
    pub fn insert(&self, key: &KeyId, layer: u32, tree_idx: u64, leaves: &[u8]) {
        if !self.config.enabled || crate::faults::fire(crate::faults::HYPERTREE_CACHE) {
            return;
        }
        let bytes = leaves.len();
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        {
            let mut shard = self.lock_shard(key.shard());
            let entry = shard.entry(*key).or_insert_with(|| {
                self.resident_keys.fetch_add(1, Ordering::Relaxed);
                KeyEntry {
                    subtrees: HashMap::new(),
                    bytes: 0,
                    last_used: now,
                }
            });
            entry.last_used = now;
            if let Entry::Vacant(slot) = entry.subtrees.entry((layer, tree_idx)) {
                slot.insert(leaves.into());
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
        let _evicting = self.evicting.lock().unwrap_or_else(PoisonError::into_inner);
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
        let mut victim: Option<(KeyId, u64)> = None;
        for index in 0..SHARDS {
            let shard = self.lock_shard(index);
            for (key, entry) in shard.iter() {
                if victim.is_none_or(|(_, last)| entry.last_used < last) {
                    victim = Some((*key, entry.last_used));
                }
            }
        }
        let Some((key, _)) = victim else {
            return false;
        };
        let removed = self.lock_shard(key.shard()).remove(&key);
        match removed {
            Some(entry) => {
                self.book_eviction(&entry);
                true
            }
            // A forced eviction got there first; report progress anyway.
            None => true,
        }
    }

    /// Forced eviction of one key (the chaos path).
    fn evict_key(&self, key: &KeyId) {
        let removed = self.lock_shard(key.shard()).remove(key);
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
    use hero_sphincs::merkle::TreeLevels;

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

    fn levels_for(sk: &SigningKey, layer: u32, tree: u64) -> TreeLevels {
        let ctx = HashCtx::with_alg(*sk.params(), sk.pk_seed(), sk.alg());
        let item = hypertree::SubtreeItem {
            layer,
            tree_idx: tree,
            leaf_idx: 0,
        };
        let mut built = hypertree::subtrees(&ctx, sk.sk_seed(), &[item]);
        built.pop().expect("one pyramid per subtree")
    }

    /// Fills `layer`'s `tree` of `sk` into `cache`.
    fn fill(cache: &HypertreeCache, sk: &SigningKey, layer: u32, tree: u64) {
        cache.insert(
            &KeyId::of(sk),
            layer,
            tree,
            levels_for(sk, layer, tree).leaves(),
        );
    }

    /// The leaves `cache` serves for `layer`'s `tree` of `sk`, if any.
    fn served(cache: &HypertreeCache, sk: &SigningKey, layer: u32, tree: u64) -> Option<Vec<u8>> {
        let p = sk.params();
        let mut leaves = vec![0u8; p.n << p.tree_height()];
        cache
            .get(&KeyId::of(sk), layer, tree, &mut leaves)
            .then_some(leaves)
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = HypertreeCache::new(CacheConfig::default());
        let sk = key(10);
        assert_eq!(served(&cache, &sk, 2, 0), None);
        let levels = levels_for(&sk, 2, 0);
        cache.insert(&KeyId::of(&sk), 2, 0, levels.leaves());
        assert_eq!(served(&cache, &sk, 2, 0).as_deref(), Some(levels.leaves()));
        assert!(cache.contains(&KeyId::of(&sk), 2, 0));
        assert!(!cache.contains(&KeyId::of(&sk), 2, 1));
        fill(&cache, &sk, 1, 3);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(s.resident_keys, 1);
        assert_eq!(s.resident_subtrees, 2);
        // Leaves only: 2^h' nodes of n bytes a subtree, not the pyramid.
        let p = sk.params();
        assert_eq!(
            s.resident_bytes,
            s.resident_subtrees * (p.n << p.tree_height()) as u64
        );
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = HypertreeCache::new(CacheConfig::disabled());
        let sk = key(11);
        fill(&cache, &sk, 2, 0);
        assert_eq!(served(&cache, &sk, 2, 0), None);
        assert!(!cache.caches_layer(sk.params(), 2));
        assert!(cache.warm_coordinates(sk.params()).is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn keys_do_not_alias() {
        let cache = HypertreeCache::new(CacheConfig::default());
        let (a, b) = (key(20), key(30));
        fill(&cache, &a, 2, 0);
        assert_eq!(served(&cache, &b, 2, 0), None);
        assert_eq!(cache.stats().resident_keys, 1);
        fill(&cache, &b, 2, 0);
        assert_ne!(
            served(&cache, &a, 2, 0).unwrap(),
            served(&cache, &b, 2, 0).unwrap()
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
            fill(&cache, sk, 2, 0);
        }
        // Touch key 0 so key 1 becomes the LRU.
        assert!(served(&cache, &keys[0], 2, 0).is_some());
        assert_eq!(cache.stats().evictions, 0);
        fill(&cache, &keys[3], 2, 0);
        let s = cache.stats();
        assert_eq!(s.evictions, 1, "exactly one eviction");
        assert_eq!(s.resident_keys, 3);
        assert!(
            cache.contains(&KeyId::of(&keys[0]), 2, 0),
            "recently touched survives"
        );
        assert!(
            !cache.contains(&KeyId::of(&keys[1]), 2, 0),
            "LRU key evicted"
        );
    }

    /// A new key's subtrees filled at once, as a plan's fill nodes do,
    /// into a full cache: each fill sees the cache one key over, and
    /// between them they evict one key, not one each.
    #[test]
    fn concurrent_fills_of_one_new_key_evict_exactly_one_key() {
        let cache = HypertreeCache::new(CacheConfig {
            max_keys: 3,
            ..CacheConfig::default()
        });
        let keys: Vec<SigningKey> = (0..4).map(|i| key(70 + i * 5)).collect();
        for sk in &keys[..3] {
            fill(&cache, sk, 2, 0);
        }
        let new = KeyId::of(&keys[3]);
        let fills: Vec<_> = (0..4).map(|tree| levels_for(&keys[3], 1, tree)).collect();
        let start = std::sync::Barrier::new(fills.len());
        std::thread::scope(|scope| {
            for (tree, levels) in fills.into_iter().enumerate() {
                let (cache, start) = (&cache, &start);
                scope.spawn(move || {
                    start.wait();
                    cache.insert(&new, 1, tree as u64, levels.leaves());
                });
            }
        });
        let s = cache.stats();
        assert_eq!((s.evictions, s.resident_keys), (1, 3), "{s:?}");
    }

    #[test]
    fn byte_bound_degrades_to_empty_not_error() {
        let sk = key(60);
        let p = sk.params();
        let cache = HypertreeCache::new(CacheConfig {
            // Two subtrees' leaves fit, three do not.
            max_bytes: 2 * (p.n << p.tree_height()),
            ..CacheConfig::default()
        });
        fill(&cache, &sk, 2, 0);
        fill(&cache, &sk, 1, 0);
        assert_eq!(cache.stats().evictions, 0);
        // Third subtree pushes the single resident key over the byte
        // bound: the whole key evicts, then the insert-before-enforce
        // ordering leaves the cache empty — cold, never an error.
        fill(&cache, &sk, 1, 1);
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident_bytes, 0);
        assert_eq!(served(&cache, &sk, 2, 0), None);
    }

    // Both policies are pure functions of the parameters: nothing below
    // hashes.
    #[test]
    fn layer_policy_tracks_tree_counts() {
        let p = Params::sphincs_128f(); // h = 66, d = 22, h' = 3
        assert_eq!(layer_tree_count(&p, 21), 1);
        assert_eq!(layer_tree_count(&p, 20), 8);
        assert_eq!(layer_tree_count(&p, 17), MAX_TREES_PER_LAYER);
        assert_eq!(layer_tree_count(&p, 16), 8 * MAX_TREES_PER_LAYER);
        assert!(layer_tree_count(&p, 0) > 1 << 40);

        let cache = HypertreeCache::new(CacheConfig::default());
        for layer in 17..22 {
            assert!(cache.caches_layer(&p, layer), "layer {layer}");
        }
        for layer in 0..17 {
            assert!(!cache.caches_layer(&p, layer), "layer {layer}");
        }
    }

    #[test]
    fn warm_budget_stops_at_layer_boundary() {
        // Layer 21 (1 tree) and layer 20 (8) fit the budget; layer 19
        // (64) would take it to 73, so the warm stops at the boundary.
        let p = Params::sphincs_128f();
        let cache = HypertreeCache::new(CacheConfig::default());
        let mut expected = vec![(21, 0)];
        expected.extend((0..8).map(|tree| (20, tree)));
        assert_eq!(cache.warm_coordinates(&p), expected);
        assert!(1 + 8 + layer_tree_count(&p, 19) > WARM_TREES);
    }

    #[test]
    fn fingerprints_separate_params_alg_and_seeds() {
        let a = key(10);
        let b = key(11);
        assert_ne!(KeyId::of(&a), KeyId::of(&b));
        let p = tiny_params();
        let shake = hero_sphincs::keygen_from_seeds_with_alg(
            p,
            HashAlg::Shake256,
            vec![10; p.n],
            vec![11; p.n],
            vec![12; p.n],
        )
        .0;
        assert_ne!(KeyId::of(&a), KeyId::of(&shake));
        let mut wider = p;
        wider.k = 9;
        let other =
            hero_sphincs::keygen_from_seeds(wider, vec![10; p.n], vec![11; p.n], vec![12; p.n]).0;
        assert_ne!(KeyId::of(&a), KeyId::of(&other));
    }

    /// `w` sets the chain length and `len`, so it changes every WOTS+
    /// leaf: equal seeds at two `w` are two keys to the cache.
    #[test]
    fn winternitz_parameter_separates_keys() {
        let p = tiny_params();
        let mut long = p;
        long.w = 256;
        let seeded = |params| {
            hero_sphincs::keygen_from_seeds(params, vec![10; p.n], vec![11; p.n], vec![12; p.n]).0
        };
        let (w16, w256) = (seeded(p), seeded(long));
        assert_ne!(KeyId::of(&w16), KeyId::of(&w256));
        let cache = HypertreeCache::new(CacheConfig::default());
        fill(&cache, &w16, 2, 0);
        assert_eq!(served(&cache, &w256, 2, 0), None);
        assert_ne!(
            levels_for(&w16, 2, 0).root(),
            levels_for(&w256, 2, 0).root(),
            "the two keys' subtrees differ"
        );
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

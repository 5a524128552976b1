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
//! - **Value**: per key, a map from a packed `(layer, tree_idx)` (the
//!   layer above bit 24; every memoizable layer's trees fit below it) to
//!   a `u32` slot of the shard's page pool holding the subtree's leaves
//!   (`2^h' · n` bytes, 128 at 128f); the tree rebuilt from them is
//!   byte-identical to a fresh build. [`HypertreeCache::get`] copies them
//!   into the caller's buffer under the shard lock.
//! - **Pages**: each shard owns one pool of 4 KiB pages (a page is one
//!   slot where a subtree's leaves are larger), cut into slots of one
//!   subtree's leaves each — 32 at 128f — under the shard's own mutex.
//!   The first leaves stored set the slot size: an engine signs for one
//!   parameter set, and leaves of another size are not stored.
//!   An insert takes a freed slot, or else the next one, adding a page
//!   when the last is full; an eviction removes the key's index entries
//!   and returns its slots to the free list in the same critical
//!   section. Keys share pages, so a key that touches one subtree per
//!   layer pays five slots, not five pages. A shard releases its pages
//!   only when its last key leaves; until then its pool holds the
//!   high-water of its own resident slots since it was last empty,
//!   rounded up to a page ([`CacheStats::pool_bytes`]). The bound is
//!   per shard: keys still resident in a shard keep the pages of the
//!   keys evicted beside them, so all pools together can hold up to
//!   `max_bytes` plus a page for every shard that holds a key, while a
//!   shard that eviction empties holds none. A boxed slice per
//!   subtree paid a heap chunk and a 32-byte map bucket for every 128
//!   bytes of leaves, allocated among the signers' transient buffers;
//!   ARCHITECTURE's memoization section has the measurements, and the
//!   layouts tried and rejected.
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
use std::ops::Range;
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
    /// The page pools behind them are bounded per shard: a shard holding
    /// a key keeps the high-water of its resident leaf bytes since it was
    /// last empty, rounded up to a page, and an emptied shard releases its
    /// pages — at most `max_bytes` plus a page for each shard that holds
    /// a key ([`CacheStats::pool_bytes`]).
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
    /// Bytes of the shards' page pools: resident leaf bytes plus free
    /// slots and the unused tail of each shard's last page. A shard keeps
    /// its pages until its last key leaves, so this is each occupied
    /// shard's high-water since it was last empty.
    pub pool_bytes: u64,
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
        self.pool_bytes += other.pool_bytes;
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

/// Bytes of one pool page; a subtree's leaves larger than this take a
/// page each.
const PAGE_BYTES: usize = 4096;

/// The packed index key of a subtree: its layer above bit 24, its tree
/// below. `None` for a coordinate that does not pack, which no
/// memoizable layer has (at most `MAX_TREES_PER_LAYER` trees).
fn packed(layer: u32, tree_idx: u64) -> Option<u32> {
    (layer < 1 << 8 && tree_idx < 1 << 24).then_some(layer << 24 | tree_idx as u32)
}

/// Slots of one size, a subtree's leaves, cut from pages that are kept
/// while the shard holds a key, with a free list of the slots evicted
/// keys gave back.
#[derive(Default)]
struct Pool {
    /// Set by the first leaves stored: an engine signs for one parameter
    /// set, so all its subtrees' leaves are one size.
    slot_bytes: usize,
    slots_per_page: usize,
    pages: Vec<Box<[u8]>>,
    /// Slots handed out so far, free or in use: the next fresh slot.
    next: u32,
    free: Vec<u32>,
}

impl Pool {
    /// Whether leaves of `len` (non-zero) bytes fit the slots; the first
    /// size asked about sets them.
    fn fits(&mut self, len: usize) -> bool {
        if self.slot_bytes == 0 {
            self.slot_bytes = len;
            self.slots_per_page = (PAGE_BYTES / len).max(1);
        }
        self.slot_bytes == len
    }

    /// The page of `slot` and its bytes in that page.
    fn place(&self, slot: u32) -> (usize, Range<usize>) {
        let (page, at) = (
            slot as usize / self.slots_per_page,
            slot as usize % self.slots_per_page,
        );
        (page, at * self.slot_bytes..(at + 1) * self.slot_bytes)
    }

    fn slot(&self, slot: u32) -> &[u8] {
        let (page, bytes) = self.place(slot);
        &self.pages[page][bytes]
    }

    /// Stores `leaves` in a freed slot, or else the next one; returns the
    /// slot and the bytes of the page it had to add, if any.
    fn store(&mut self, leaves: &[u8]) -> (u32, usize) {
        let mut added = 0;
        let slot = self.free.pop().unwrap_or_else(|| {
            if self.next as usize == self.pages.len() * self.slots_per_page {
                added = self.slots_per_page * self.slot_bytes;
                self.pages.push(vec![0u8; added].into_boxed_slice());
            }
            self.next += 1;
            self.next - 1
        });
        let (page, bytes) = self.place(slot);
        self.pages[page][bytes].copy_from_slice(leaves);
        (slot, added)
    }

    /// Drops every page and slot, keeping the slot size; returns the
    /// page bytes released.
    fn release(&mut self) -> usize {
        let bytes = self.pages.len() * self.slots_per_page * self.slot_bytes;
        (self.pages, self.next, self.free) = (Vec::new(), 0, Vec::new());
        bytes
    }
}

/// One resident key: where its subtrees' leaves sit in the shard's pool,
/// plus LRU bookkeeping.
struct KeyEntry {
    /// Packed `(layer, tree_idx)` ([`packed`]) to slot.
    slots: HashMap<u32, u32>,
    last_used: u64,
}

/// One shard: its keys and the page pool their leaves live in.
#[derive(Default)]
struct Shard {
    keys: HashMap<KeyId, KeyEntry>,
    pool: Pool,
}

/// What removing one key gave back.
struct Removed {
    subtrees: u64,
    leaf_bytes: u64,
    /// Page bytes released: the whole pool when the shard's last key left.
    page_bytes: u64,
}

impl Shard {
    /// Removes `key` and returns its slots to the pool; when it was the
    /// shard's last key, the pool's pages go back to the allocator.
    fn remove(&mut self, key: &KeyId) -> Option<Removed> {
        let entry = self.keys.remove(key)?;
        let subtrees = entry.slots.len() as u64;
        let page_bytes = if self.keys.is_empty() {
            self.pool.release()
        } else {
            self.pool.free.extend(entry.slots.values());
            0
        };
        Some(Removed {
            subtrees,
            leaf_bytes: subtrees * self.pool.slot_bytes as u64,
            page_bytes: page_bytes as u64,
        })
    }
}

/// The sharded per-key subtree store — see the module docs for the
/// design. Shared by all clones of one engine; thread-safe.
pub struct HypertreeCache {
    config: CacheConfig,
    shards: Vec<Mutex<Shard>>,
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
    pool_bytes: AtomicU64,
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
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
            clock: AtomicU64::new(0),
            evicting: Mutex::new(()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident_bytes: AtomicU64::new(0),
            resident_keys: AtomicU64::new(0),
            resident_subtrees: AtomicU64::new(0),
            pool_bytes: AtomicU64::new(0),
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
    /// consistent (nothing in a critical section panics between two
    /// updates that must go together — a slot is written before it is
    /// indexed, and unindexed before it is freed), so the poison is
    /// cleared and the data reused.
    fn lock_shard(&self, index: usize) -> MutexGuard<'_, Shard> {
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
        let found = {
            let shard = &mut *self.lock_shard(key.shard());
            shard.keys.get_mut(key).is_some_and(|entry| {
                entry.last_used = self.clock.fetch_add(1, Ordering::Relaxed);
                packed(layer, tree_idx)
                    .and_then(|at| entry.slots.get(&at))
                    .map(|&slot| leaves.copy_from_slice(shard.pool.slot(slot)))
                    .is_some()
            })
        };
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
            && packed(layer, tree_idx).is_some_and(|at| {
                self.lock_shard(key.shard())
                    .keys
                    .get(key)
                    .is_some_and(|entry| entry.slots.contains_key(&at))
            })
    }

    /// Stores a copy of the leaves of one freshly built subtree of the
    /// key `key` ([`hero_sphincs::merkle::TreeLevels::leaves`]) in a slot
    /// of its shard's pool, then enforces the key and byte bounds by LRU
    /// eviction. A fired [`crate::faults::HYPERTREE_CACHE`] fail spec
    /// drops the fill (the signature already has the fresh nodes; the
    /// next sign pays cold). A coordinate no memoizable layer has (a tree
    /// index of 2^24 or more), empty leaves, or leaves of another size
    /// than the shard's first are not stored.
    pub fn insert(&self, key: &KeyId, layer: u32, tree_idx: u64, leaves: &[u8]) {
        let Some(at) = packed(layer, tree_idx) else {
            return;
        };
        if !self.config.enabled
            || leaves.is_empty()
            || crate::faults::fire(crate::faults::HYPERTREE_CACHE)
        {
            return;
        }
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        {
            let shard = &mut *self.lock_shard(key.shard());
            if !shard.pool.fits(leaves.len()) {
                return;
            }
            let entry = shard.keys.entry(*key).or_insert_with(|| {
                self.resident_keys.fetch_add(1, Ordering::Relaxed);
                KeyEntry {
                    slots: HashMap::new(),
                    last_used: now,
                }
            });
            entry.last_used = now;
            if let Entry::Vacant(index) = entry.slots.entry(at) {
                let (slot, added) = shard.pool.store(leaves);
                index.insert(slot);
                self.pool_bytes.fetch_add(added as u64, Ordering::Relaxed);
                self.resident_bytes
                    .fetch_add(leaves.len() as u64, Ordering::Relaxed);
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
            for (key, entry) in shard.keys.iter() {
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
            Some(removed) => {
                self.book_eviction(removed);
                true
            }
            // A forced eviction got there first; report progress anyway.
            None => true,
        }
    }

    /// Forced eviction of one key (the chaos path).
    fn evict_key(&self, key: &KeyId) {
        let removed = self.lock_shard(key.shard()).remove(key);
        if let Some(removed) = removed {
            self.book_eviction(removed);
        }
    }

    fn book_eviction(&self, removed: Removed) {
        self.resident_keys.fetch_sub(1, Ordering::Relaxed);
        self.resident_bytes
            .fetch_sub(removed.leaf_bytes, Ordering::Relaxed);
        self.resident_subtrees
            .fetch_sub(removed.subtrees, Ordering::Relaxed);
        self.pool_bytes
            .fetch_sub(removed.page_bytes, Ordering::Relaxed);
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
            pool_bytes: self.pool_bytes.load(Ordering::Relaxed),
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
        hypertree::subtrees(&ctx, sk.sk_seed(), &[item])
    }

    /// Fills `layer`'s `tree` of `sk` into `cache`.
    fn fill(cache: &HypertreeCache, sk: &SigningKey, layer: u32, tree: u64) {
        cache.insert(
            &KeyId::of(sk),
            layer,
            tree,
            levels_for(sk, layer, tree).leaves(0),
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
        cache.insert(&KeyId::of(&sk), 2, 0, levels.leaves(0));
        assert_eq!(served(&cache, &sk, 2, 0).as_deref(), Some(levels.leaves(0)));
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
                    cache.insert(&new, 1, tree as u64, levels.leaves(0));
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

    /// An identity whose first byte, and so whose shard, is `first`, for
    /// tests that place keys and fill synthetic leaves: the cache never
    /// reads what it stores.
    fn id(first: u8, rest: u8) -> KeyId {
        let mut bytes = [rest; 32];
        bytes[0] = first;
        KeyId(bytes)
    }

    /// After an eviction, the next key of the shard takes the freed
    /// slots: the pool does not grow, the new key is served its own
    /// bytes, and the evicted key misses.
    #[test]
    fn evicted_slots_are_reused_by_the_next_key() {
        let cache = HypertreeCache::new(CacheConfig {
            max_keys: 1,
            ..CacheConfig::default()
        });
        let (a, b) = (id(1, 0xA0), id(1 + SHARDS as u8, 0xB0));
        assert_eq!(a.shard(), b.shard());
        let leaves = |key: &KeyId, tree: u64| vec![key.0[1] ^ tree as u8; 64];
        let served = |key: &KeyId, tree: u64| {
            let mut out = vec![0u8; 64];
            cache.get(key, 1, tree, &mut out).then_some(out)
        };
        for tree in 0..3 {
            cache.insert(&a, 1, tree, &leaves(&a, tree));
        }
        // B's first fill takes a fresh slot; the key bound then evicts A
        // and frees its three.
        cache.insert(&b, 1, 0, &leaves(&b, 0));
        assert_eq!(cache.stats().evictions, 1);
        for tree in 1..4 {
            cache.insert(&b, 1, tree, &leaves(&b, tree));
        }
        {
            let shard = cache.lock_shard(a.shard());
            let pool = &shard.pool;
            assert_eq!(pool.next, 4, "B's last three fills took A's slots");
            assert!(pool.free.is_empty());
        }
        for tree in 0..4 {
            assert_eq!(served(&b, tree), Some(leaves(&b, tree)), "B tree {tree}");
        }
        for tree in 0..3 {
            assert_eq!(served(&a, tree), None, "A tree {tree}");
        }
        let s = cache.stats();
        assert_eq!((s.resident_keys, s.resident_subtrees), (1, 4));
        assert_eq!(s.resident_bytes, 4 * 64);
        assert_eq!(s.pool_bytes, PAGE_BYTES as u64);
    }

    /// 256 keys that each touch one subtree of every memoizable 128f
    /// layer share their shards' pages: the pool holds no more than the
    /// resident leaf bytes plus one part-filled page per shard, where a
    /// page of its own per key would hold a page a key.
    #[test]
    fn sparse_keys_share_pages() {
        let p = Params::sphincs_128f();
        let slot = p.n << p.tree_height();
        let cache = HypertreeCache::new(CacheConfig::default());
        let layers: Vec<u32> = (0..p.d as u32)
            .filter(|&layer| cache.caches_layer(&p, layer))
            .collect();
        assert_eq!(layers, [17, 18, 19, 20, 21]);
        for k in 0..=255u8 {
            for &layer in &layers {
                let tree = (k as u64 * 7) % layer_tree_count(&p, layer);
                cache.insert(&id(k, k), layer, tree, &vec![k; slot]);
            }
        }
        let s = cache.stats();
        assert_eq!((s.resident_keys, s.resident_subtrees), (256, 256 * 5));
        assert_eq!(s.resident_bytes, 256 * 5 * slot as u64);
        assert!(
            s.pool_bytes <= s.resident_bytes + (SHARDS * PAGE_BYTES) as u64,
            "{s:?}"
        );
        assert!(s.pool_bytes < 256 * PAGE_BYTES as u64, "{s:?}");
    }

    /// Keys rotating through shards under a byte bound that holds one
    /// key: each key evicts the one before it, in another shard, which
    /// empties that shard and releases its pages. The pools hold one
    /// key's pages, not one key's pages in every shard it passed through.
    #[test]
    fn emptied_shards_release_their_pages() {
        let (slot, fills) = (128, 40);
        let cache = HypertreeCache::new(CacheConfig {
            max_bytes: fills * slot,
            ..CacheConfig::default()
        });
        let key_pages = fills.div_ceil(PAGE_BYTES / slot) * PAGE_BYTES;
        for shard in 0..SHARDS as u8 {
            let key = id(shard, shard);
            for tree in 0..fills as u64 {
                cache.insert(&key, 17, tree, &vec![shard; slot]);
            }
            let s = cache.stats();
            assert_eq!(s.evictions, shard as u64, "{s:?}");
            assert_eq!(s.resident_keys, 1, "{s:?}");
            assert_eq!(s.resident_bytes, (fills * slot) as u64, "{s:?}");
            // The documented bound, `max_bytes` plus a page for the one
            // shard holding a key, met exactly by the key's two pages.
            assert!(s.pool_bytes <= (fills * slot + PAGE_BYTES) as u64, "{s:?}");
            assert_eq!(s.pool_bytes, key_pages as u64, "{s:?}");
        }
        let mut leaves = vec![0; slot];
        assert!(cache.get(&id(15, 15), 17, 0, &mut leaves));
        assert_eq!(leaves, [15; 128]);
        assert!(!cache.get(&id(14, 14), 17, 0, &mut leaves));
        for shard in 0..SHARDS - 1 {
            let pool = &cache.lock_shard(shard).pool;
            assert!(
                pool.pages.is_empty() && pool.free.is_empty(),
                "shard {shard}"
            );
            assert_eq!(pool.next, 0, "shard {shard}");
        }
    }

    /// A tree index that does not pack is never stored, so it cannot
    /// alias another coordinate, and leaves of another size than the
    /// shard's slots are not stored either.
    #[test]
    fn unstorable_fills_are_dropped() {
        let cache = HypertreeCache::new(CacheConfig::default());
        let key = id(3, 3);
        cache.insert(&key, 1, 1 << 24, &[7; 64]);
        assert!(!cache.contains(&key, 1, 1 << 24));
        assert!(!cache.contains(&key, 2, 0));
        assert_eq!(cache.stats().resident_subtrees, 0);
        cache.insert(&key, 1, 0, &[7; 64]);
        cache.insert(&key, 1, 1, &[7; 32]);
        assert!(cache.contains(&key, 1, 0));
        assert!(!cache.contains(&key, 1, 1));
        assert_eq!(cache.stats().resident_bytes, 64);
        assert_eq!(packed(1, 5), Some(1 << 24 | 5));
        assert_eq!(packed(256, 0), None);
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
            levels_for(&w16, 2, 0).root(0),
            levels_for(&w256, 2, 0).root(0),
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

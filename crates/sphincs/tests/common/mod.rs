//! What the forced-tier suites share: a deterministic stream, the way
//! they force a tier, and how a list of chain jobs reads in the
//! reference's terms.
//!
//! Forcing a tier is process-global, so the tests of a file that do it
//! take turns ([`TIER_LOCK`]): each one then really runs the body it
//! names.

use hero_sphincs::hash::{ChainHead, ChainJob, HashCtx};
use hero_sphincs::reference;
use hero_sphincs::tier::{self, HashTier};
use std::sync::Mutex;

pub static TIER_LOCK: Mutex<()> = Mutex::new(());

/// Runs `body` with every primitive forced to `tier`.
pub fn with_forced_tier<R>(tier: HashTier, body: impl FnOnce() -> R) -> R {
    struct Restore(tier::ActiveTiers);
    impl Drop for Restore {
        fn drop(&mut self) {
            tier::restore_tier(self.0);
        }
    }
    let _guard = Restore(tier::force_tier(tier));
    body()
}

/// xorshift64*: the tests' own stream, so a case is its seed. (Not every
/// suite that shares this file draws from it.)
#[allow(dead_code)]
pub struct Stream(pub u64);

#[allow(dead_code)]
impl Stream {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, bound: u32) -> u32 {
        (self.next() % bound as u64) as u32
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// What `f_chains` must leave in `nodes`: every job one
/// [`reference::chain`], from the node or from [`reference::wots_sk`].
/// (Not every suite that shares this file runs chains.)
#[allow(dead_code)]
pub fn reference_chains(ctx: &HashCtx, jobs: &[ChainJob], nodes: &[u8]) -> Vec<u8> {
    jobs.iter()
        .zip(nodes.chunks_exact(ctx.params().n))
        .flat_map(|(job, node)| {
            let mut adrs = job.adrs;
            let head = match job.head {
                ChainHead::Node => node.to_vec(),
                ChainHead::Secret(sk_seed) => reference::wots_sk(ctx, sk_seed, &adrs, adrs.chain()),
            };
            reference::chain(ctx, &head, job.start, job.steps, &mut adrs)
        })
        .collect()
}

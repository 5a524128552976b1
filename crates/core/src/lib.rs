//! # hero-sign
//!
//! A Rust reproduction of **HERO-Sign** (Zhou & Wang, HPCA 2026):
//! hierarchical tuning and compile-time GPU optimizations for SPHINCS+
//! signature generation, running on the `hero-gpu-sim` execution model
//! with functionally real signatures from `hero-sphincs`.
//!
//! ## What's here
//!
//! * [`builder`] — fallible construction of [`HeroSigner`] engines
//!   ([`HeroSigner::builder`]): parameters, workers, cache.
//! * [`error`] — the typed [`HeroError`] every fallible operation
//!   reports.
//! * [`faults`] — deterministic, seeded fault injection (`HERO_FAULTS`)
//!   threaded through the hot seams; zero-cost no-op when disabled.
//! * [`cache`] — per-key hypertree memoization: a sharded LRU cache of
//!   each resident subtree's leaves, from which a hit rebuilds the nodes
//!   above them, so steady-state signing with one key pays only FORS
//!   plus the churning bottom layers.
//! * [`tuning`] — the offline **Auto Tree Tuning** search (Algorithm 1)
//!   and the Relax-FORS variant; reproduces Table IV.
//! * [`kernels`] — the three component kernels (`FORS_Sign`, `TREE_Sign`,
//!   `WOTS+_Sign`) and batch verification, each with a functional face
//!   (the `hero_sphincs` stage functions [`plan`] schedules, under the
//!   kernel's name; verification's is the [`VerifyOutcome`] verdict) and
//!   an analytic face (simulator descriptors with *measured*
//!   bank-conflict counts).
//! * [`ptx`] — native/PTX SHA-2 code-path models and the per-kernel
//!   register tables; the raw material of Table V.
//! * [`plan`] — the cross-message batch planner: one `sign_batch` call
//!   cuts every message's stage lists (`hero_sphincs::sign::Stages`,
//!   the decomposition a lone `SigningKey::sign` runs) into one stage
//!   graph (FORS tree groups, subtree treehashes, WOTS+ chain groups
//!   spanning messages) submitted onto the persistent
//!   [`hero_task_graph::Executor`] runtime.
//! * [`engine`] — [`HeroSigner`], the one signer: plans and signs
//!   batches, verifies them, warms keys; holds the stream runtime and the
//!   hypertree cache in `Arc`s so clones and concurrent callers — the
//!   service, the server — share one worker pool. Reads nothing of the
//!   model below.
//! * [`model`] — [`SimModel`], the GPU pricing model: tune → select
//!   branches → simulate [`PipelineOptions`] workloads (Figs. 11–14). No
//!   worker pool, no cache; built only by whoever prices.
//! * [`service`] — [`SignService`]: the work-conserving micro-batching
//!   signing server; many clients, one coalesced accelerator.
//! * [`stats`] — the shared latency-percentile machinery (p50/p90/p99)
//!   behind the CLI `throughput` command and the server's metrics
//!   endpoint.
//! * [`workload`] — exact hash-work censuses per kernel.
//! * [`par`] — the default worker count (`HERO_WORKERS`) and the
//!   process-wide executor.
//!
//! ## Quickstart
//!
//! Generate a key with [`hero_sphincs::keygen`], build an engine through
//! the fallible builder and sign with it; build a [`SimModel`] to price
//! the same workload on the modeled RTX 4090:
//!
//! ```
//! use hero_gpu_sim::device::rtx_4090;
//! use hero_sign::{HeroSigner, PipelineOptions, SimModel};
//! use hero_sphincs::params::Params;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Reduced parameters keep the doc test fast.
//! let mut params = Params::sphincs_128f();
//! params.h = 6; params.d = 3; params.log_t = 4; params.k = 8;
//!
//! let engine = HeroSigner::builder(rtx_4090(), params).workers(4).build()?;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let (sk, vk) = hero_sphincs::keygen(params, &mut rng)?;
//! let sig = engine.sign(&sk, b"hello")?;
//! vk.verify(b"hello", &sig)?;
//!
//! // The scalar reference is a second implementation of the scheme, and
//! // produces the same bytes.
//! assert_eq!(hero_sphincs::reference::sign(&sk, b"hello"), sig);
//!
//! // Simulated RTX 4090 throughput for a 1024-message batch pipeline:
//! let model = SimModel::hero(rtx_4090(), params)?;
//! let report = model.simulate(PipelineOptions::new(1024).batch_size(64))?;
//! assert!(report.kops > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod cache;
pub mod engine;
pub mod error;
pub mod faults;
pub mod kernels;
pub mod model;
pub mod par;
pub mod plan;
pub mod ptx;
pub mod service;
pub mod stats;
pub mod tuning;
pub mod workload;

pub use builder::HeroSignerBuilder;
pub use cache::{CacheConfig, CacheStats, HypertreeCache};
pub use engine::HeroSigner;
pub use error::HeroError;
pub use faults::{FaultAction, FaultPlan, FaultSpec};
pub use kernels::verify::VerifyOutcome;
pub use model::{LaunchPolicy, OptConfig, PipelineOptions, PipelineReport, PtxPolicy, SimModel};
pub use plan::{PlanShape, PlanSummary};
pub use ptx::{BranchSelection, KernelKind};
pub use service::{
    ServiceConfig, ServiceError, ServiceStats, SignService, SignTicket, Ticket, VerifyTicket,
};
pub use stats::{LatencySummary, LatencyWindow};
pub use tuning::{tune, tune_auto, tune_relax, FusionCandidate, TuningOptions, TuningResult};

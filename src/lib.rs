//! Umbrella crate for the HERO-Sign reproduction workspace.
//!
//! Re-exports the member crates under one roof so the repository-level
//! examples and integration tests (and downstream experiments) can
//! depend on a single package. See the individual crates for the real
//! content:
//!
//! * [`hero_sphincs`] — the functional SPHINCS+ substrate.
//! * [`hero_gpu_sim`] — the analytical GPU execution model.
//! * [`hero_task_graph`] — CUDA-Graph-style batch execution.
//! * [`hero_sign`] — the HERO-Sign engine (`HeroSigner`, the one
//!   signer), its service, and the tuning search and GPU model.

#![warn(missing_docs)]

pub use hero_gpu_sim;
pub use hero_sign;
pub use hero_sphincs;
pub use hero_task_graph;

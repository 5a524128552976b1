//! hero-server: a network-facing multi-tenant sign/verify service over
//! a length-prefixed TCP protocol.
//!
//! This crate turns the in-process signing stack — [`HeroSigner`]
//! engines on a shared [`Executor`] worker pool, fronted by per-key
//! micro-batching [`SignService`]s — into a service a fleet of clients
//! can share:
//!
//! * [`wire`] — the versioned binary protocol: `u32` length prefix,
//!   request id, tenant, opcode (keygen / sign / sign-batch / verify /
//!   stats), big-endian throughout;
//! * [`error`] — stable numeric error codes mirroring
//!   [`HeroError`](hero_sign::HeroError) and
//!   [`ServiceError`](hero_sign::ServiceError) as a protocol contract;
//! * [`keyfile`] — the hex key-file format (shared with the CLI);
//! * [`keystore`] — tenant → key pair behind sharded locks;
//! * [`server`] — the TCP server: per-tenant services and admission
//!   control, fair dequeueing on the shared executor, graceful drain
//!   (every accepted request answered exactly once), plaintext metrics;
//! * [`client`] — a blocking client used by the CLI's `serve` /
//!   `remote-sign` commands and by `perfbench`'s `wire_mixed` workload;
//! * [`metrics`] — counters and latency percentiles behind the `stats`
//!   op and the metrics listener.
//!
//! Everything is `std`-only: hand-rolled framing over `TcpListener` /
//! `TcpStream`, thread-per-connection, no async runtime — batching
//! parallelism lives below in the service/executor layers, exactly
//! where the paper puts it.
//!
//! ```no_run
//! use hero_server::client::Client;
//! use hero_server::keystore::KeyStore;
//! use hero_server::server::{hero_engine_factory, Server, ServerConfig};
//!
//! let factory = hero_engine_factory(None)?;
//! let keystore = KeyStore::new();
//! keystore.load_dir(std::path::Path::new("keys/"))?;
//! let server = Server::start(factory, keystore, ServerConfig::default())?;
//!
//! let mut client = Client::connect(server.local_addr())?;
//! let sig = client.sign("validator-1", b"attestation")?;
//! assert!(client.verify("validator-1", b"attestation", &sig)?);
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`HeroSigner`]: hero_sign::HeroSigner
//! [`Executor`]: hero_task_graph::Executor
//! [`SignService`]: hero_sign::SignService

#![forbid(unsafe_code)]

pub mod client;
pub mod error;
pub mod faults;
pub mod keyfile;
pub mod keystore;
pub mod metrics;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, KeygenReply, VerifyVerdict};
pub use error::{ErrorCode, WireError};
pub use keystore::{KeyStore, ShardedMap, TenantKey};
pub use server::{hero_engine_factory, Server, ServerConfig, ServerError, SignerFactory};
pub use wire::{Op, Request, Response, WIRE_VERSION};

//! # pir-engine
//!
//! The multi-stream serving layer: everything below this crate speaks
//! *one* stream at a time (the paper's setting), while production traffic
//! is *millions* of concurrent user streams. `pir-engine` closes that gap
//! with three pieces:
//!
//! - [`MechanismSpec`] — a cloneable, declarative description of which
//!   paper mechanism to run (`PrivIncErm` §3, `PrivIncReg1` §4,
//!   `PrivIncReg2` §5, or a baseline) and with what knobs, so callers
//!   spawn any of them uniformly;
//! - [`StreamSession`] — one user stream: a
//!   [`pir_core::IncrementalMechanism`] plus the
//!   [`pir_dp::PrivacyAccountant`] guarding its per-stream `(ε, δ)`
//!   budget;
//! - [`ShardedEngine`] — hash-partitions sessions across shards, drives
//!   the shards on scoped worker threads, and feeds each session's
//!   arrivals through the mechanisms' amortized
//!   [`observe_batch`](pir_core::IncrementalMechanism::observe_batch)
//!   paths.
//!
//! On top of the synchronous engine sit the scale-out pieces:
//!
//! - [`EngineHandle`] ([`ingress`]) — the pipelined frontend: per-shard
//!   bounded queues, non-blocking [`Command`] submission with
//!   [`Ticket`]ed replies, atomic backpressure, and flush/close drain
//!   semantics;
//! - [`SubmitHandle`] ([`ingress`]) — the shareable front door:
//!   `Clone + Send + Sync`, so any number of threads feed one engine
//!   concurrently with no external lock;
//! - [`wire`] — the length-prefixed binary protocol for commands and
//!   replies (documented byte-for-byte in `docs/PROTOCOL.md`);
//! - [`server`] — the connection loop driving a [`SubmitHandle`] from
//!   decoded frames, replies strictly in command order, flow-controlling
//!   on transient backpressure;
//! - [`tcp`] — the thread-per-connection TCP front ([`serve_tcp`]):
//!   accept loop, per-connection threads with cloned submit handles,
//!   connection caps, graceful shutdown.
//!
//! Determinism is a design invariant: a session's noise stream is derived
//! from `(engine seed, session id)` alone, so a fleet's entire release
//! history is reproducible from one number and is unchanged by resharding
//! or thread scheduling. The batched paths are release-for-release
//! identical to sequential observation (the law checked by the
//! `batch_equivalence` test suite), so batching is purely a throughput
//! optimization — never a semantic one.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod engine;
mod error;
pub mod ingress;
pub mod server;
mod session;
mod shard;
pub mod snapshot;
mod spec;
pub mod storage;
mod sync;
pub mod tcp;
pub mod wal;
pub mod wire;

pub use engine::{EngineConfig, ShardedEngine};
pub use error::EngineError;
pub use ingress::{
    Command, EngineHandle, IngressConfig, IngressStats, Reply, SpillOptions, SpillStats,
    SubmitHandle, Ticket, WalStats,
};
pub use server::{serve_connection, ServeStats};
pub use session::StreamSession;
pub use snapshot::SnapshotError;
pub use spec::{LossSpec, MechanismSpec, SetSpec, SolverSpec};
pub use storage::{CrashProfile, OsStorage, SimDisk, Storage, StorageFile, StorageHandle};
pub use tcp::{serve_tcp, serve_tcp_with, TcpFront, TcpOptions, TcpStats};
pub use wal::{
    checkpoint, checkpoint_with_storage, recover, recover_with_storage, CheckpointPolicy,
    CheckpointReport, FsyncPolicy, RecoveryReport, WalError, WalFailurePolicy, WalOptions,
    WalWriter,
};

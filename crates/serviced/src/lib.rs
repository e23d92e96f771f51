//! `perspectrond` — the online detection service around the PerSpectron
//! engine.
//!
//! The paper's hardware unit scores every sampling period of one machine;
//! this crate is the fleet-scale software analogue: a long-lived service
//! that multiplexes thousands of concurrent telemetry **streams** (one
//! per monitored core/tenant) through the bit-packed batched inference
//! engine. Three pieces:
//!
//! - the sharded service itself ([`Perspectrond`]): worker threads owning
//!   per-stream [`StreamSession`](perspectron::StreamSession)s, bounded
//!   queues with explicit [`SubmitError::Busy`] backpressure, width
//!   checks that refuse a malformed row ([`SubmitError::Malformed`])
//!   before it reaches a shard, and
//!   cross-session batched `score_rows` sweeps. Per-stream verdicts are
//!   bit-identical to running the stream alone through
//!   `PerSpectron::streaming_packed`, independent of shard count and
//!   arrival interleaving.
//! - the load generator ([`replay_clients`]): replays an on-disk columnar
//!   corpus (`perspectron::corpus_io`) as N concurrent streams spread
//!   over a few client threads, driving the service the way a fleet
//!   would.
//! - the `perspectrond` binary — trains on a corpus, starts the service,
//!   replays load against it, and prints the operational report.
//!
//! The service is fault tolerant: each shard worker runs under an
//! Erlang-style supervisor that respawns it after panics (repairing the
//! shard state it left behind and re-scoring the in-flight batch, so
//! verdicts stay bit-identical) and restarts it when it finds itself
//! wedged. Failures are typed — [`ShardRestart`] events in the report,
//! [`ServiceError::ShardPanicked`] with partial results at shutdown — and
//! a [`ChaosSpec`] injects them deterministically from a seed, so the
//! whole recovery surface is testable byte-for-byte. A [`SubmitPolicy`]
//! gives producers deadline-bounded, deterministically-jittered retry
//! behavior around backpressure.

#![warn(missing_docs)]

mod chaos;
mod policy;
mod replay;
mod service;

pub use chaos::{ChaosSpec, PanicAt, PoisonPill, StallAt};
pub use policy::SubmitPolicy;
pub use replay::{replay_clients, ReplayConfig, ReplayOutcome};
pub use service::{
    Perspectrond, RestartCause, ServiceConfig, ServiceError, ServiceReport, ShardRestart,
    StreamOutcome, SubmitError, Submitter,
};

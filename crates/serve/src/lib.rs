//! `reaper-serve`: a zero-dependency profiling service.
//!
//! The library crates compute retention-failure profiles as pure
//! functions of a request; this crate puts that behind a network
//! boundary without giving up any of it:
//!
//! * [`http`] — a hand-rolled HTTP/1.1 subset over `std::net` (request
//!   parsing, `Content-Length` framing, keep-alive),
//! * [`json`] — a dependency-free JSON parser/encoder that keeps `u64`
//!   seeds exact,
//! * [`api`] — JSON bodies ↔ [`reaper_core::ProfilingRequest`] mapping,
//! * [`store`] — the content-addressed profile store: one
//!   append-then-compact epoch log per profile with `RPD1` delta records,
//!   content-addressed chunk dedup, logical-tick LRU eviction, and
//!   metadata that survives eviction (the ETag source),
//! * [`metrics`] — counters, latency histograms, and a Prometheus text
//!   renderer,
//! * [`server`] — accept loop, bounded job queue, and a worker pool
//!   built on [`reaper_exec::pool`],
//! * [`client`] — a std-only client used by the smoke test and the load
//!   generator.
//!
//! ## Endpoints
//!
//! | Endpoint | Purpose |
//! |---|---|
//! | `POST /v1/jobs` | Submit a job; identical requests dedup to one ID |
//! | `GET /v1/jobs/{id}` | Job status + result summary |
//! | `GET /v1/profiles/{id}` | Encoded head profile (`?format=json` decodes); strong ETag + `If-None-Match` → 304 |
//! | `POST /v1/profiles/{id}/epochs` | Push a re-profiling snapshot; appends an `RPD1` delta, advances the head |
//! | `GET /v1/profiles/{id}/delta?since=N` | Minimal update from epoch N: delta chain, full fallback, or 304 |
//! | `GET /v1/profiles/{id}/watch` | Chunked long-poll subscription; one wire message per chunk |
//! | `GET /v1/sync/manifest` | Per-profile head coordinates + job records, for fleet replication |
//! | `GET /metrics` | Prometheus text exposition (plus `reaper_fleet_*` identity series) |
//! | `GET /healthz` | Liveness + fleet identity (role, shard id, store epoch) |
//!
//! ## Determinism contract
//!
//! Job IDs are the splitmix64-chained hash of the request's canonical
//! bytes ([`reaper_core::ProfilingRequest::job_id`]); execution is
//! [`reaper_core::ProfilingRequest::execute`], the same code path as a
//! direct library call. Served profile bytes are therefore bit-identical
//! to `FailureProfile::to_bytes` of an in-process run, at any worker or
//! thread count. Wall-clock reads exist only in [`metrics`] (latency
//! histograms) under a scoped lint exemption; they feed no result bytes.

// Tests assert exact float equality on purpose (determinism contract);
// clippy.toml has no in-tests knob for float_cmp.
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod api;
pub mod client;
#[cfg(unix)]
pub mod eventloop;
pub mod http;
pub mod json;
pub mod metrics;
pub mod server;
pub mod store;

pub use api::{JobRequest, JobSummary};
pub use client::{
    Client, ClientError, ConnectionPool, DeltaFetch, ProfileFetch, ProfileUpdate, PushReceipt,
    SubmitReceipt,
};
pub use metrics::{
    FleetIdentity, FleetMetrics, MetricsSnapshot, PortfolioMetrics, ServiceMetrics, StoreGauges,
};
pub use server::{ConnectionModel, Server, ServerConfig, SyncHandle};
pub use store::{ProfileStore, StoreConfig, SyncApply};

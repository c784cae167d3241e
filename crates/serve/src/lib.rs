//! The live telemetry plane (DESIGN.md §14): a resident, zero-dependency
//! HTTP exposition of what a running fleet is doing.
//!
//! PR 4's observability layer snapshots its Prometheus exposition only
//! *after* a run finishes; a multi-day fleet is a black box exactly when
//! an operator needs it least to be. This crate closes that gap with
//! three pieces, all `std::net` only (vendored-stub compatible — no
//! hyper, no tokio):
//!
//! - [`TelemetryServer`] — a hand-rolled HTTP/1.0 listener serving
//!   `GET /metrics` (Prometheus text), `GET /health` (fleet health JSON),
//!   and `GET /trace/tail?n=K` (the last K sealed trace lines);
//! - [`SharedRegistry`] — a lock-striped [`MetricsRegistry`] wrapper for
//!   fleets whose shard workers record concurrently: each metric name
//!   hashes to exactly one stripe, so stripes merge disjointly into one
//!   deterministic exposition;
//! - [`SnapshotPublisher`] — the write side of the server's state. The
//!   fleet's **sequential** supervisor section publishes a pre-rendered
//!   snapshot after each day-close; scrapes read only published
//!   snapshots.
//!
//! ## The determinism argument
//!
//! The PR 4 contract says telemetry must never change results. The server
//! preserves it structurally:
//!
//! 1. Workers never touch the server. Only the supervisor's sequential
//!    section calls [`SnapshotPublisher`]'s `publish_*` methods, at day-close
//!    quiescence points where no shard worker is running.
//! 2. The server never touches the registries. Scrape handlers read
//!    pre-rendered strings from the published snapshot; no request can
//!    observe (or perturb) a half-recorded day, which is also why mid-run
//!    counters are **monotone**: each published snapshot is a quiescent
//!    prefix of the next.
//! 3. Nothing flows back. The serving thread shares no state with the
//!    pipeline except the snapshot strings, so a slow, hostile, or absent
//!    scraper cannot shift a single RNG draw — with `--serve` or without,
//!    results are bit-identical (`tests/serve_live.rs` asserts it).
//!
//! [`MetricsRegistry`]: nms_obs::MetricsRegistry

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod http;
mod registry;
mod server;

pub use registry::SharedRegistry;
pub use server::{SnapshotPublisher, TelemetryServer, TraceTail};

//! # hanayo-serve
//!
//! The resident planning service: planning a large training run is a
//! *sequence* of related questions — sweep, narrow, re-sweep with a
//! different batch, compare clusters — and the one-shot CLIs rebuild
//! every schedule, cost table and simulation from scratch each time.
//! This crate keeps the planner resident instead:
//!
//! * **One process, many requests** — an HTTP/1.1 host over a local TCP
//!   socket (std-library-only; no web framework) with JSON endpoints for
//!   `plan`, `tune`, `simulate` and `analyze` answering exactly the
//!   documents the CLIs print. Byte-identical, in fact: both are built
//!   by the same [`schema`] functions, and tests diff the two paths.
//! * **Cross-request caches** — sweep artifacts live in two tiers.
//!   Schedule shapes (each with its lowered program and deadlock
//!   verdict) and their prefetch windows depend on `(scheme, P, B)`
//!   alone, so one [`hanayo_sim::ShapeTier`] serves every configuration
//!   and outlives their evictions. Cost tables, memory replays,
//!   critical paths and group reports live in per-configuration
//!   [`hanayo_sim::SweepCaches`] over it, keyed by an FNV fingerprint of
//!   the `(model, cluster)` pair. A repeated or narrowed sweep costs a
//!   fraction of a cold one, and a cold configuration rebuilds only what
//!   its cluster and model change.
//! * **Request dedup** — N identical concurrent `tune` requests elect
//!   one leader; followers wait and receive the leader's bytes. One
//!   evaluation, N answers.
//! * **Background jobs** — `submit → ack(job_id) → status → result`
//!   with interest-counted cancellation: a sweep aborts (at a candidate
//!   batch checkpoint, via [`hanayo_core::abort::AbortFlag`]) only when
//!   its last interested submitter cancels.
//! * **Observability** — `GET /metrics` serves the
//!   [`hanayo_metrics`] registry as Prometheus text: per-endpoint
//!   request counts and latency histograms, cache sizes, dedup joins,
//!   job outcomes, plus every tuner cache counter.
//! * **Graceful drain** — SIGTERM/SIGINT (or `POST /shutdown`) stops
//!   accepting work, aborts running sweeps at their next checkpoint,
//!   joins the workers and exits 0.

pub mod client;
pub mod http;
mod jobs;
pub mod schema;
mod server;
pub mod signal;
mod state;

pub use client::{Client, ClientError, ClientResponse};
pub use server::{serve, Server};

//! # selfheal-serve
//!
//! Healing-as-a-service: many independent spec-built healing engines —
//! one shard per tenant — behind a sharded scheduler, ingesting failure
//! events over a line protocol and answering topology queries from
//! lock-free snapshots while heals proceed.
//!
//! The paper's model is a batch event loop; the ROADMAP north star is a
//! long-lived, multi-tenant service. This crate is that serving layer:
//!
//! - [`snapshot`] — the headline mechanism: an epoch-stamped,
//!   double-buffered [`SnapSlot`](snapshot::SnapSlot) published with
//!   atomic swaps, so reads never lock; a publish waits only while a
//!   reader still holds the buffer it is about to refill (the
//!   publish/read protocol is model-checked in `tests/loom.rs`);
//! - [`shard`] — one tenant's engine + queue + metrics + auditor, with
//!   a panic-free request path (hostile events are rejected, no-op
//!   events are counted as skips);
//! - [`cluster`] — the scheduler: every tick claims each shard exactly
//!   once on `graph::parallel`'s pool, so final reports are
//!   byte-identical for any worker count;
//! - [`proto`] — the `tenant-id <event>` line protocol and the query
//!   vocabulary (`components`, `degree`, `gprime-edges`, `stats`).
//!
//! The `selfheal-serve` binary serves a directory of `.scn` specs and
//! drives the cluster from stdin or a replay file; the library API is
//! driven directly by `tests/serve.rs` and experiment E13
//! (`run-experiments serve-bench`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod proto;
pub mod shard;
pub mod snapshot;

pub use cluster::Cluster;
pub use proto::{answer, parse_request, Query, Request};
pub use shard::{Shard, ShardSnapshot, MAX_BATCH};
pub use snapshot::{slot_pair, SnapSlot, SnapshotReader, SnapshotWriter};

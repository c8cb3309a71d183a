//! # gdp-serve
//!
//! The **cache-answering certificate service** over the durable cell store:
//! a long-running TCP server (`gdp serve`) that accepts scenario-sweep
//! specs as line-delimited JSON, answers cache hits straight from the
//! content-addressed [`CellStore`](gdp_scenarios::CellStore), schedules
//! misses onto a fixed [`WorkerPool`] with **bounded** queueing (full queue
//! ⇒ one retryable `error` line, never unbounded buffering), and streams
//! per-cell results in deterministic grid order with a self-verifying
//! digest footer.
//!
//! The service exists because sweep cells are pure functions of
//! *(spec store context, cell key)* with byte-reproducible outputs — the
//! determinism contract the whole workspace is built on.  That purity is
//! what makes a shared cache *correct*: any number of clients, workers and
//! server restarts may race on one store directory, and every byte a
//! client ever receives for a given cell is identical.  The wire format
//! reuses [`cell_json`](gdp_scenarios::cell_json), so a served cell and a
//! `gdp sweep` artifact cell agree byte for byte.
//!
//! Offline container ⇒ **std only**: `std::net::TcpListener` + threads, a
//! hand-written flat-JSON request parser ([`protocol`]), and a raw
//! `signal(2)` binding ([`signal`]) as the crate's single
//! `#[allow(unsafe_code)]` island.  Observability flows through
//! [`gdp_observe`]: the server's [`ServeMetrics`] *is* an
//! [`EventSink`](gdp_observe::EventSink), tallying the same
//! `store_hit`/`store_miss`/cell lifecycle events a `gdp sweep` emits, plus
//! queue-depth gauges and a request-latency histogram served by the
//! `metrics` request.
//!
//! See `docs/SERVE.md` for the protocol schema, the caching/queueing model,
//! shutdown semantics, and the metrics reference.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod pool;
pub mod protocol;
mod server;
pub mod signal;

pub use metrics::ServeMetrics;
pub use pool::{QueueFull, WorkerPool};
pub use protocol::{parse_request, Request, SweepRequest};
pub use server::{run_serve, ServeConfig, MAX_CONNECTIONS};

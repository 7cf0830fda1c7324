//! qoz-serve: a fault-tolerant compression daemon, run as `qoz serve`.
//!
//! Long-running HPC workflows want compression as a *service*: a warm
//! process that keeps tuned plans and scratch arenas alive across
//! thousands of snapshots instead of paying the cold-tune tax per call.
//! A resident process, though, inherits every failure mode the one-shot
//! CLI never sees — slow clients, malformed frames, overload, worker
//! crashes, kill -9 — so this crate treats robustness as the design
//! axis, not an afterthought:
//!
//! * **Framed protocol** ([`protocol`]) — length-prefixed frames whose
//!   payloads carry an XXH64 checksum, over a transport-abstract
//!   [`channel::Channel`] (TCP or Unix socket). Nothing is trusted
//!   before validation; a hostile peer, or one speaking an older
//!   protocol version, earns a typed error, never a panic or an
//!   allocation proportional to a lied-about length.
//! * **Bounded admission** ([`server`]) — requests queue into one
//!   bounded queue that a fixed set of worker threads drain; when it is
//!   full the daemon answers [`protocol::ErrorCode::Overloaded`]
//!   *immediately* instead of buffering unbounded memory behind slow
//!   workers.
//! * **Deadlines** — every request carries a budget; it is enforced at
//!   dequeue and again between serving stages, so a request that missed
//!   its window is dropped cheaply rather than served uselessly.
//! * **Panic isolation** — a worker panic becomes a typed
//!   [`protocol::ErrorCode::WorkerPanic`] response; the worker rebuilds
//!   its state from scratch and serves the next request, and the
//!   process never dies.
//! * **Graceful shutdown & warm restart** — SIGTERM (or a `Shutdown`
//!   request) drains in-flight work, rejects new work with
//!   [`protocol::ErrorCode::ShuttingDown`], and persists every tuned
//!   plan ([`qoz_core::PlanSnapshot`]) to disk; a restarted daemon
//!   primes its pipelines from that file and serves its first repeat
//!   request warm, byte-identical to the cold path.
//!
//! No request kind, option or build feature asks a worker to panic: the
//! fault-injection suite (`tests/fault_injection.rs`) wraps the client
//! side of real connections in deterministic torn writes, short reads,
//! stalls and bit-flips, and the panic path is unit-tested in
//! [`server`] with a stand-in serve function.
//!
//! The [`Client`] pairs the protocol with bounded retries and jittered
//! exponential backoff, retrying only errors the server marks
//! transient.

pub mod channel;
pub mod client;
pub mod protocol;
pub mod server;

/// Cooperative SIGINT/SIGTERM handling for the daemon's front end,
/// `qoz serve`: signals latch a flag that a foreground loop polls to
/// start a graceful drain.
///
/// Raw `signal(2)` registration: the workspace builds without a libc
/// crate, and the two signals we care about need nothing more than a
/// flag store (which is async-signal-safe).
#[allow(unsafe_code)]
pub mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static STOP: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    /// Route SIGINT and SIGTERM to the latched stop flag.
    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }

    /// Whether a stop signal has arrived since [`install`].
    pub fn stop_requested() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

pub use channel::{Channel, Endpoint, Listener};
pub use client::{Client, ClientConfig, ClientError};
pub use protocol::{ErrorCode, Request, Response, StatsSnapshot};
pub use server::{Server, ServerConfig};

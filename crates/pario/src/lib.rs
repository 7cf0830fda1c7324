//! Thread-parallel chunked compression and the parallel-I/O performance
//! model behind the paper's Fig. 14.
//!
//! The paper's final experiment dumps/loads Hurricane-Isabel data from
//! 1K–8K cores of the Bebop supercomputer, each rank compressing 1.3 GB
//! before hitting the shared parallel filesystem. We reproduce the two
//! ingredients separately (documented substitution, `DESIGN.md` §3):
//!
//! * [`parallel`] — real thread-parallel per-rank compression over array
//!   chunks (scoped threads; ranks are independent exactly as
//!   MPI ranks are),
//! * [`iomodel`] — an analytic shared-bandwidth model: aggregate link
//!   bandwidth grows with rank count until the filesystem backbone
//!   saturates, at which point the bytes-on-the-wire reduction from a
//!   higher compression ratio dominates end-to-end dump/load time.

//! * [`pool`] — the resident-service counterpart of [`parallel`]: a
//!   bounded-admission [`BoundedQueue`] (producers shed load, never
//!   block) and a [`WorkerPool`] whose workers own private state and
//!   survive job panics by replacement — the substrate `qoz_serve`
//!   dispatches requests onto.

pub mod iomodel;
pub mod parallel;
pub mod pool;

pub use iomodel::{IoModel, IoTiming};
pub use parallel::{chunk_along_dim0, compress_chunks, decompress_chunks};
pub use pool::{BoundedQueue, WorkerPool};

//! **spawn-merge** — the facade crate of the Spawn & Merge workspace.
//!
//! A from-scratch Rust reproduction of *Deterministic Synchronization of
//! Multi-Threaded Programs with Operational Transformation* (Boelmann,
//! Schwittmann, Weis — IPDPSW 2014): deterministic-by-default concurrency
//! where tasks work on isolated forks of mergeable data structures and
//! parents serialize their children's concurrent operations with
//! operational transformation.
//!
//! ```
//! use spawn_merge::{run, MList};
//!
//! // Listing 1 of the paper: concurrent appends, deterministic result.
//! let (list, ()) = run(MList::from_iter([1, 2, 3]), |ctx| {
//!     let t = ctx.spawn(|child| {
//!         child.data_mut().push(5);
//!         Ok(())
//!     });
//!     ctx.data_mut().push(4);
//!     ctx.merge_all_from_set(&[&t]);
//! });
//! assert_eq!(list.to_vec(), vec![1, 2, 3, 4, 5]);
//! ```
//!
//! The workspace layers, bottom to top:
//!
//! * [`ot`] — the operational transformation engine (operation algebras,
//!   transformation functions, the rebase control algorithm).
//! * [`mergeable`] — the mergeable data structure library (`MList`,
//!   `MText`, `MQueue`, `MMap`, `MSet`, `MCounter`, `MCounterMap`,
//!   `MRegister`, `MTree`), the [`Mergeable`] interface, and [`Leaf`]:
//!   all a custom structure implements to get it.
//! * [`core`] — the task runtime: `spawn`, the `merge_*` family, `sync`,
//!   `clone_task`, aborts, merge conditions, the semaphore emulation.
//! * [`net`] — an in-memory socket substrate for the server example.
//! * [`sha1`] — from-scratch SHA-1 powering the evaluation workload.
//! * [`netsim`] — the paper's evaluation: the four-setup network
//!   simulator behind Figure 3.
//! * [`codec`] — a from-scratch binary wire format for operations and
//!   states (the offline dependency set has no serde byte format).
//! * [`dist`] — distributed Spawn & Merge (the paper's MPI future-work
//!   direction): a child whose body runs on a node of a simulated
//!   cluster; every merge is [`core`]'s.
//! * [`obs`] — runtime observability: pluggable event recorders, metrics
//!   with Prometheus/JSON export, Chrome/Perfetto trace export, and the
//!   determinism auditor.
//! * [`store`] — durability: a CRC32-framed write-ahead log of root merge
//!   commits, CoW snapshots, and digest-verified deterministic crash
//!   recovery.
//! * [`server`] — the sharded multi-tenant session server: one process
//!   hosting thousands of live durable sessions behind a single
//!   listener, with broadcast fan-out, back-pressure, and idle-session
//!   eviction/rehydration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;

pub use sm_codec as codec;
pub use sm_core as core;
pub use sm_mergeable as mergeable;
pub use sm_net as net;
pub use sm_netsim as netsim;
pub use sm_obs as obs;
pub use sm_ot as ot;
pub use sm_server as server;
pub use sm_sha1 as sha1;
pub use sm_store as store;

// The everyday API, flattened.
pub use sm_core::{
    run, run_with_pool, run_with_sink, AbortReason, CommitSink, Condition, Disposition,
    MergeReport, MergedChild, Pool, SyncError, TaskAbort, TaskCtx, TaskHandle, TaskId, TaskResult,
};
pub use sm_mergeable::{
    mergeable_struct, CopyMode, Leaf, MCounter, MCounterMap, MList, MMap, MQueue, MRegister, MSet,
    MText, MTree, MergeError, MergeStats, Mergeable, Persist, ReplayError,
};
pub use sm_store::{run_with_store, FsyncPolicy, RetentionPolicy, Store, StoreError, StoreOptions};

//! **Distributed Spawn & Merge** — the paper's closing future-work item:
//! *"we plan to apply the concept of Spawn and Merge to distributed
//! computing by using MPI"* (§VI).
//!
//! This crate realizes that design over a simulated cluster (worker nodes
//! as OS threads joined by the `sm-net` loopback network, standing in for
//! MPI ranks — the substitution is documented in `DESIGN.md`):
//!
//! * **Spawn** serializes a state snapshot of the coordinator's mergeable
//!   data ([`Persist::encode_state`](sm_mergeable::Persist::encode_state),
//!   via the `sm-codec` binary format) and
//!   ships it to a worker node together with a registered job name.
//! * The node executes the job against its private copy, recording
//!   operations exactly as a local task would.
//! * **Merge** ships the operation log back; the coordinator replays it
//!   onto the shadow fork taken at spawn time and merges through the
//!   ordinary OT rebase. `merge_all` merges in **spawn order** —
//!   deterministic results no matter which node finishes first;
//!   `merge_any` opts into completion order.
//!
//! The codec is [`sm_mergeable::persist`]'s, because the durable store
//! journals exactly the same wire shapes (a node's store snapshot *is* an
//! `encode_state`, a journaled commit replays through `apply_log`).
//!
//! ```
//! use sm_dist::{DistRuntime, JobRegistry};
//! use sm_mergeable::MCounterMap;
//!
//! let mut jobs: JobRegistry<MCounterMap<String>> = JobRegistry::new();
//! jobs.register("count", |data, arg| {
//!     for w in String::from_utf8_lossy(arg).split_whitespace() {
//!         data.inc(w.to_string());
//!     }
//!     Ok(())
//! });
//!
//! let mut rt = DistRuntime::launch(2, MCounterMap::new(), &jobs).unwrap();
//! rt.spawn(1, "count", b"a b a").unwrap();
//! rt.spawn(2, "count", b"b c").unwrap();
//! rt.merge_all().unwrap();
//! let counts = rt.shutdown().unwrap();
//! assert_eq!(counts.get(&"a".to_string()), 2);
//! assert_eq!(counts.get(&"b".to_string()), 2);
//! assert_eq!(counts.get(&"c".to_string()), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod runtime;

pub use cluster::{Cluster, JobFn, JobRegistry, NodeId};
pub use runtime::{DistOutcome, DistRuntime, DistTaskId, TelemetryConfig};

use std::fmt;

use sm_mergeable::ReplayError;

/// Errors of the distributed runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// Referenced a node id outside the cluster.
    NoSuchNode(NodeId),
    /// The link to a node failed.
    Link(String),
    /// A wire payload failed to decode.
    Decode(sm_codec::DecodeError),
    /// A replayed operation failed to apply (transformation bug or
    /// corrupted log).
    Apply(String),
    /// The peer violated the wire protocol.
    Protocol(String),
    /// The coordinator's durability journal failed (the program's merge
    /// semantics are unaffected; durability is).
    Journal(String),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::NoSuchNode(n) => write!(f, "no such node: {n}"),
            DistError::Link(e) => write!(f, "node link failed: {e}"),
            DistError::Decode(e) => write!(f, "wire decode failed: {e}"),
            DistError::Apply(e) => write!(f, "operation replay failed: {e}"),
            DistError::Protocol(e) => write!(f, "protocol violation: {e}"),
            DistError::Journal(e) => write!(f, "coordinator journal failed: {e}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<sm_store::StoreError> for DistError {
    fn from(e: sm_store::StoreError) -> Self {
        DistError::Journal(e.to_string())
    }
}

impl From<sm_codec::DecodeError> for DistError {
    fn from(e: sm_codec::DecodeError) -> Self {
        DistError::Decode(e)
    }
}

impl From<ReplayError> for DistError {
    fn from(e: ReplayError) -> Self {
        match e {
            ReplayError::Decode(d) => DistError::Decode(d),
            ReplayError::Apply(a) => DistError::Apply(a),
            ReplayError::Shape(s) => DistError::Protocol(s),
            ReplayError::Count { .. } => DistError::Protocol(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use sm_codec::DecodeError;
    use sm_mergeable::{MCounter, MCounterMap, MList, MText, Persist};

    #[test]
    fn replay_errors_map_onto_dist_errors() {
        assert_eq!(
            DistError::from(ReplayError::Decode(DecodeError::UnexpectedEnd)),
            DistError::Decode(DecodeError::UnexpectedEnd)
        );
        assert_eq!(
            DistError::from(ReplayError::Apply("boom".into())),
            DistError::Apply("boom".into())
        );
        assert_eq!(
            DistError::from(ReplayError::Shape("len".into())),
            DistError::Protocol("len".into())
        );
    }

    #[test]
    fn vec_shape_mismatch_surfaces_as_protocol_violation() {
        // The coordinator treats a shape drift on the wire as a protocol
        // violation by the peer.
        let remote = vec![MCounter::new(0), MCounter::new(0)];
        let mut buf = BytesMut::new();
        remote.encode_log(&mut buf);
        let mut wrong_shape = vec![MCounter::new(0)];
        let err: DistError = wrong_shape.apply_log(&mut buf.freeze()).unwrap_err().into();
        assert!(matches!(err, DistError::Protocol(_)));
    }

    fn counting_jobs() -> JobRegistry<MCounterMap<String>> {
        let mut jobs = JobRegistry::new();
        jobs.register("count", |data: &mut MCounterMap<String>, arg: &[u8]| {
            for w in String::from_utf8_lossy(arg).split_whitespace() {
                data.inc(w.to_string());
            }
            Ok(())
        });
        jobs
    }

    #[test]
    fn word_count_across_nodes() {
        let jobs = counting_jobs();
        let mut rt = DistRuntime::launch(3, MCounterMap::new(), &jobs).unwrap();
        rt.spawn(1, "count", b"the quick brown fox").unwrap();
        rt.spawn(2, "count", b"the lazy dog").unwrap();
        rt.spawn(3, "count", b"the end").unwrap();
        let outcomes = rt.merge_all().unwrap();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes.iter().all(DistOutcome::merged));
        let counts = rt.shutdown().unwrap();
        assert_eq!(counts.get(&"the".to_string()), 3);
        assert_eq!(counts.get(&"quick".to_string()), 1);
        assert_eq!(counts.total(), 9);
    }

    #[test]
    fn merge_all_is_deterministic_despite_node_timing() {
        let mut jobs: JobRegistry<MList<u64>> = JobRegistry::new();
        jobs.register("push", |data, arg| {
            // Variable delay: completion order across nodes scrambles.
            let v = arg[0] as u64;
            std::thread::sleep(std::time::Duration::from_micros((v * 37) % 500));
            data.push(v);
            Ok(())
        });
        let run_once = || {
            let mut rt = DistRuntime::launch(4, MList::new(), &jobs).unwrap();
            for i in 0..8u8 {
                let node = rt.node_for(i as usize);
                rt.spawn(node, "push", &[i]).unwrap();
            }
            rt.merge_all().unwrap();
            rt.shutdown().unwrap().to_vec()
        };
        let first = run_once();
        assert_eq!(first, (0..8u64).collect::<Vec<_>>(), "spawn-order merge");
        for _ in 0..4 {
            assert_eq!(run_once(), first);
        }
    }

    #[test]
    fn coordinator_edits_participate_in_rebase() {
        let mut jobs: JobRegistry<MText> = JobRegistry::new();
        jobs.register("append", |data, arg| {
            let s = String::from_utf8_lossy(arg).into_owned();
            let at = data.char_len();
            data.insert_str(at, s);
            Ok(())
        });
        let mut rt = DistRuntime::launch(2, MText::from("doc:"), &jobs).unwrap();
        rt.spawn(1, "append", b" remote1").unwrap();
        rt.spawn(2, "append", b" remote2").unwrap();
        // Coordinator edits concurrently with the remote tasks.
        rt.data_mut().push_str(" local");
        rt.merge_all().unwrap();
        let doc = rt.shutdown().unwrap();
        assert_eq!(doc, "doc: local remote1 remote2");
    }

    #[test]
    fn failed_job_is_dismissed_like_an_abort() {
        let mut jobs: JobRegistry<MCounter> = JobRegistry::new();
        jobs.register("good", |d, _| {
            d.add(1);
            Ok(())
        });
        jobs.register("bad", |d, _| {
            d.add(1000);
            Err("refused".into())
        });
        let mut rt = DistRuntime::launch(2, MCounter::new(0), &jobs).unwrap();
        rt.spawn(1, "good", &[]).unwrap();
        rt.spawn(2, "bad", &[]).unwrap();
        let outcomes = rt.merge_all().unwrap();
        assert!(outcomes[0].merged());
        assert_eq!(outcomes[1].result, Err("refused".to_string()));
        assert_eq!(rt.shutdown().unwrap().get(), 1);
    }

    #[test]
    fn panicking_job_is_contained_and_reported() {
        let mut jobs: JobRegistry<MCounter> = JobRegistry::new();
        jobs.register("kaboom", |d, _| {
            d.add(42);
            panic!("node meltdown");
        });
        jobs.register("ok", |d, _| {
            d.add(1);
            Ok(())
        });
        let mut rt = DistRuntime::launch(1, MCounter::new(0), &jobs).unwrap();
        rt.spawn(1, "kaboom", &[]).unwrap();
        // The node must survive the panic and still serve further tasks.
        rt.spawn(1, "ok", &[]).unwrap();
        let outcomes = rt.merge_all().unwrap();
        assert!(outcomes[0]
            .result
            .as_ref()
            .unwrap_err()
            .contains("panicked"));
        assert!(outcomes[1].merged());
        assert_eq!(
            rt.shutdown().unwrap().get(),
            1,
            "panicked job's changes dismissed"
        );
    }

    #[test]
    fn unknown_job_reports_an_error() {
        let jobs: JobRegistry<MCounter> = JobRegistry::new();
        let mut rt = DistRuntime::launch(1, MCounter::new(0), &jobs).unwrap();
        rt.spawn(1, "nope", &[]).unwrap();
        let outcomes = rt.merge_all().unwrap();
        assert!(outcomes[0]
            .result
            .as_ref()
            .unwrap_err()
            .contains("unknown job"));
        rt.shutdown().unwrap();
    }

    #[test]
    fn spawning_on_invalid_node_fails_fast() {
        let jobs: JobRegistry<MCounter> = JobRegistry::new();
        let mut rt = DistRuntime::launch(2, MCounter::new(0), &jobs).unwrap();
        assert_eq!(rt.spawn(0, "x", &[]), Err(DistError::NoSuchNode(0)));
        assert_eq!(rt.spawn(3, "x", &[]), Err(DistError::NoSuchNode(3)));
        rt.shutdown().unwrap();
    }

    #[test]
    fn merge_any_drains_in_completion_order() {
        let jobs = counting_jobs();
        let mut rt = DistRuntime::launch(2, MCounterMap::new(), &jobs).unwrap();
        rt.spawn(1, "count", b"x").unwrap();
        rt.spawn(2, "count", b"y").unwrap();
        let mut merged = 0;
        while let Some(outcome) = rt.merge_any().unwrap() {
            assert!(outcome.merged());
            merged += 1;
        }
        assert_eq!(merged, 2);
        let counts = rt.shutdown().unwrap();
        assert_eq!(counts.total(), 2);
    }

    #[test]
    fn sequential_tasks_on_one_node() {
        let jobs = counting_jobs();
        let mut rt = DistRuntime::launch(1, MCounterMap::new(), &jobs).unwrap();
        for _ in 0..5 {
            rt.spawn(1, "count", b"w").unwrap();
        }
        rt.merge_all().unwrap();
        assert_eq!(rt.shutdown().unwrap().get(&"w".to_string()), 5);
    }

    #[test]
    fn shutdown_merges_outstanding_tasks_implicitly() {
        let jobs = counting_jobs();
        let mut rt = DistRuntime::launch(2, MCounterMap::new(), &jobs).unwrap();
        rt.spawn(1, "count", b"a").unwrap();
        rt.spawn(2, "count", b"b").unwrap();
        // No explicit merge: shutdown performs the implicit MergeAll.
        let counts = rt.shutdown().unwrap();
        assert_eq!(counts.total(), 2);
    }
}

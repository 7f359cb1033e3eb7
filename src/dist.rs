//! **Distributed Spawn & Merge**: a child whose body runs on a node — the
//! paper's closing future-work item, *"apply the concept of Spawn and
//! Merge to distributed computing by using MPI"* (§VI).
//!
//! A [`Cluster`] is a set of node threads on an [`sm_net`] loopback
//! network, standing in for MPI ranks (`DESIGN.md`, "Distribution").
//! [`Cluster::run`] is a task body: the child ships its fork to a node as a
//! state snapshot ([`Persist::encode_state`]), the node runs a registered
//! job on its own copy and ships the operation log back, and the child
//! replays it onto its fork ([`Persist::apply_log`]). Creation-order
//! `merge_all`, `merge_any`, merge conditions, abort dismissal, durability
//! and telemetry are the one runtime's: a program reads the same whether
//! its children run here or on a node.
//!
//! ```
//! use std::sync::Arc;
//! use spawn_merge::dist::{Cluster, JobRegistry};
//! use spawn_merge::{run, MCounterMap};
//!
//! let mut jobs: JobRegistry<MCounterMap<String>> = JobRegistry::new();
//! jobs.register("count", |data, arg| {
//!     for w in String::from_utf8_lossy(arg).split_whitespace() {
//!         data.inc(w.to_string());
//!     }
//!     Ok(())
//! });
//! let cluster = Arc::new(Cluster::launch(2, &jobs).unwrap());
//! let (counts, ()) = run(MCounterMap::new(), |ctx| {
//!     for (node, text) in [(1, "a b a"), (2, "b c")] {
//!         let cluster = Arc::clone(&cluster);
//!         ctx.spawn(move |child| cluster.run(child, node, "count", text.as_bytes()));
//!     }
//!     ctx.merge_all();
//! });
//! assert_eq!(counts.get(&"a".to_string()), 2);
//! assert_eq!(counts.total(), 5);
//! ```

use std::collections::HashMap;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use bytes::{Bytes, BytesMut};
use sm_codec::{Decode, Encode};
use sm_core::{TaskAbort, TaskCtx, TaskResult};
use sm_mergeable::Persist;
use sm_net::{Network, Stream};

/// Identifies a node (1-based; 0 is the coordinator).
pub type NodeId = usize;

/// A job body: runs on a node against the shipped data copy, with an
/// opaque argument.
pub type JobFn<D> = Arc<dyn Fn(&mut D, &[u8]) -> Result<(), String> + Send + Sync>;

/// Named jobs executable on nodes. Closures cannot cross the (simulated)
/// wire, so jobs are registered under names on every node — the standard
/// SPMD arrangement.
pub struct JobRegistry<D> {
    jobs: HashMap<String, JobFn<D>>,
}

impl<D> Default for JobRegistry<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D> Clone for JobRegistry<D> {
    fn clone(&self) -> Self {
        JobRegistry {
            jobs: self.jobs.clone(),
        }
    }
}

impl<D> JobRegistry<D> {
    /// An empty registry.
    pub fn new() -> Self {
        JobRegistry {
            jobs: HashMap::new(),
        }
    }

    /// Register `job` under `name` (replacing any previous binding).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        job: impl Fn(&mut D, &[u8]) -> Result<(), String> + Send + Sync + 'static,
    ) -> &mut Self {
        self.jobs.insert(name.into(), Arc::new(job));
        self
    }

    /// Look up a job.
    pub fn get(&self, name: &str) -> Option<&JobFn<D>> {
        self.jobs.get(name)
    }
}

/// What a child sends its node: `(job, state snapshot, argument)`.
type Request = (String, Vec<u8>, Vec<u8>);

/// What a node answers: `(true, operation log)` or `(false, error)`.
type Reply = (bool, Vec<u8>);

/// Node threads, one link to each. A link is held for a whole request and
/// reply, so a node runs one job at a time, like an MPI rank; parallelism
/// comes from spreading children across nodes. Dropping the cluster closes
/// every link and joins every node.
pub struct Cluster<D> {
    links: Vec<Mutex<Stream>>,
    nodes: Vec<JoinHandle<()>>,
    _data: PhantomData<fn(&mut D)>,
}

impl<D: Persist> Cluster<D> {
    /// Start `nodes` node threads, each serving the jobs of `jobs`.
    /// Fails for an empty cluster.
    pub fn launch(nodes: usize, jobs: &JobRegistry<D>) -> Result<Self, String> {
        let jobs = jobs.clone();
        Self::start(nodes, move |link| serve(&link, &jobs))
    }

    /// Start `nodes` threads, each running `node_main` on its end of a
    /// fresh link.
    fn start(
        nodes: usize,
        node_main: impl Fn(Stream) + Clone + Send + 'static,
    ) -> Result<Self, String> {
        let ports = u16::try_from(nodes)
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("a cluster has 1 to 65535 nodes, not {nodes}"))?;
        let net = Network::new();
        let mut cluster = Cluster {
            links: Vec::with_capacity(nodes),
            nodes: Vec::with_capacity(nodes),
            _data: PhantomData,
        };
        for port in 1..=ports {
            let listener = net.listen(port).map_err(|e| e.to_string())?;
            let link = net.connect(port).map_err(|e| e.to_string())?;
            let node_main = node_main.clone();
            let node = std::thread::Builder::new()
                .name(format!("sm-node-{port}"))
                .spawn(move || {
                    if let Ok(link) = listener.accept() {
                        node_main(link);
                    }
                })
                .map_err(|e| e.to_string())?;
            cluster.links.push(Mutex::new(link));
            cluster.nodes.push(node);
        }
        Ok(cluster)
    }

    /// Round-robin placement: the node for the `i`-th child.
    pub fn node_for(&self, i: usize) -> NodeId {
        i % self.links.len() + 1
    }

    /// A child body that runs `job` (with `arg`) on `node`: ship the
    /// child's fork there, wait for the node's operation log, and replay
    /// it onto the fork, so the parent merges it like any child's edits.
    /// A node that is out of range, a failed or panicking job, a broken
    /// link and an undecodable reply each abort the child instead, and
    /// the parent dismisses its changes.
    pub fn run(&self, ctx: &mut TaskCtx<D>, node: NodeId, job: &str, arg: &[u8]) -> TaskResult {
        let link = node
            .checked_sub(1)
            .and_then(|i| self.links.get(i))
            .ok_or_else(|| TaskAbort::new(format!("no such node: {node}")))?;
        let mut state = BytesMut::new();
        ctx.data().encode_state(&mut state);
        let request: Request = (job.to_owned(), state.into(), arg.to_vec());
        let reply = {
            let link = link.lock().expect("no code panics holding a link");
            link.send(&request.to_bytes()).and_then(|()| link.recv())
        }
        .map_err(|e| TaskAbort::new(format!("link to node {node}: {e}")))?;
        let (ok, payload) = Reply::from_bytes(&reply)
            .map_err(|e| TaskAbort::new(format!("reply from node {node}: {e}")))?;
        if !ok {
            return Err(TaskAbort::new(String::from_utf8_lossy(&payload)));
        }
        let mut log = Bytes::from(payload);
        match ctx.data_mut().apply_log(&mut log) {
            Ok(_) if log.is_empty() => Ok(()),
            Ok(_) => Err(TaskAbort::new(format!("node {node} sent trailing bytes"))),
            Err(e) => Err(TaskAbort::new(format!("log from node {node}: {e}"))),
        }
    }
}

impl<D> Drop for Cluster<D> {
    fn drop(&mut self) {
        // A closed link ends its node's loop.
        self.links.clear();
        for node in self.nodes.drain(..) {
            let _ = node.join();
        }
    }
}

/// A node's loop: answer every request on `link` until it closes. A
/// request that fails to decode, names an unknown job, or whose job fails
/// or panics gets an error reply, and the node keeps serving.
fn serve<D: Persist>(link: &Stream, jobs: &JobRegistry<D>) {
    while let Ok(raw) = link.recv() {
        let reply: Reply = match catch_unwind(AssertUnwindSafe(|| execute(jobs, &raw))) {
            Ok(Ok(log)) => (true, log),
            Ok(Err(error)) => (false, error.into_bytes()),
            Err(panic) => {
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                (false, format!("job panicked: {message}").into_bytes())
            }
        };
        if link.send(&reply.to_bytes()).is_err() {
            return;
        }
    }
}

/// Run one request: decode the snapshot, run the job on it, and encode
/// the operations it recorded.
fn execute<D: Persist>(jobs: &JobRegistry<D>, raw: &[u8]) -> Result<Vec<u8>, String> {
    let (job, state, arg) = Request::from_bytes(raw).map_err(|e| format!("bad request: {e}"))?;
    let job_fn = jobs
        .get(&job)
        .ok_or_else(|| format!("unknown job '{job}'"))?;
    let mut data =
        D::decode_state(&mut Bytes::from(state)).map_err(|e| format!("bad state snapshot: {e}"))?;
    job_fn(&mut data, &arg)?;
    let mut log = BytesMut::new();
    data.encode_log(&mut log);
    Ok(log.into())
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    use sm_core::{run, AbortReason, Disposition};
    use sm_mergeable::MCounter;

    use super::*;

    fn adding_jobs() -> JobRegistry<MCounter> {
        let mut jobs = JobRegistry::new();
        jobs.register("add", |d: &mut MCounter, arg: &[u8]| {
            d.add(i64::from(arg[0]));
            Ok(())
        });
        jobs
    }

    /// Spawn one child per entry of `nodes`, each adding 1 on its node,
    /// and `merge_all` them within a 10-s guard. Returns the merged count
    /// and, per child, its abort reason (`None`: merged).
    fn run_children(cluster: Cluster<MCounter>, nodes: &[NodeId]) -> (i64, Vec<Option<String>>) {
        let (cluster, nodes) = (Arc::new(cluster), nodes.to_vec());
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let (data, report) = run(MCounter::new(0), |ctx| {
                for node in nodes {
                    let cluster = Arc::clone(&cluster);
                    ctx.spawn(move |child| cluster.run(child, node, "add", &[1]));
                }
                ctx.merge_all()
            });
            let _ = tx.send((data.get(), report));
        });
        let (total, report) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("merge_all returns");
        let aborts = report.children.into_iter().map(|c| match c.disposition {
            Disposition::AbortedByChild(AbortReason::Error(e)) => Some(e),
            other => {
                assert!(other.is_merged(), "{other:?}");
                None
            }
        });
        (total, aborts.collect())
    }

    #[test]
    fn an_empty_cluster_is_refused() {
        assert!(Cluster::launch(0, &adding_jobs()).is_err());
    }

    #[test]
    fn children_on_every_node_merge() {
        let cluster = Cluster::launch(3, &adding_jobs()).unwrap();
        assert_eq!((cluster.node_for(0), cluster.node_for(4)), (1, 2));
        assert_eq!(run_children(cluster, &[1, 2, 3, 1]), (4, vec![None; 4]));
    }

    #[test]
    fn a_node_out_of_range_aborts_the_child_without_touching_the_network() {
        let received = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&received);
        let cluster = Cluster::start(2, move |link: Stream| {
            while link.recv().is_ok() {
                seen.fetch_add(1, Ordering::SeqCst);
            }
        })
        .unwrap();
        let (total, aborts) = run_children(cluster, &[0, 3]);
        assert_eq!(total, 0);
        for abort in aborts {
            assert!(abort.unwrap().contains("no such node"));
        }
        assert_eq!(received.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_node_answers_a_garbage_or_truncated_request_and_keeps_serving() {
        let mut cluster = Cluster::launch(1, &adding_jobs()).unwrap();
        let mut state = BytesMut::new();
        MCounter::new(0).encode_state(&mut state);
        let good = (String::from("add"), Vec::from(state), vec![2u8]).to_bytes();
        let bad_state = (String::from("add"), vec![0xffu8], vec![2u8]).to_bytes();
        {
            let link = cluster.links[0].lock().unwrap();
            for (bad, error) in [
                (&b"\xff\xff\xff"[..], "bad request"),
                (&good[..good.len() - 1], "bad request"),
                (&[][..], "bad request"),
                (&bad_state[..], "bad state snapshot"),
            ] {
                link.send(bad).unwrap();
                let (ok, reply) = Reply::from_bytes(&link.recv().unwrap()).unwrap();
                assert!(!ok);
                assert!(String::from_utf8_lossy(&reply).contains(error));
            }
            link.send(&good).unwrap();
            let (ok, log) = Reply::from_bytes(&link.recv().unwrap()).unwrap();
            assert!(ok);
            let mut counter = MCounter::new(0);
            counter.apply_log(&mut Bytes::from(log)).unwrap();
            assert_eq!(counter.get(), 2);
        }
        let nodes = std::mem::take(&mut cluster.nodes);
        drop(cluster);
        for node in nodes {
            assert!(node.join().is_ok(), "the node panicked");
        }
    }

    #[test]
    fn a_garbage_reply_or_a_link_closed_mid_job_aborts_the_child() {
        let garbage = Cluster::start(1, |link: Stream| {
            while link.recv().is_ok() {
                let _ = link.send(b"\x07");
            }
        });
        let bad_log = Cluster::start(1, |link: Stream| {
            while link.recv().is_ok() {
                let _ = link.send(&(true, vec![0xffu8]).to_bytes());
            }
        });
        let closes = Cluster::start(1, |link: Stream| drop(link.recv()));
        for (cluster, error) in [
            (garbage, "reply from node 1"),
            (bad_log, "log from node 1"),
            (closes, "link to node 1"),
        ] {
            let (total, aborts) = run_children(cluster.unwrap(), &[1, 1]);
            assert_eq!(total, 0);
            for abort in aborts {
                let abort = abort.unwrap();
                assert!(abort.contains(error), "{abort}");
            }
        }
    }
}

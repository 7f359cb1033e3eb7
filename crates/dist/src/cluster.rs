//! The simulated cluster: worker nodes, job registry, wire protocol.
//!
//! Each node is an OS thread with a message link to the coordinator over
//! the `sm-net` loopback network — the stand-in for MPI ranks (see
//! `DESIGN.md`: the paper names MPI as the future-work substrate; a
//! loopback cluster exercises the same code path — serialize state, ship,
//! execute remotely, ship operations back — without real NICs).
//! A node executes its tasks **sequentially**, like an MPI rank;
//! parallelism comes from spreading tasks across nodes.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use sm_codec::{Decode, DecodeError, Encode};
use sm_mergeable::Persist;
use sm_net::{NetError, Network, RecvHalf, SendHalf};

use crate::DistError;

/// Identifies a worker node (1-based; 0 is the coordinator).
pub type NodeId = usize;

/// A job body: runs on the worker against the shipped data copy, with an
/// opaque argument.
pub type JobFn<D> = Arc<dyn Fn(&mut D, &[u8]) -> Result<(), String> + Send + Sync>;

/// Named jobs executable on worker nodes. Closures cannot cross the
/// (simulated) wire, so jobs are registered under names on every node —
/// the standard SPMD arrangement.
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

/// Coordinator → worker and worker → coordinator protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WireMsg {
    /// Run `job` over the embedded state snapshot.
    Spawn {
        task: u64,
        job: String,
        state: Vec<u8>,
        arg: Vec<u8>,
    },
    /// Task finished: the payload is the encoded op log (ok) or an error
    /// string (not ok).
    Done {
        task: u64,
        ok: bool,
        payload: Vec<u8>,
    },
    /// Worker should exit.
    Shutdown,
}

impl Encode for WireMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            WireMsg::Spawn {
                task,
                job,
                state,
                arg,
            } => {
                buf.put_u8(0);
                task.encode(buf);
                job.encode(buf);
                state.encode(buf);
                arg.encode(buf);
            }
            WireMsg::Done { task, ok, payload } => {
                buf.put_u8(1);
                task.encode(buf);
                ok.encode(buf);
                payload.encode(buf);
            }
            WireMsg::Shutdown => buf.put_u8(2),
        }
    }
}

impl Decode for WireMsg {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        if !buf.has_remaining() {
            return Err(DecodeError::UnexpectedEnd);
        }
        match buf.get_u8() {
            0 => Ok(WireMsg::Spawn {
                task: u64::decode(buf)?,
                job: String::decode(buf)?,
                state: Vec::decode(buf)?,
                arg: Vec::decode(buf)?,
            }),
            1 => Ok(WireMsg::Done {
                task: u64::decode(buf)?,
                ok: bool::decode(buf)?,
                payload: Vec::decode(buf)?,
            }),
            2 => Ok(WireMsg::Shutdown),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// A running cluster of worker nodes plus the coordinator-side links.
pub struct Cluster {
    pub(crate) links: Vec<SendHalf>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Cluster {
    /// Launch `workers` nodes, each holding a clone of `registry`, and
    /// connect the coordinator to all of them. Returns the cluster (send
    /// side) plus the receive halves of every node link, which the
    /// runtime's forwarder threads take ownership of.
    pub fn launch<D: Persist>(
        workers: usize,
        registry: &JobRegistry<D>,
    ) -> Result<(Self, Vec<RecvHalf>), DistError> {
        assert!(workers >= 1, "a cluster needs at least one worker node");
        let net = Network::new();
        let mut handles = Vec::with_capacity(workers);
        for rank in 1..=workers {
            let listener = net
                .listen(rank as u16)
                .map_err(|e| DistError::Link(e.to_string()))?;
            let registry = registry.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("sm-dist-node-{rank}"))
                    .spawn(move || worker_main(listener, registry))
                    .expect("spawn worker node"),
            );
        }
        let mut links = Vec::with_capacity(workers);
        let mut recv_halves = Vec::with_capacity(workers);
        for rank in 1..=workers {
            let stream = net
                .connect(rank as u16)
                .map_err(|e| DistError::Link(e.to_string()))?;
            let (send, recv) = stream.split();
            links.push(send);
            recv_halves.push(recv);
        }
        Ok((
            Cluster {
                links,
                workers: handles,
            },
            recv_halves,
        ))
    }

    /// Number of worker nodes.
    pub fn size(&self) -> usize {
        self.links.len()
    }

    pub(crate) fn send(&self, node: NodeId, msg: &WireMsg) -> Result<(), DistError> {
        let link = self
            .links
            .get(node.checked_sub(1).ok_or(DistError::NoSuchNode(node))?)
            .ok_or(DistError::NoSuchNode(node))?;
        let span = sm_obs::timer::start(sm_obs::Phase::WireEncode);
        let raw = msg.to_bytes();
        if let Some(span) = span {
            span.finish_root();
        }
        let bytes = raw.len();
        sm_obs::emit(&sm_obs::TaskPath::root(), || sm_obs::EventKind::WireSent {
            node,
            bytes,
        });
        link.send(&raw).map_err(|e| DistError::Link(e.to_string()))
    }

    /// Shut every node down and join its thread.
    pub(crate) fn shutdown(self) {
        for (i, link) in self.links.iter().enumerate() {
            let raw = WireMsg::Shutdown.to_bytes();
            let bytes = raw.len();
            sm_obs::emit(&sm_obs::TaskPath::root(), || sm_obs::EventKind::WireSent {
                node: i + 1,
                bytes,
            });
            let _ = link.send(&raw);
        }
        drop(self.links);
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// The worker node main loop: one connection from the coordinator, then
/// sequential task execution until shutdown.
fn worker_main<D: Persist>(listener: sm_net::Listener, registry: JobRegistry<D>) {
    let Ok(link) = listener.accept() else { return };
    loop {
        let raw = match link.recv() {
            Ok(r) => r,
            Err(NetError::Closed) => return,
            Err(_) => return,
        };
        let span = sm_obs::timer::start(sm_obs::Phase::WireDecode);
        let msg = match WireMsg::from_bytes(&raw) {
            Ok(m) => m,
            Err(_) => return, // corrupted link: nothing sane to do
        };
        if let Some(span) = span {
            span.finish_root();
        }
        match msg {
            WireMsg::Shutdown => return,
            WireMsg::Done { .. } => return, // protocol violation
            WireMsg::Spawn {
                task,
                job,
                state,
                arg,
            } => {
                let reply = execute_task(&registry, &job, &state, &arg);
                let msg = match reply {
                    Ok(payload) => WireMsg::Done {
                        task,
                        ok: true,
                        payload,
                    },
                    Err(err) => WireMsg::Done {
                        task,
                        ok: false,
                        payload: err.into_bytes(),
                    },
                };
                let span = sm_obs::timer::start(sm_obs::Phase::WireEncode);
                let raw = msg.to_bytes();
                if let Some(span) = span {
                    span.finish_root();
                }
                if link.send(&raw).is_err() {
                    return;
                }
            }
        }
    }
}

fn execute_task<D: Persist>(
    registry: &JobRegistry<D>,
    job: &str,
    state: &[u8],
    arg: &[u8],
) -> Result<Vec<u8>, String> {
    let job_fn = registry
        .get(job)
        .ok_or_else(|| format!("unknown job '{job}'"))?;
    let mut bytes = Bytes::copy_from_slice(state);
    let mut data = D::decode_state(&mut bytes).map_err(|e| format!("bad state snapshot: {e}"))?;
    // Contain panics: a crashing job must not take the node down (and
    // silently hang the coordinator) — it reports failure like any other
    // aborted task.
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job_fn(&mut data, arg)));
    match run {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(e),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".into());
            return Err(format!("job panicked: {msg}"));
        }
    }
    let mut out = BytesMut::new();
    data.encode_log(&mut out);
    Ok(out.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_mergeable::MCounter;

    #[test]
    fn registry_basics() {
        let mut r: JobRegistry<MCounter> = JobRegistry::new();
        assert!(r.get("inc").is_none());
        r.register("inc", |d, _| {
            d.inc();
            Ok(())
        });
        r.register("add", |d, arg| {
            d.add(arg.len() as i64);
            Ok(())
        });
        assert!(r.get("inc").is_some());
        let r2 = r.clone();
        assert!(r2.get("add").is_some());
    }

    #[test]
    fn wire_msg_roundtrip() {
        let msgs = [
            WireMsg::Spawn {
                task: 7,
                job: "j".into(),
                state: vec![1, 2],
                arg: vec![],
            },
            WireMsg::Done {
                task: 7,
                ok: true,
                payload: vec![9],
            },
            WireMsg::Done {
                task: 8,
                ok: false,
                payload: b"err".to_vec(),
            },
            WireMsg::Shutdown,
        ];
        for m in &msgs {
            assert_eq!(&WireMsg::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn wire_msg_bad_tag() {
        assert!(matches!(
            WireMsg::from_bytes(&[9]),
            Err(DecodeError::BadTag(9))
        ));
    }

    #[test]
    fn cluster_launch_and_shutdown() {
        let mut r: JobRegistry<MCounter> = JobRegistry::new();
        r.register("noop", |_, _| Ok(()));
        let (cluster, recv_halves) = Cluster::launch(3, &r).unwrap();
        assert_eq!(cluster.size(), 3);
        assert_eq!(recv_halves.len(), 3);
        cluster.shutdown();
    }
}

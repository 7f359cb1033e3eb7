//! The coordinator-side distributed runtime: `spawn` / `merge_all` /
//! `merge_any` over a cluster, with exactly the shared-memory semantics.
//!
//! Every distributed spawn takes a local **shadow fork** of the
//! coordinator's data and ships its state snapshot to the chosen node.
//! When the node reports back, the returned operation log is replayed onto
//! the shadow, and the shadow merges into the coordinator data through the
//! ordinary OT rebase — in *spawn order* for [`DistRuntime::merge_all`]
//! (deterministic, whatever the completion order across the cluster) or
//! *completion order* for [`DistRuntime::merge_any`] (explicit
//! non-determinism, as in the paper).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver};
use sm_codec::Decode;
use sm_mergeable::Persist;
use sm_net::Network;
use sm_obs::{
    DeterminismAuditor, FlightRecorder, Metrics, MultiRecorder, ObsServer, Phase, Recorder,
    TelemetrySources,
};

use crate::cluster::{Cluster, JobRegistry, NodeId, WireMsg};
use crate::DistError;

/// Identifier of a distributed task, unique per runtime, in spawn order.
pub type DistTaskId = u64;

/// Outcome of merging one distributed task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistOutcome {
    /// Which task.
    pub task: DistTaskId,
    /// The node it ran on.
    pub node: NodeId,
    /// `Ok(ops_applied)` if the task's operations merged; `Err(message)`
    /// if the job failed (its changes were dismissed, like an abort).
    pub result: Result<usize, String>,
}

impl DistOutcome {
    /// True if the task's changes were merged.
    pub fn merged(&self) -> bool {
        self.result.is_ok()
    }
}

struct Outstanding<D> {
    task: DistTaskId,
    node: NodeId,
    shadow: D,
    /// Spawn-message send time, captured only while a recorder is
    /// installed; feeds the `wire_roundtrip` phase histogram on merge.
    sent_at: Option<Instant>,
}

/// Opt-in configuration for the live telemetry endpoint of a
/// distributed runtime ([`DistRuntime::launch_with`]).
///
/// The endpoint serves `/metrics`, `/flight` and `/health` over `network`
/// — an in-memory [`sm_net::Network`]: hold a clone and scrape it with
/// [`sm_obs::http_get`]. [`TelemetryConfig::full`] builds the standard
/// wiring: metrics + flight recorder + determinism auditor, installed as
/// the process-wide recorder for the runtime's lifetime.
pub struct TelemetryConfig {
    network: Network,
    port: u16,
    sources: TelemetrySources,
}

impl TelemetryConfig {
    /// The standard full wiring: fresh [`Metrics`], [`FlightRecorder`]
    /// and [`DeterminismAuditor`] served on `port` of `network`,
    /// installed as the global recorder when the runtime launches and
    /// uninstalled at [`DistRuntime::shutdown`].
    pub fn full(network: Network, port: u16, replica: impl Into<String>) -> Self {
        let mut sources = TelemetrySources::named(replica);
        sources.metrics = Some(Arc::new(Metrics::new()));
        sources.flight = Some(Arc::new(FlightRecorder::default()));
        sources.auditor = Some(Arc::new(DeterminismAuditor::new()));
        TelemetryConfig {
            network,
            port,
            sources,
        }
    }
}

/// The coordinator of a distributed Spawn & Merge program.
pub struct DistRuntime<D: Persist> {
    data: D,
    cluster: Cluster,
    inbox: Receiver<WireMsg>,
    forwarders: Vec<std::thread::JoinHandle<()>>,
    outstanding: Vec<Outstanding<D>>,
    buffered: VecDeque<WireMsg>,
    next_task: u64,
    journal: Option<sm_store::Store>,
    /// The live endpoint, whose recorders are installed process-wide
    /// until [`shutdown`](DistRuntime::shutdown).
    telemetry: Option<ObsServer>,
}

impl<D: Persist> DistRuntime<D> {
    /// Launch `workers` nodes (each with `registry`) and wrap `data` as the
    /// coordinator state.
    pub fn launch(workers: usize, data: D, registry: &JobRegistry<D>) -> Result<Self, DistError> {
        let (cluster, recv_halves) = Cluster::launch(workers, registry)?;
        // One forwarder thread per link funnels Done messages into a
        // single inbox so the coordinator can wait on any node.
        let (tx, rx) = unbounded();
        let mut forwarders = Vec::with_capacity(cluster.size());
        for (i, rx_link) in recv_halves.into_iter().enumerate() {
            let tx = tx.clone();
            let node = i + 1;
            forwarders.push(std::thread::spawn(move || {
                while let Ok(raw) = rx_link.recv() {
                    let bytes = raw.len();
                    sm_obs::emit(&sm_obs::TaskPath::root(), || {
                        sm_obs::EventKind::WireReceived { node, bytes }
                    });
                    let span = sm_obs::timer::start(Phase::WireDecode);
                    match WireMsg::from_bytes(&raw) {
                        Ok(msg) => {
                            if let Some(span) = span {
                                span.finish_root();
                            }
                            if tx.send(msg).is_err() {
                                return;
                            }
                        }
                        Err(_) => return,
                    }
                }
            }));
        }
        Ok(DistRuntime {
            data,
            cluster,
            inbox: rx,
            forwarders,
            outstanding: Vec::new(),
            buffered: VecDeque::new(),
            next_task: 1,
            journal: None,
            telemetry: None,
        })
    }

    /// [`launch`](DistRuntime::launch), with a live telemetry endpoint
    /// serving `/metrics`, `/flight` and `/health` for the lifetime of
    /// the runtime. Its recorders are installed process-wide here and
    /// uninstalled at [`shutdown`](DistRuntime::shutdown).
    pub fn launch_with(
        workers: usize,
        data: D,
        registry: &JobRegistry<D>,
        telemetry: TelemetryConfig,
    ) -> Result<Self, DistError> {
        let mut rt = Self::launch(workers, data, registry)?;
        rt.attach_telemetry(telemetry)?;
        Ok(rt)
    }

    fn attach_telemetry(&mut self, config: TelemetryConfig) -> Result<(), DistError> {
        let sources = &config.sources;
        let mut sinks: Vec<Arc<dyn Recorder>> = Vec::new();
        if let Some(m) = &sources.metrics {
            sinks.push(m.clone());
        }
        if let Some(f) = &sources.flight {
            sinks.push(f.clone());
        }
        if let Some(a) = &sources.auditor {
            sinks.push(a.clone());
        }
        sm_obs::install(Arc::new(MultiRecorder::new(sinks)));
        let server = ObsServer::start(&config.network, config.port, config.sources)
            .map_err(|e| DistError::Link(format!("telemetry endpoint: {e}")))?;
        self.telemetry = Some(server);
        Ok(())
    }

    /// The port of the attached telemetry endpoint, if one is serving.
    pub fn telemetry_port(&self) -> Option<u16> {
        self.telemetry.as_ref().map(ObsServer::port)
    }

    /// [`launch`](DistRuntime::launch), with every coordinator merge
    /// journaled into `store` — the distributed runtime's durability
    /// story. On a coordinator crash, [`sm_store::Store::recover`] the
    /// data and `launch_durable` again with a fresh cluster: workers are
    /// stateless between jobs (each spawn re-ships the state snapshot),
    /// so a restarted coordinator rejoins exactly where the journal ends.
    ///
    /// `store` must be fresh (a genesis baseline is written) or just
    /// recovered; `data` must be the corresponding initial or recovered
    /// state.
    pub fn launch_durable(
        workers: usize,
        data: D,
        registry: &JobRegistry<D>,
        store: &sm_store::Store,
    ) -> Result<Self, DistError> {
        store.begin(&data)?;
        let mut rt = Self::launch(workers, data, registry)?;
        rt.journal = Some(store.clone());
        Ok(rt)
    }

    /// Read access to the coordinator's data.
    pub fn data(&self) -> &D {
        &self.data
    }

    /// Mutable access — coordinator-local edits participate in the OT
    /// rebase exactly like a parent task's edits do.
    pub fn data_mut(&mut self) -> &mut D {
        &mut self.data
    }

    /// Distributed **Spawn**: run `job` (with `arg`) on `node` over a copy
    /// of the current data.
    pub fn spawn(&mut self, node: NodeId, job: &str, arg: &[u8]) -> Result<DistTaskId, DistError> {
        if node == 0 || node > self.cluster.size() {
            return Err(DistError::NoSuchNode(node));
        }
        let task = self.next_task;
        self.next_task += 1;
        let shadow = self.data.fork();
        let mut state = BytesMut::new();
        shadow.encode_state(&mut state);
        self.cluster.send(
            node,
            &WireMsg::Spawn {
                task,
                job: job.to_string(),
                state: state.to_vec(),
                arg: arg.to_vec(),
            },
        )?;
        self.outstanding.push(Outstanding {
            task,
            node,
            shadow,
            sent_at: sm_obs::is_enabled().then(Instant::now),
        });
        Ok(task)
    }

    /// Distributed **MergeAll**: wait for every outstanding task and merge
    /// them in **spawn order** — deterministic, independent of which node
    /// finishes first.
    pub fn merge_all(&mut self) -> Result<Vec<DistOutcome>, DistError> {
        let mut outcomes = Vec::with_capacity(self.outstanding.len());
        while !self.outstanding.is_empty() {
            let task = self.outstanding[0].task;
            let msg = self.wait_for(Some(task))?;
            outcomes.push(self.complete(msg)?);
        }
        Ok(outcomes)
    }

    /// Distributed **MergeAny**: wait for the first completion (arrival
    /// order — non-deterministic) and merge it. `Ok(None)` when nothing is
    /// outstanding.
    pub fn merge_any(&mut self) -> Result<Option<DistOutcome>, DistError> {
        if self.outstanding.is_empty() {
            return Ok(None);
        }
        let msg = self.wait_for(None)?;
        Ok(Some(self.complete(msg)?))
    }

    /// Wait for the Done of `task` (or any outstanding task when `None`),
    /// buffering everything else.
    fn wait_for(&mut self, task: Option<DistTaskId>) -> Result<WireMsg, DistError> {
        let matches = |m: &WireMsg| match (m, task) {
            (WireMsg::Done { task: t, .. }, Some(want)) => *t == want,
            (WireMsg::Done { .. }, None) => true,
            _ => false,
        };
        if let Some(pos) = self.buffered.iter().position(&matches) {
            return Ok(self.buffered.remove(pos).expect("position valid"));
        }
        loop {
            let msg = self
                .inbox
                .recv()
                .map_err(|_| DistError::Link("all node links closed".into()))?;
            if matches(&msg) {
                return Ok(msg);
            }
            self.buffered.push_back(msg);
        }
    }

    fn complete(&mut self, msg: WireMsg) -> Result<DistOutcome, DistError> {
        let WireMsg::Done { task, ok, payload } = msg else {
            return Err(DistError::Protocol("expected Done".into()));
        };
        let pos = self
            .outstanding
            .iter()
            .position(|o| o.task == task)
            .ok_or_else(|| DistError::Protocol(format!("Done for unknown task {task}")))?;
        let Outstanding {
            node,
            mut shadow,
            sent_at,
            ..
        } = self.outstanding.remove(pos);
        let path = sm_obs::TaskPath::root().child(task);
        if let Some(sent_at) = sent_at {
            // Spawn message out → Done message merged back: the full
            // distributed round trip, including remote execution.
            let nanos = sent_at.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            sm_obs::timer::observe(&path, Phase::WireRoundtrip, nanos);
        }
        if !ok {
            // Remote job failed: dismiss the shadow (abort semantics).
            return Ok(DistOutcome {
                task,
                node,
                result: Err(String::from_utf8_lossy(&payload).into_owned()),
            });
        }
        let mut bytes = Bytes::copy_from_slice(&payload);
        let applied = shadow.apply_log(&mut bytes)?;
        let stats = self
            .data
            .merge(&shadow)
            .map_err(|e| DistError::Apply(e.to_string()))?;
        sm_obs::timer::observe(&path, Phase::RebaseDelta, stats.delta_nanos);
        sm_obs::timer::observe(&path, Phase::RebaseCompact, stats.compact_nanos);
        sm_obs::timer::observe(&path, Phase::RebaseGrid, stats.grid_nanos);
        sm_obs::timer::observe(&path, Phase::StateApply, stats.apply_nanos);
        if let Some(journal) = &self.journal {
            // One WAL record per distributed merge, attributed to the
            // task's pseudo-path (root → task id). Coordinator-local
            // edits since the previous commit ride in the same record.
            journal.commit(&self.data, &path)?;
        }
        Ok(DistOutcome {
            task,
            node,
            result: Ok(applied),
        })
    }

    /// Shut the cluster down and return the final coordinator data.
    ///
    /// Outstanding tasks are merged first (implicit MergeAll), mirroring
    /// "a task is not completed unless all its children have been merged".
    pub fn shutdown(mut self) -> Result<D, DistError> {
        self.merge_all()?;
        if let Some(journal) = self.journal.take() {
            // Journal any trailing coordinator-local edits and make the
            // whole log durable before the cluster goes away.
            journal.commit_outstanding(&self.data, &sm_obs::TaskPath::root())?;
        }
        self.cluster.shutdown();
        for f in self.forwarders {
            let _ = f.join();
        }
        if let Some(server) = self.telemetry.take() {
            server.stop();
            sm_obs::uninstall();
        }
        Ok(self.data)
    }

    /// Round-robin node assignment helper: the node for the `i`-th task.
    pub fn node_for(&self, i: usize) -> NodeId {
        (i % self.cluster.size()) + 1
    }
}

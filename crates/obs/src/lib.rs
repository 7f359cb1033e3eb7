//! `sm-obs` — runtime-wide observability for the Spawn&Merge stack.
//!
//! The runtime crates (`sm-core`, `sm-store`, `sm-server`) emit typed
//! lifecycle events — task spawns and completions, merges with their
//! operation-transformation statistics, sync blocking, pool worker
//! churn, store I/O — through one process-wide, *pluggable*
//! [`Recorder`] slot. With no recorder installed, every emission site
//! costs one relaxed atomic load and the event is never even
//! constructed; [`install`] a recorder and the full stream flows to it.
//!
//! Four consumers ship in this crate:
//!
//! - [`Metrics`]: counters + log₂ latency histograms (including the
//!   per-phase `sm_phase_nanos` family fed by [`timer`]), exported as
//!   Prometheus text ([`Metrics::prometheus_text`]) or a JSON snapshot
//!   ([`Metrics::json_string`]) — the bench binaries write the latter as
//!   a machine-readable sidecar.
//! - [`FlightRecorder`]: always-on per-thread bounded rings of
//!   sequence-stamped events — dump-on-demand and automatic
//!   dump-on-anomaly (the production black box).
//! - [`ChromeTracer`]: a Chrome trace-event / Perfetto JSON exporter
//!   rendering the task tree as a timeline (`examples/tracing.rs`).
//! - [`DeterminismAuditor`]: a 64-bit digest over the deterministic
//!   projection of the stream — identical across runs of a
//!   `merge_all`-only program, sensitive to merge order and op counts.
//!
//! The event schema is written once. The table in [`event`] declares
//! each [`EventKind`] variant's fields, name, audit class and anomaly
//! flag; the auditor's projection, the flight detail and the trace's
//! tracks and merge args all read its one field walk. The counter list
//! in [`metrics`] gives each counter's snapshot field, JSON path and
//! Prometheus name on one line, and [`Phase`] comes from one list in
//! [`timer`]. [`Metrics`]' event-to-counter mapping and the Chrome
//! labels are the only hand-written per-event code.
//!
//! Several consumers compose via [`MultiRecorder`], and [`serve`] turns
//! any of them into a live scrape endpoint (`/metrics`, `/flight`,
//! `/health`) over the `sm-net` loopback network. The determinism
//! contract recorders must uphold is documented on [`recorder`].

pub mod audit;
pub mod chrome;
pub mod event;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod serve;
pub mod timer;

pub use audit::{fnv1a, DeterminismAuditor};
pub use chrome::ChromeTracer;
pub use event::{AbortCause, EventKind, MergeOpStats, ObsEvent, TaskPath};
pub use flight::{FlightEntry, FlightRecorder};
pub use metrics::{Histogram, Metrics, MetricsSnapshot, PhaseHistograms};
pub use recorder::{emit, install, is_enabled, uninstall, MultiRecorder, Recorder};
pub use serve::{health_divergence, http_get, ObsServer, TelemetrySources};
pub use timer::{observe, start, Phase, PhaseSpan};

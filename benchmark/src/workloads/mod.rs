//! The four workloads, one per end-to-end path of ROADMAP aim 1.

pub mod commit_shared;
pub mod fig3_sim;
pub mod merge_fanout;
pub mod recover_replay;

//! A second evaluation workload: **collaborative document editing**.
//!
//! The network simulator (§III) stresses queues; this workload stresses the
//! text algebra and the chunked `Rope` state backend
//! behind [`MText`]. A crew of editor tasks forks one shared document; each
//! round every editor makes a burst of scattered edits (position derived
//! from a per-editor LCG stream, so runs are reproducible without a RNG
//! dependency) and syncs; the root merges all editors in creation order.
//! The observable result is a SHA-1 digest **streamed over the rope's
//! chunks** — the document is never materialised as one contiguous
//! `String`, exercising exactly the chunk-iterator path large documents
//! rely on.
//!
//! Determinism claim, same shape as the simulator's: the digest is a pure
//! function of the configuration — independent of scheduling, pool size,
//! and fork [`CopyMode`].

use std::time::{Duration, Instant};

use sm_core::{run_with_pool, Pool, SyncError, TaskCtx, TaskResult};
use sm_mergeable::{CopyMode, MText};
use sm_sha1::{Digest, Sha1};

use crate::workload::Lcg;

/// Configuration for one collaborative-editing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocConfig {
    /// Number of concurrent editor tasks.
    pub editors: usize,
    /// Sync rounds each editor performs.
    pub rounds: usize,
    /// Edits per editor per round.
    pub edits_per_round: usize,
    /// Seed for the per-editor edit streams.
    pub seed: u64,
    /// Fork copy mode for the shared document.
    pub copy_mode: CopyMode,
}

impl DocConfig {
    /// A small configuration for tests: 4 editors, 3 rounds, 8 edits each.
    pub fn small() -> Self {
        DocConfig {
            editors: 4,
            rounds: 3,
            edits_per_round: 8,
            seed: 0x5eed,
            copy_mode: CopyMode::CopyOnWrite,
        }
    }

    /// A heavier configuration for benchmarks.
    pub fn bench() -> Self {
        DocConfig {
            editors: 8,
            rounds: 16,
            edits_per_round: 32,
            seed: 0x5eed,
            copy_mode: CopyMode::CopyOnWrite,
        }
    }
}

/// Result of one collaborative-editing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocResult {
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Streamed chunk digest of the merged document.
    pub digest: Digest,
    /// Final document length in characters.
    pub char_len: usize,
    /// `MergeAll` rounds the root drove.
    pub rounds: u64,
}

/// SHA-1 of the document contents, streamed chunk by chunk — no
/// intermediate `String`.
pub fn digest_document(doc: &MText) -> Digest {
    let mut h = Sha1::new();
    for chunk in doc.chunks() {
        h.update(chunk.as_bytes());
    }
    h.finalize()
}

/// One editor: scattered inserts with occasional range deletes, one sync
/// per round. Edit positions come from the shared per-actor
/// [`Lcg::stream`], so runs are reproducible without an RNG dependency.
fn editor_task(editor: usize, cfg: DocConfig, ctx: &mut TaskCtx<MText>) -> TaskResult {
    let mut stream = Lcg::stream(cfg.seed, editor);
    for _ in 0..cfg.rounds {
        match ctx.sync() {
            Ok(()) => {}
            Err(SyncError::Aborted) => return Ok(()),
            Err(e) => return Err(e.into()),
        }
        for _ in 0..cfg.edits_per_round {
            let r = stream.next();
            let len = ctx.data().char_len();
            if r % 5 == 4 && len >= 8 {
                // One in five edits deletes a short scattered range.
                let pos = (r as usize >> 3) % (len - 4);
                ctx.data_mut().delete_range(pos, 1 + (r as usize >> 7) % 3);
            } else {
                let pos = (r as usize >> 3) % (len + 1);
                ctx.data_mut()
                    .insert_str(pos, format!("[e{editor}:{:x}]", r % 256));
            }
        }
    }
    Ok(())
}

/// Run the collaborative-editing workload on the given pool.
pub fn run_document_with_pool(cfg: &DocConfig, pool: Pool) -> DocResult {
    let mut doc = MText::with_mode(cfg.copy_mode);
    doc.push_str("The quick brown fox jumps over the lazy dog. ");
    let start = Instant::now();
    let mut rounds: u64 = 0;

    let (merged, ()) = run_with_pool(doc, pool, |ctx| {
        for e in 0..cfg.editors {
            let cfg = *cfg;
            ctx.spawn(move |c| editor_task(e, cfg, c));
        }
        loop {
            ctx.merge_all();
            rounds += 1;
            if ctx.live_children() == 0 {
                break;
            }
        }
    });
    let elapsed = start.elapsed();

    DocResult {
        elapsed,
        digest: digest_document(&merged),
        char_len: merged.char_len(),
        rounds,
    }
}

/// Run the collaborative-editing workload on a fresh pool.
pub fn run_document(cfg: &DocConfig) -> DocResult {
    run_document_with_pool(cfg, Pool::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_streams_the_chunks() {
        let mut t = MText::from("hello ");
        for i in 0..200 {
            t.push_str(format!("chunk {i} "));
        }
        let streamed = digest_document(&t);
        let whole = sm_sha1::sha1(t.to_string().as_bytes());
        assert_eq!(
            streamed, whole,
            "chunked digest must equal whole-string digest"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = DocConfig::small();
        let a = run_document(&cfg);
        let b = run_document(&cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.char_len, b.char_len);
    }

    #[test]
    fn copy_mode_is_observationally_invisible() {
        let cow = DocConfig::small();
        let deep = DocConfig {
            copy_mode: CopyMode::Deep,
            ..cow
        };
        assert_eq!(run_document(&cow).digest, run_document(&deep).digest);
    }

    #[test]
    fn seed_changes_the_result() {
        let a = DocConfig::small();
        let b = DocConfig { seed: 0xbad, ..a };
        assert_ne!(run_document(&a).digest, run_document(&b).digest);
    }

    #[test]
    fn every_editors_final_tag_survives() {
        // Inserts are never conflicted away; each editor's last insert
        // lands contiguously in the merged text.
        let cfg = DocConfig::small();
        let mut doc = MText::with_mode(cfg.copy_mode);
        doc.push_str("The quick brown fox jumps over the lazy dog. ");
        let (merged, ()) = run_with_pool(doc, Pool::new(), |ctx| {
            for e in 0..cfg.editors {
                ctx.spawn(move |c| editor_task(e, cfg, c));
            }
            loop {
                ctx.merge_all();
                if ctx.live_children() == 0 {
                    break;
                }
            }
        });
        let text = merged.to_string();
        for e in 0..cfg.editors {
            assert!(
                text.contains(&format!("[e{e}:")),
                "editor {e} left no trace in {text:?}"
            );
        }
    }
}

//! `recover_replay`: one crash recovery — `Store::open` +
//! `recover::<MList<u64>>()` + the digest check — the `sm-store` read
//! side (segment scan, CRC, record decode, prepared replay) beside
//! `commit_shared`'s write side. Writing the journal is this workload's
//! set-up, so `setup_s` here guards WAL write throughput.

use std::path::PathBuf;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use spawn_merge::net::frame::{crc32, Frames};
use spawn_merge::obs::TaskPath;
use spawn_merge::{FsyncPolicy, MList, Mergeable, Persist, Store, StoreOptions};

use crate::gen::{state_digest, Fnv, Lcg};
use crate::harness::{Failures, Layers, Workload};
use crate::trace::{Tracer, NO_OP};

#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Commit records in the journal.
    pub commits: usize,
    /// List operations per commit.
    pub ops_per_commit: usize,
    /// Every n-th commit mixes deletes in (the foreign-shape fallback of
    /// the prepared insert-batch replay lane).
    pub mixed_every: usize,
    /// WAL segment size: small, so recovery scans several segments.
    pub segment_bytes: u64,
    /// Journal group commit, `FsyncPolicy::EveryN`.
    pub fsync_every_n: u32,
    /// Timed recoveries per round.
    pub ops_per_round: usize,
}

pub const PARAMS: Params = Params {
    commits: 200,
    ops_per_commit: 1000,
    mixed_every: 8,
    segment_bytes: 1 << 20,
    fsync_every_n: 1024,
    ops_per_round: 12,
};

#[derive(Debug, Clone, Copy)]
enum ListEdit {
    Insert(u32, u64),
    Remove(u32),
}

fn apply(list: &mut MList<u64>, edits: &[ListEdit]) {
    for e in edits {
        match *e {
            ListEdit::Insert(at, value) => list.insert(at as usize, value),
            ListEdit::Remove(at) => {
                list.remove(at as usize);
            }
        }
    }
}

pub struct RecoverReplay {
    p: Params,
    scratch: PathBuf,
    /// `commits × ops_per_commit` edits, flat.
    script: Vec<ListEdit>,
    input_digest: u64,
    /// What the journal must recover to, and from how many replayed
    /// ops: both follow from the inputs alone.
    expected_digest: u64,
    expected_ops: u64,
    /// The committed slices as `encode_committed_since` exports them —
    /// the bytes the store frames into its records.
    slices: Vec<(Vec<u8>, u64)>,
    round: u64,
    next_op: u64,
    dir: Option<PathBuf>,
    written: Option<MList<u64>>,
}

impl RecoverReplay {
    pub fn new(seed: u64, scratch: PathBuf) -> Self {
        Self::with_params(seed, scratch, PARAMS)
    }

    pub fn with_params(seed: u64, scratch: PathBuf, p: Params) -> Self {
        let mut lcg = Lcg::stream(seed, 0x4ec0);
        let mut len = 0usize;
        let mut script = Vec::with_capacity(p.commits * p.ops_per_commit);
        for c in 0..p.commits {
            let mixed = c % p.mixed_every == p.mixed_every - 1;
            for j in 0..p.ops_per_commit {
                if mixed && j % 2 == 1 && len > 0 {
                    script.push(ListEdit::Remove(lcg.below(len) as u32));
                    len -= 1;
                } else {
                    script.push(ListEdit::Insert(lcg.below(len + 1) as u32, lcg.next()));
                    len += 1;
                }
            }
        }
        let mut digest = Fnv::default();
        for e in &script {
            match *e {
                ListEdit::Insert(at, v) => digest.u64(u64::from(at)).u64(v),
                ListEdit::Remove(at) => digest.u64(u64::from(at)).u64(u64::MAX),
            };
        }

        // The journaling protocol without a store: seal, export the slice
        // committed since the last marks, recapture.
        let mut list = MList::<u64>::new();
        let mut marks = Vec::new();
        list.seal_history();
        list.history_marks(&mut marks);
        let mut slices = Vec::with_capacity(p.commits);
        for edits in script.chunks(p.ops_per_commit) {
            apply(&mut list, edits);
            list.seal_history();
            let mut buf = BytesMut::new();
            let mut cursor = 0usize;
            let ops = list.encode_committed_since(&marks, &mut cursor, &mut buf);
            marks.clear();
            list.history_marks(&mut marks);
            slices.push((buf.to_vec(), ops as u64));
        }
        RecoverReplay {
            p,
            scratch,
            script,
            input_digest: digest.0,
            expected_digest: state_digest(&list),
            expected_ops: slices.iter().map(|(_, ops)| ops).sum(),
            slices,
            round: 0,
            next_op: 0,
            dir: None,
            written: None,
        }
    }

    fn options(&self) -> StoreOptions {
        StoreOptions {
            fsync: FsyncPolicy::EveryN(self.p.fsync_every_n),
            segment_bytes: self.p.segment_bytes,
            ..StoreOptions::default()
        }
    }

    /// One recovery; the error text of a failed one.
    fn recover(&self, t: &mut Tracer) -> Result<(), String> {
        let dir = self.dir.clone().expect("set-up ran");
        let s = t.begin("store.open");
        let store = Store::open(dir, self.options()).map_err(|e| e.to_string())?;
        t.end(s);
        let s = t.begin("store.recover");
        let recovered = store.recover::<MList<u64>>().map_err(|e| e.to_string())?;
        t.end(s);
        let r = recovered.ok_or("the journal is gone")?;
        let s = t.begin("client.digest_check");
        let digest = state_digest(&r.data);
        t.end(s);
        if digest != self.expected_digest {
            return Err(format!(
                "recovered digest {digest:016x} is not the pre-crash one"
            ));
        }
        if r.replayed_ops != self.expected_ops || r.last_seq != self.p.commits as u64 {
            return Err(format!(
                "replayed {} ops up to commit {}, journaled {} ops in {} commits",
                r.replayed_ops, r.last_seq, self.expected_ops, self.p.commits
            ));
        }
        Ok(())
    }

    fn wal_files(&self) -> Vec<PathBuf> {
        let Some(dir) = &self.dir else {
            return Vec::new();
        };
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("wal-"))
            })
            .collect();
        files.sort();
        files
    }
}

impl Workload for RecoverReplay {
    fn name(&self) -> &'static str {
        "recover_replay"
    }

    fn input_digest(&self) -> u64 {
        self.input_digest
    }

    fn params(&self) -> String {
        format!("{:?}", self.p)
    }

    /// Writing the journal through `Store::begin/commit/sync`, the
    /// "crash" (dropping the store), and one warm-up recovery.
    fn setup(&mut self, t: &mut Tracer, f: &mut Failures) {
        let dir = self.scratch.join(format!("recover-replay-{}", self.round));
        self.round += 1;
        let _ = std::fs::remove_dir_all(&dir);
        t.set_op(NO_OP);
        let mut list = MList::<u64>::new();
        let written = (|| {
            let store = Store::open(dir.clone(), self.options())?;
            store.begin(&list)?;
            for edits in self.script.chunks(self.p.ops_per_commit) {
                apply(&mut list, edits);
                let s = t.begin("store.build_commit");
                store.commit(&list, &TaskPath::root())?;
                t.end(s);
            }
            store.sync()
        })();
        if let Err(e) = written {
            f.fail(|| format!("journal write failed: {e}"));
        }
        self.dir = Some(dir);
        self.written = Some(list);
        if let Err(e) = self.recover(&mut Tracer::off()) {
            f.fail(|| format!("warm-up recovery: {e}"));
        }
    }

    fn ops(&mut self, t: &mut Tracer, ops: &mut Vec<u64>, f: &mut Failures) {
        for _ in 0..self.p.ops_per_round {
            t.set_op(self.next_op);
            self.next_op += 1;
            f.attempt();
            let span = t.begin("store.recovery");
            let t0 = Instant::now();
            let outcome = self.recover(t);
            let took = t0.elapsed().as_nanos() as u64;
            t.end(span);
            match outcome {
                Ok(()) => ops.push(took),
                Err(e) => f.fail(|| e),
            }
        }
    }

    fn finish(&mut self, _t: &mut Tracer, layers: &mut Layers, f: &mut Failures) -> u64 {
        let wals = self.wal_files();
        let bytes: u64 = wals
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum();
        layers.sample("store.journal_bytes", bytes as f64);
        layers.sample("store.replayed_ops", self.expected_ops as f64);
        // Recovery leaves one empty segment behind for the commits to come.
        layers.sample(
            "store.segments",
            wals.iter()
                .filter(|p| std::fs::metadata(p).is_ok_and(|m| m.len() > 0))
                .count() as f64,
        );
        let written = self.written.take().map(|list| state_digest(&list));
        if written != Some(self.expected_digest) {
            f.fail(|| "the list the journal was written from has another digest".into());
        }
        if let Some(dir) = self.dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        self.expected_digest
    }

    /// The read side layer by layer, outside the store: frame scan and
    /// CRC over the WAL bytes, prepared decode of every committed slice,
    /// and the slices replayed through `apply_log` alone.
    fn probes(&mut self, layers: &mut Layers) {
        // Needs a journal on disk: write one more, untimed.
        let mut quiet = Failures::default();
        self.setup(&mut Tracer::off(), &mut quiet);
        let mut frame_ns = Vec::new();
        for path in self.wal_files() {
            let Ok(bytes) = std::fs::read(path) else {
                continue;
            };
            let mut frames = Frames::new(&bytes);
            loop {
                let t0 = Instant::now();
                let Some(frame) = frames.next() else {
                    break;
                };
                std::hint::black_box(frame);
                frame_ns.push(t0.elapsed().as_nanos() as u64);
            }
        }
        layers.sample_median_ns("net.frame_decode_ns", &frame_ns);
        if let Some(dir) = self.dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        self.written = None;

        let block = vec![0xa5u8; 1 << 20];
        let crc_ns: Vec<u64> = (0..9)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(crc32(std::hint::black_box(&block)));
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        layers.sample_median_ns("net.crc32_ns_per_mb", &crc_ns);

        let decode_ns: Vec<u64> = self
            .slices
            .iter()
            .map(|(slice, ops)| {
                let buf = Bytes::copy_from_slice(slice);
                let t0 = Instant::now();
                std::hint::black_box(MList::<u64>::decode_log_prepared(buf, *ops));
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        layers.sample_median_ns("codec.record_decode_ns", &decode_ns);

        let replay_ns: Vec<u64> = (0..3)
            .map(|_| {
                let mut list = MList::<u64>::new();
                let t0 = Instant::now();
                for (slice, _) in &self.slices {
                    let mut buf = Bytes::copy_from_slice(slice);
                    let _ = list.apply_log(&mut buf);
                    list.seal_history();
                }
                let took = t0.elapsed().as_nanos() as u64;
                assert_eq!(state_digest(&list), self.expected_digest);
                took
            })
            .collect();
        layers.sample_median_ns("mergeable.replay_ns", &replay_ns);
    }
}

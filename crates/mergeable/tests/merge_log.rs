//! `head.merge_log(&base, buf)` is `head.merge(&work)` where `work` is
//! `base.clone()` after `work.apply_log(buf)` — the path a session commit
//! took before it merged the client's log straight from the base's fork
//! point. For the nine leaves, a `Vec`, a tuple and a `mergeable_struct!`,
//! with the committer 0, 1 and 2 commits behind the head, both paths must
//! agree on `Ok` vs `Err`, the `MergeStats`, the state and the committed
//! slice a journal encodes next. Seeded byte flips and truncations of the
//! valid payloads must never panic `merge_log`, and it must accept
//! exactly when the old path accepts, with the same result.

use bytes::{Bytes, BytesMut};
use sm_codec::{DecodeError, Encode};
use sm_mergeable::{
    mergeable_struct, Leaf, MCounter, MCounterMap, MList, MMap, MQueue, MRegister, MSet, MText,
    MTree, MergeStats, Mergeable, Persist, ReplayError,
};
use sm_ot::tree::Node;

/// A structure under test: its start and the edits its commits make, in
/// turn, each on a fork of the base its committer last saw.
struct Subject<D> {
    name: &'static str,
    make: fn() -> D,
    edits: [fn(&mut D); 3],
}

/// One side of a session: the head and its ring of fork bases (one per
/// commit, newest last), the way the shard keeps them.
#[derive(Clone)]
struct Head<D> {
    data: D,
    ring: Vec<D>,
    marks: Vec<usize>,
}

impl<D: Persist> Head<D> {
    fn new(data: D) -> Self {
        let mut head = Head {
            data,
            ring: Vec::new(),
            marks: Vec::new(),
        };
        head.data.seal_history();
        head.data.history_marks(&mut head.marks);
        head.ring.push(head.data.fork());
        head
    }

    /// What the journal appends after a landed merge: the slice since
    /// the last commit. Then the next ring base.
    fn commit(&mut self) -> Vec<u8> {
        self.data.seal_history();
        let mut slice = BytesMut::new();
        self.data
            .encode_committed_since(&self.marks, &mut 0, &mut slice);
        self.marks.clear();
        self.data.history_marks(&mut self.marks);
        self.ring.push(self.data.fork());
        slice.to_vec()
    }

    fn undo(&mut self) {
        let newest = self.ring.last().expect("the ring is never empty");
        self.data.rollback_to(newest);
    }

    fn state(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        self.data.encode_state(&mut buf);
        buf.to_vec()
    }
}

/// The replaced path: replay onto a clone of the base, then merge.
fn replay_then_merge<D: Persist>(head: &mut Head<D>, base: usize, payload: &Bytes) -> Outcome {
    let mut work = head.ring[base].clone();
    work.apply_log(&mut payload.clone())?;
    let merged = head.data.merge(&work).map_err(ReplayError::Merge);
    if merged.is_err() {
        head.undo();
    }
    merged
}

fn merge_log<D: Persist>(head: &mut Head<D>, base: usize, payload: &Bytes) -> Outcome {
    let base = head.ring[base].clone();
    let merged = head.data.merge_log(&base, &mut payload.clone());
    if merged.is_err() {
        head.undo();
    }
    merged
}

type Outcome = Result<MergeStats, ReplayError>;

/// Both paths on their own head; they must agree in every respect, and
/// a landed merge is committed on both. Returns its stats if it landed.
fn both<D: Persist>(
    old: &mut Head<D>,
    new: &mut Head<D>,
    base: usize,
    payload: &Bytes,
    at: &str,
) -> Option<MergeStats> {
    let want = replay_then_merge(old, base, payload);
    let got = merge_log(new, base, payload);
    assert_eq!(got.is_ok(), want.is_ok(), "{at}: {got:?} vs {want:?}");
    if let (Ok(got), Ok(want)) = (&got, &want) {
        assert_eq!(got, want, "{at}: merge stats");
        assert_eq!(new.commit(), old.commit(), "{at}: committed slice");
    }
    assert_eq!(new.state(), old.state(), "{at}: state");
    assert_eq!(new.ring.len(), old.ring.len(), "{at}: ring");
    got.ok()
}

/// A 64-bit LCG: the seeded corruption stream.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Every step's payload flipped and truncated, on copies of the heads.
/// Returns how many corrupted payloads landed.
fn corrupted<D: Persist>(
    old: &Head<D>,
    new: &Head<D>,
    base: usize,
    payload: &[u8],
    at: &str,
) -> usize {
    let mut seed = 0x5eed ^ payload.len() as u64;
    let mut landed = 0;
    for round in 0..ROUNDS {
        let mut bytes = payload.to_vec();
        if round % 3 == 2 {
            bytes.truncate(lcg(&mut seed) as usize % (payload.len() + 1));
        } else if !bytes.is_empty() {
            let at = lcg(&mut seed) as usize % bytes.len();
            bytes[at] ^= 1 + (lcg(&mut seed) % 255) as u8;
        }
        let (mut old, mut new) = (old.clone(), new.clone());
        landed += usize::from(
            both(
                &mut old,
                &mut new,
                base,
                &Bytes::from(bytes),
                &format!("{at} corrupted {round}"),
            )
            .is_some(),
        );
    }
    landed
}

/// Corrupted payloads per step.
const ROUNDS: usize = 48;

fn check<D: Persist>(s: &Subject<D>) {
    let (mut trials, mut landed) = (0, 0);
    for behind in 0..=2 {
        let (mut old, mut new) = (Head::new((s.make)()), Head::new((s.make)()));
        for step in 0..6 {
            let at = format!("{} behind {behind} step {step}", s.name);
            let base = old.ring.len() - 1 - behind.min(old.ring.len() - 1);
            let mut work = old.ring[base].fork();
            (s.edits[step % 3])(&mut work);
            let mut payload = BytesMut::new();
            work.encode_log(&mut payload);
            let payload = payload.freeze();
            landed += corrupted(&old, &new, base, payload.as_slice(), &at);
            trials += ROUNDS;
            assert!(
                both(&mut old, &mut new, base, &payload, &at).is_some(),
                "{at}"
            );
        }
    }
    // Both outcomes occur, so both were compared.
    println!("{}: {landed} of {trials} corrupted payloads landed", s.name);
    assert!(0 < landed && landed < trials, "{}", s.name);
}

#[test]
fn every_leaf_merges_its_log_as_the_replayed_clone_merged() {
    check(&Subject {
        name: "MList",
        make: || MList::from_iter([1u32, 2, 3]),
        edits: [
            |l| {
                l.insert(0, 7);
                l.push(8);
                l.push(9);
            },
            |l| {
                l.remove(0);
                l.set(0, 5);
            },
            |l| {
                l.insert(1, 4);
                l.remove(1);
                l.push(6);
            },
        ],
    });
    check(&Subject {
        name: "MText",
        make: || MText::from("hello"),
        edits: [
            |t| {
                t.insert_str(0, "ab");
                t.push_str("é✨");
            },
            |t| {
                t.delete_range(0, 2);
                t.insert_str(1, "x");
            },
            |t| {
                t.push_str("yz");
                t.delete_range(0, 1);
            },
        ],
    });
    check(&Subject {
        name: "MQueue",
        make: || MQueue::from_iter([1u32, 2, 3, 4]),
        edits: [
            |q| {
                q.pop_front();
                q.push_back(5);
            },
            |q| {
                q.push_back(6);
                q.push_back(7);
            },
            |q| {
                q.pop_front();
                q.pop_front();
            },
        ],
    });
    check(&Subject {
        name: "MMap",
        make: MMap::<u32, u32>::new,
        edits: [
            |m| {
                m.insert(1, 10);
                m.insert(1, 11);
            },
            |m| {
                m.insert(2, 20);
                m.remove(&1);
            },
            |m| {
                m.remove(&2);
                m.insert(3, 30);
            },
        ],
    });
    check(&Subject {
        name: "MSet",
        make: || MSet::from_items([1u32]),
        edits: [
            |s| {
                s.insert(2);
                s.remove(&1);
            },
            |s| {
                s.insert(1);
            },
            |s| {
                s.remove(&2);
                s.insert(3);
            },
        ],
    });
    check(&Subject {
        name: "MCounter",
        make: || MCounter::new(0),
        edits: [
            |c| {
                c.add(2);
                c.add(-2);
            },
            |c| c.add(5),
            |c| {
                c.dec();
                c.add(i64::MAX);
            },
        ],
    });
    check(&Subject {
        name: "MCounterMap",
        make: MCounterMap::<u32>::new,
        edits: [
            |m| {
                m.inc(1);
                m.add(1, -1);
            },
            |m| m.add(2, 3),
            |m| {
                m.inc(2);
                m.inc(3);
            },
        ],
    });
    check(&Subject {
        name: "MRegister",
        make: || MRegister::new(0u32),
        edits: [
            |r| {
                r.set(1);
                r.set(2);
            },
            |r| r.set(3),
            |r| r.set(4),
        ],
    });
    check(&Subject {
        name: "MTree",
        make: || MTree::new(0u32),
        edits: [
            |t| {
                t.push_child(&[], Node::leaf(1));
                t.push_child(&[], Node::branch(2, vec![Node::leaf(3)]));
            },
            |t| t.push_child(&[], Node::leaf(4)),
            |t| t.push_child(&[], Node::leaf(5)),
        ],
    });
}

#[test]
fn a_vec_and_a_tuple_merge_their_logs_field_by_field() {
    check(&Subject {
        name: "Vec",
        make: || vec![MText::from("a"), MText::new(), MText::from("c")],
        edits: [
            |v: &mut Vec<MText>| {
                v[0].push_str("b");
                v[2].insert_str(0, "z");
            },
            |v| v[1].push_str("q"),
            |v| {
                v[0].delete_range(0, 1);
                v[1].push_str("r");
            },
        ],
    });
    check(&Subject {
        name: "tuple",
        make: || {
            (
                MList::from_iter([1u32]),
                MCounter::new(0),
                MRegister::new(false),
            )
        },
        edits: [
            |d| {
                d.0.push(2);
                d.1.inc();
            },
            |d| d.2.set(true),
            |d| {
                d.0.remove(0);
                d.1.add(4);
                d.2.set(false);
            },
        ],
    });
}

/// `ops` sent as they are, not compacted the way `encode_log` sends
/// them: the merge must fuse them exactly as `record` would, or the
/// stats (and the memo key) drift. Every commit lands, 0-2 behind.
fn unfused<L>(name: &str, make: fn() -> L, ops: Vec<L::Op>)
where
    L: Leaf + Persist,
    L::Op: Encode,
{
    let mut payload = BytesMut::new();
    ops.encode(&mut payload);
    let payload = payload.freeze();
    for behind in 0..=2 {
        let (mut old, mut new) = (Head::new(make()), Head::new(make()));
        for step in 0..4 {
            let at = format!("{name} unfused behind {behind} step {step}");
            let base = old.ring.len() - 1 - behind.min(old.ring.len() - 1);
            let stats = both(&mut old, &mut new, base, &payload, &at).expect("lands");
            assert!(stats.child_ops < ops.len(), "{at}: fused to {stats:?}");
        }
    }
}

#[test]
fn a_log_that_arrives_unfused_is_fused_as_record_fuses() {
    use sm_ot::counter::CounterOp;
    use sm_ot::list::ListOp;
    use sm_ot::map::MapOp;
    use sm_ot::register::RegisterOp;
    use sm_ot::text::TextOp;
    unfused(
        "MText",
        || MText::from("doc"),
        vec![
            TextOp::insert(0, "ab"),
            TextOp::insert(2, "c"),
            TextOp::delete(2, 1),
            TextOp::insert(0, "z"),
        ],
    );
    unfused(
        "MList",
        || MList::from_iter([5u32]),
        vec![
            ListOp::Insert(0, 1),
            ListOp::Insert(1, 2),
            ListOp::InsertRun(2, vec![3, 4]),
            ListOp::Delete(3),
            ListOp::Set(0, 9),
        ],
    );
    unfused(
        "MCounter",
        || MCounter::new(0),
        vec![CounterOp::add(1), CounterOp::add(2), CounterOp::add(-3)],
    );
    unfused(
        "MMap",
        MMap::<u32, u32>::new,
        vec![MapOp::Put(1, 1), MapOp::Put(1, 2), MapOp::Remove(2)],
    );
    unfused(
        "MRegister",
        || MRegister::new(0u32),
        vec![RegisterOp::set(1), RegisterOp::set(2)],
    );
}

mergeable_struct! {
    #[derive(Debug, Clone)]
    struct Doc {
        text: MText,
        queue: MQueue<u64>,
        edits: MCounter,
    }
}

/// `mergeable_struct!` derives `Mergeable` only; its `Persist` walks
/// the fields by hand, in one order for every face.
impl Persist for Doc {
    fn encode_state(&self, buf: &mut BytesMut) {
        self.text.encode_state(buf);
        self.queue.encode_state(buf);
        self.edits.encode_state(buf);
    }

    fn decode_state(buf: &mut Bytes) -> Result<Self, DecodeError> {
        Ok(Doc {
            text: Persist::decode_state(buf)?,
            queue: Persist::decode_state(buf)?,
            edits: Persist::decode_state(buf)?,
        })
    }

    fn encode_log(&self, buf: &mut BytesMut) {
        self.text.encode_log(buf);
        self.queue.encode_log(buf);
        self.edits.encode_log(buf);
    }

    fn apply_log(&mut self, buf: &mut Bytes) -> Result<usize, ReplayError> {
        Ok(self.text.apply_log(buf)? + self.queue.apply_log(buf)? + self.edits.apply_log(buf)?)
    }

    fn merge_log(&mut self, base: &Self, buf: &mut Bytes) -> Result<MergeStats, ReplayError> {
        let mut stats = self.text.merge_log(&base.text, buf)?;
        stats += self.queue.merge_log(&base.queue, buf)?;
        stats += self.edits.merge_log(&base.edits, buf)?;
        Ok(stats)
    }

    fn seal_history(&self) {
        self.text.seal_history();
        self.queue.seal_history();
        self.edits.seal_history();
    }

    fn encode_committed_since(
        &self,
        marks: &[usize],
        cursor: &mut usize,
        buf: &mut BytesMut,
    ) -> usize {
        self.text.encode_committed_since(marks, cursor, buf)
            + self.queue.encode_committed_since(marks, cursor, buf)
            + self.edits.encode_committed_since(marks, cursor, buf)
    }
}

#[test]
fn a_mergeable_struct_merges_its_log_field_by_field() {
    check(&Subject {
        name: "mergeable_struct",
        make: || Doc {
            text: MText::from("doc"),
            queue: MQueue::from_iter([1, 2, 3]),
            edits: MCounter::new(0),
        },
        edits: [
            |d| {
                d.text.push_str(" one");
                d.edits.inc();
            },
            |d| {
                let first = d.queue.pop_front().unwrap_or_default();
                d.queue.push_back(first + 10);
                d.edits.inc();
            },
            |d| {
                d.text.delete_range(0, 1);
                d.text.insert_str(0, "D");
            },
        ],
    });
}

#[test]
fn a_log_in_range_against_the_head_but_not_its_base_is_refused_alike() {
    let (mut old, mut new) = (Head::new(MText::from("ab")), Head::new(MText::from("ab")));
    for head in [&mut old, &mut new] {
        let mut work = head.ring[0].fork();
        work.push_str("cdef");
        let mut payload = BytesMut::new();
        work.encode_log(&mut payload);
        head.data
            .merge_log(&head.ring[0].clone(), &mut payload.freeze())
            .unwrap();
        head.commit();
    }
    // Made against the head (6 chars), sent against the first base (2).
    let mut work = new.ring[1].fork();
    work.delete_range(3, 2);
    let mut payload = BytesMut::new();
    work.encode_log(&mut payload);
    let payload = payload.freeze();
    let want = replay_then_merge(&mut old, 0, &payload).unwrap_err();
    let got = merge_log(&mut new, 0, &payload).unwrap_err();
    assert_eq!(got, want);
    assert!(matches!(got, ReplayError::Apply(_)), "{got:?}");
    assert_eq!(new.state(), old.state());
    assert_eq!(new.data.to_string(), "abcdef");
    // Against the base it was made on, it lands.
    both(&mut old, &mut new, 1, &payload, "the right base");
    assert_eq!(new.data.to_string(), "abcf");
}

#[test]
fn a_vec_log_of_the_wrong_length_is_refused_alike() {
    let (mut old, mut new) = (
        Head::new(vec![MCounter::new(0); 2]),
        Head::new(vec![MCounter::new(0); 2]),
    );
    let mut longer = vec![MCounter::new(0); 3];
    longer[2].inc();
    let mut payload = BytesMut::new();
    longer.encode_log(&mut payload);
    let payload = payload.freeze();
    let want = replay_then_merge(&mut old, 0, &payload).unwrap_err();
    let got = merge_log(&mut new, 0, &payload).unwrap_err();
    assert_eq!(got, want);
    assert!(matches!(got, ReplayError::Shape(_)), "{got:?}");
}

//! The sequence algebra, checked exhaustively on small scopes.
//!
//! List and text share one set of insert/delete rules (`sm_ot::edit`), so
//! every sweep here runs that one rule with both payloads, `Vec<u8>` and
//! `String`.
//!
//! The first gate is the merge rule. List and text merge are defined by
//! the delta path ([`rebase_delta`]): inserts land in base-position order,
//! the committed side first on an exact tie. For every pair of logs in
//! scope this suite asserts that the delta path
//!
//! 1. answers, and committed-then-rebased keeps exactly the base units
//!    neither side deleted plus every insert its own side kept, each once;
//! 2. keeps each side's surviving units in that side's order;
//! 3. reaches the pairwise grid's state ([`seq::rebase`]) on every pair
//!    outside the collapsed-gap class ([`collapsed_gap`]).
//!
//! The collapsed-gap class is the one place the grid is not an oracle:
//! there its answer depends on the order of ops inside a log, so two log
//! pairs with the same net edits can get two grid answers. Every inserted
//! unit is unique in scope, so a lost or doubled unit shows.
//!
//! The second gate is the pairwise rules themselves, over every single op
//! on a base of zero to four units (0- to 2-unit inserts, 0- to 3-unit
//! deletes, the list's point and span forms and `Set`): TP1 for every
//! concurrent pair; for every adjacent pair that `compose` fuses or
//! `annihilates` drops, that the result applies like the pair; and that
//! every concurrent op rebased over the result, and the result rebased
//! over every concurrent op, reach the states the pair reaches.
//!
//! The third gate holds [`Operation::check_run`] — the length walk a
//! session commit or a merge runs instead of applying a log to a copy — to
//! its definition: on every log of at most three ops over a short state
//! (positions up to one past the end and a range end past `usize::MAX`,
//! so refused ops occur), it returns what `apply_all` on a clone returns.
//!
//! The enumerations take seconds in release and minutes with debug
//! assertions, so debug builds skip them; CI runs this file in release.
//! The two proptests at the end run in both.

use proptest::prelude::*;
use sm_ot::delta::{from_ops_biased, rebase_delta, Delta, DeltaOp, DeltaPayload, GapBias, Span};
use sm_ot::list::ListOp;
use sm_ot::state::{ChunkTree, Rope};
use sm_ot::text::TextOp;
use sm_ot::{apply_all, seq, Operation};

/// A state read as its sequence of units.
trait Units {
    fn units(&self) -> Vec<u32>;
}

impl Units for ChunkTree<u8> {
    fn units(&self) -> Vec<u32> {
        self.iter().map(|&v| u32::from(v)).collect()
    }
}

impl Units for Rope {
    fn units(&self) -> Vec<u32> {
        self.to_string().chars().map(u32::from).collect()
    }
}

/// One base-coordinate step of a delta: an insert, or one base unit
/// kept or deleted.
#[derive(Clone, Copy, PartialEq)]
enum Step {
    Insert,
    Keep,
    Delete,
}

fn steps<P: DeltaPayload>(delta: &Delta<P>) -> Vec<Step> {
    let mut out = Vec::new();
    for span in delta.spans() {
        match span {
            Span::Retain(n) => out.extend(std::iter::repeat_n(Step::Keep, *n)),
            Span::Delete(n) => out.extend(std::iter::repeat_n(Step::Delete, *n)),
            Span::Insert { .. } => out.push(Step::Insert),
        }
    }
    out
}

/// The collapsed-gap class: an incoming insert and a later committed
/// insert with every base unit between them deleted by one side or the
/// other. Both deltas are folded with their side's [`GapBias`]. The walk
/// takes a committed insert before an incoming one at the same place, and
/// everything past a delta's end is kept.
fn collapsed_gap<P: DeltaPayload>(committed: &Delta<P>, incoming: &Delta<P>) -> bool {
    let (com, inc) = (steps(committed), steps(incoming));
    let (mut l, mut r) = (0, 0);
    // An incoming insert with no unit both sides keep seen since it.
    let mut live = false;
    loop {
        if com.get(l) == Some(&Step::Insert) {
            if live {
                return true;
            }
            l += 1;
            continue;
        }
        if inc.get(r) == Some(&Step::Insert) {
            live = true;
            r += 1;
            continue;
        }
        // No committed insert left to meet.
        let Some(&c) = com.get(l) else {
            return false;
        };
        match (c, inc.get(r)) {
            // Past the incoming delta's end no incoming insert is left.
            (Step::Keep, None) => return false,
            (Step::Keep, Some(Step::Keep)) => live = false,
            _ => {}
        }
        l += 1;
        r += 1;
    }
}

/// What one pair showed.
#[derive(Debug, Default, PartialEq)]
struct Tally {
    pairs: usize,
    in_class: usize,
    differs_from_grid: usize,
}

/// Check the rule on one pair over `base`; every inserted unit must be
/// unique across `base` and both logs.
fn check_pair<O>(base: &O::State, committed: &[O], incoming: &[O], tally: &mut Tally)
where
    O: DeltaOp,
    O::State: Units,
{
    let what = || format!("committed {committed:?} incoming {incoming:?}");
    let after = |log: &[O], rebased: &[O]| {
        let mut s = base.clone();
        apply_all(&mut s, log).unwrap();
        apply_all(&mut s, rebased).unwrap();
        s.units()
    };
    let (rebased, stats) = rebase_delta(incoming, committed)
        .unwrap_or_else(|| panic!("the delta path declined {}", what()));
    let merged = after(committed, &rebased);
    let (base_units, com_units, inc_units) =
        (base.units(), after(committed, &[]), after(incoming, &[]));

    // (i) Exactly the survivors, each once.
    let kept = |u: &u32| {
        let on = |side: &[u32]| side.contains(u);
        if on(&base_units) {
            on(&com_units) && on(&inc_units)
        } else {
            on(&com_units) || on(&inc_units)
        }
    };
    let mut want: Vec<u32> = base_units
        .iter()
        .chain(&com_units)
        .chain(&inc_units)
        .copied()
        .filter(kept)
        .collect();
    want.sort_unstable();
    want.dedup();
    let mut got = merged.clone();
    got.sort_unstable();
    assert_eq!(got, want, "lost or doubled a unit: {}", what());

    // (ii) Each side's survivors in that side's order.
    for side in [&com_units, &inc_units] {
        let in_merge: Vec<u32> = merged
            .iter()
            .copied()
            .filter(|u| side.contains(u))
            .collect();
        let in_side: Vec<u32> = side
            .iter()
            .copied()
            .filter(|u| merged.contains(u))
            .collect();
        assert_eq!(in_merge, in_side, "reordered a side: {}", what());
    }

    // (iii) The grid's state outside the class.
    let class = collapsed_gap(
        &from_ops_biased(committed, GapBias::Start).unwrap(),
        &from_ops_biased(incoming, GapBias::End).unwrap(),
    );
    let differs = merged != after(committed, &seq::rebase(incoming, committed));
    assert!(
        class || !differs,
        "differs from the grid outside the class: {}",
        what()
    );

    // The linear sweep's work is bounded by the logs it was given.
    assert!(stats.incoming_spans <= 2 * incoming.len() + 1, "{}", what());
    assert!(
        stats.committed_spans <= 2 * committed.len() + 1,
        "{}",
        what()
    );

    tally.pairs += 1;
    tally.in_class += usize::from(class);
    tally.differs_from_grid += usize::from(differs);
}

/// Every log of at most `max_ops` single-element inserts and deletes
/// over a `base_len`-element list; inserted values count up from `tag`.
fn every_list_log(base_len: usize, max_ops: usize, tag: u8) -> Vec<Vec<ListOp<u8>>> {
    let mut all = vec![(Vec::new(), base_len)];
    let mut from = 0;
    for _ in 0..max_ops {
        let until = all.len();
        for i in from..until {
            let (log, len) = all[i].clone();
            let extended = |op| log.iter().cloned().chain([op]).collect::<Vec<_>>();
            for pos in 0..=len {
                let op = ListOp::Insert(pos, tag + log.len() as u8);
                all.push((extended(op), len + 1));
            }
            for pos in 0..len {
                all.push((extended(ListOp::Delete(pos)), len - 1));
            }
        }
        from = until;
    }
    all.into_iter().map(|(log, _)| log).collect()
}

/// Every log of at most `max_ops` text inserts and deletes of one or two
/// chars over a `base_len`-char text; inserted chars count up from `tag`.
fn every_text_log(base_len: usize, max_ops: usize, tag: char) -> Vec<Vec<TextOp>> {
    let mut all = vec![(Vec::new(), base_len, 0u32)];
    let mut from = 0;
    for _ in 0..max_ops {
        let until = all.len();
        for i in from..until {
            let (log, len, used) = all[i].clone();
            let extended = |op| log.iter().cloned().chain([op]).collect::<Vec<_>>();
            for n in 1..=2u32 {
                let run: String = (used..used + n)
                    .map(|k| char::from_u32(u32::from(tag) + k).unwrap())
                    .collect();
                for pos in 0..=len {
                    let op = TextOp::insert(pos, run.clone());
                    all.push((extended(op), len + n as usize, used + n));
                }
                for pos in 0..(len + 1).saturating_sub(n as usize) {
                    let op = TextOp::delete(pos, n as usize);
                    all.push((extended(op), len - n as usize, used));
                }
            }
        }
        from = until;
    }
    all.into_iter().map(|(log, ..)| log).collect()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "831 744 log pairs: seconds in release, minutes with debug assertions"
)]
fn every_small_list_log_pair_merges_by_the_rule() {
    let base: ChunkTree<u8> = (0..4).collect();
    let committed = every_list_log(4, 3, 10);
    let incoming = every_list_log(4, 3, 20);
    assert_eq!(
        committed.len(),
        1 + 9 + 83 + 819,
        "the scope is what it says"
    );
    let mut tally = Tally::default();
    for c in &committed {
        for i in &incoming {
            check_pair(&base, c, i, &mut tally);
        }
    }
    println!("list: {tally:?}");
    assert_eq!(
        tally,
        Tally {
            pairs: 831_744,
            in_class: 57_360,
            differs_from_grid: 1_336,
        }
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a hundred thousand log pairs: seconds in release, minutes with debug assertions"
)]
fn every_small_text_log_pair_merges_by_the_rule() {
    let base = Rope::from("abcd");
    let committed = every_text_log(4, 2, 'A');
    let incoming = every_text_log(4, 2, 'P');
    let mut tally = Tally::default();
    for c in &committed {
        for i in &incoming {
            check_pair(&base, c, i, &mut tally);
        }
    }
    assert_eq!(committed.len(), 1 + 17 + 309, "the scope is what it says");
    println!("text: {tally:?}");
    assert_eq!(
        tally,
        Tally {
            pairs: 106_929,
            in_class: 3_461,
            differs_from_grid: 68,
        }
    );
}

/// The ops of a text log's next step on `s`: inserts of one and of two
/// chars (one of them not ASCII) and deletes of up to two, at every
/// position up to one past the end, and a delete whose end passes
/// `usize::MAX`.
fn text_ops_at(s: &Rope) -> Vec<TextOp> {
    let mut ops = vec![TextOp::delete(usize::MAX, 2)];
    for pos in 0..=s.char_len() + 1 {
        ops.extend([TextOp::insert(pos, "x"), TextOp::insert(pos, "✨y")]);
        ops.extend((0..=2).map(|n| TextOp::delete(pos, n)));
    }
    ops
}

/// The ops of a list log's next step on `s`: both insert forms, the empty
/// run, both delete forms of up to two and a `Set`, at every position up
/// to one past the end, and a range whose end passes `usize::MAX`.
fn list_ops_at(s: &ChunkTree<u8>) -> Vec<ListOp<u8>> {
    let mut ops = vec![ListOp::DeleteRange(usize::MAX, 2)];
    for pos in 0..=s.len() + 1 {
        ops.extend([
            ListOp::Insert(pos, 7),
            ListOp::InsertRun(pos, vec![8, 9]),
            ListOp::InsertRun(pos, vec![]),
            ListOp::Delete(pos),
            ListOp::DeleteRange(pos, 0),
            ListOp::DeleteRange(pos, 2),
            ListOp::Set(pos, 6),
        ]);
    }
    ops
}

/// Every log of at most three ops drawn by `ops_at` (each from the state
/// the ops before it left; a refused op leaves it) on each of `bases`:
/// `check_run` must answer what `apply_all` on a clone answers. Returns
/// the logs checked and how many were refused.
fn check_run_sweep<O>(bases: Vec<O::State>, ops_at: impl Fn(&O::State) -> Vec<O>) -> (usize, usize)
where
    O: Operation,
    O::State: PartialEq + std::fmt::Debug,
{
    let (mut logs, mut refused) = (0, 0);
    for base in bases {
        let mut level = vec![(Vec::new(), base.clone())];
        for _ in 0..=3 {
            let mut next = Vec::new();
            for (log, state) in &level {
                let want = apply_all(&mut base.clone(), log);
                assert_eq!(O::check_run(&base, log), want, "{log:?} on {base:?}");
                logs += 1;
                refused += usize::from(want.is_err());
                if log.len() == 3 {
                    continue;
                }
                for op in ops_at(state) {
                    let mut after = state.clone();
                    if op.apply(&mut after).is_err() {
                        assert_eq!(&after, state, "a refused {op:?} changed the state");
                    }
                    let log: Vec<O> = log.iter().cloned().chain([op]).collect();
                    next.push((log, after));
                }
            }
            level = next;
        }
    }
    (logs, refused)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "176 563 logs: about a second in release, longer with debug assertions"
)]
fn check_run_answers_what_applying_a_copy_answers() {
    let texts = ["", "a", "ab", "abé", "abéd"].map(Rope::from).to_vec();
    let text = check_run_sweep(texts, text_ops_at);
    let lists = (0..=3u8).map(|n| (0..n).collect()).collect();
    let list = check_run_sweep(lists, list_ops_at);
    println!("check_run: text {text:?}, list {list:?} (logs, refused)");
    // The scope is what it says; refused logs occur.
    assert_eq!(text, (75_005, 48_997));
    assert_eq!(list, (101_558, 71_678));
}

/// A base of `n` units and every single op on it, for the pairwise
/// sweeps: inserts of 0 to 2 fresh units counting up from `tag`, deletes
/// of 0 to 3 units, and for the list both point and span forms and `Set`.
trait Scope: DeltaOp + PartialEq
where
    Self::State: Units + PartialEq + std::fmt::Debug,
{
    fn base(n: usize) -> Self::State;
    fn ops_on(len: usize, tag: u32) -> Vec<Self>;
}

impl Scope for ListOp<u8> {
    fn base(n: usize) -> ChunkTree<u8> {
        (0..n as u8).collect()
    }

    fn ops_on(len: usize, tag: u32) -> Vec<Self> {
        let (a, b) = (tag as u8, tag as u8 + 1);
        let mut ops = Vec::new();
        for p in 0..=len {
            ops.extend([
                ListOp::Insert(p, a),
                ListOp::InsertRun(p, vec![]),
                ListOp::InsertRun(p, vec![a]),
                ListOp::InsertRun(p, vec![a, b]),
            ]);
            ops.extend((0..=(len - p).min(3)).map(|n| ListOp::DeleteRange(p, n)));
            if p < len {
                ops.extend([ListOp::Delete(p), ListOp::Set(p, a)]);
            }
        }
        ops
    }
}

impl Scope for TextOp {
    fn base(n: usize) -> Rope {
        Rope::from(&"abcd"[..n])
    }

    fn ops_on(len: usize, tag: u32) -> Vec<Self> {
        let unit = |k| char::from_u32(tag + k).unwrap();
        let mut ops = Vec::new();
        for p in 0..=len {
            for n in 0..=2 {
                ops.push(TextOp::insert(p, (0..n).map(unit).collect::<String>()));
            }
            ops.extend((0..=(len - p).min(3)).map(|n| TextOp::delete(p, n)));
        }
        ops
    }
}

/// What the pairwise sweeps saw.
#[derive(Debug, Default, PartialEq)]
struct Pairwise {
    concurrent: usize,
    fused: usize,
    annihilated: usize,
    rebased: usize,
}

/// TP1 for every concurrent pair of ops on every base of up to four
/// units; then, for every adjacent pair `compose` fuses or `annihilates`
/// drops, that the result applies like the pair and that, with every
/// concurrent op, it rebases like the pair in both directions.
fn pairwise_sweep<O: Scope>() -> Pairwise
where
    O::State: Units + PartialEq + std::fmt::Debug,
{
    let mut seen = Pairwise::default();
    for n in 0..=4 {
        let base = O::base(n);
        let ops = O::ops_on(n, 0x41);
        for a in &ops {
            for b in &O::ops_on(n, 0x50) {
                let (left, right) = sm_ot::tp1_outcome(&base, a, b).unwrap_or_else(|e| {
                    panic!("TP1 apply failure: {a:?} ‖ {b:?} on {base:?}: {e}")
                });
                assert_eq!(left, right, "TP1: {a:?} ‖ {b:?} on {base:?}");
                seen.concurrent += 1;
            }
        }
        for a in &ops {
            let mut after_a = base.clone();
            a.apply(&mut after_a).unwrap();
            for b in O::ops_on(after_a.units().len(), 0x50) {
                let mut pair = after_a.clone();
                b.apply(&mut pair).unwrap();
                let fused = if a.annihilates(&b) {
                    seen.annihilated += 1;
                    Vec::new()
                } else if let Some(c) = a.compose(&b) {
                    seen.fused += 1;
                    vec![c]
                } else {
                    continue;
                };
                let what = || format!("{a:?}; {b:?} as {fused:?} on {base:?}");
                let mut once = base.clone();
                apply_all(&mut once, &fused).unwrap_or_else(|e| panic!("{}: {e}", what()));
                assert_eq!(once, pair, "applies unlike the pair: {}", what());
                let committed = [a.clone(), b.clone()];
                for x in O::ops_on(n, 0x30) {
                    let over = |log: &[O]| {
                        let mut s = base.clone();
                        apply_all(&mut s, log).unwrap();
                        apply_all(&mut s, &seq::rebase(std::slice::from_ref(&x), log)).unwrap();
                        s
                    };
                    assert_eq!(
                        over(&fused),
                        over(&committed),
                        "rebasing {x:?} over {}",
                        what()
                    );
                    let under = |log: &[O]| {
                        let mut s = base.clone();
                        x.apply(&mut s).unwrap();
                        apply_all(&mut s, &seq::rebase(log, std::slice::from_ref(&x))).unwrap();
                        s
                    };
                    assert_eq!(
                        under(&fused),
                        under(&committed),
                        "rebasing over {x:?}: {}",
                        what()
                    );
                    seen.rebased += 1;
                }
            }
        }
    }
    seen
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "seventy thousand rebases: well under a second in release"
)]
fn the_list_rules_hold_tp1_and_compose_soundly() {
    let seen = pairwise_sweep::<ListOp<u8>>();
    println!("list pairwise: {seen:?}");
    let want = Pairwise {
        concurrent: 3_466,
        fused: 2_126,
        annihilated: 75,
        rebased: 71_877,
    };
    assert_eq!(seen, want, "the scope is what it says");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "thirty thousand rebases: well under a second in release"
)]
fn the_text_rules_hold_tp1_and_compose_soundly() {
    let seen = pairwise_sweep::<TextOp>();
    println!("text pairwise: {seen:?}");
    let want = Pairwise {
        concurrent: 1_647,
        fused: 1_218,
        annihilated: 30,
        rebased: 28_248,
    };
    assert_eq!(seen, want, "the scope is what it says");
}

/// A valid log of delta-expressible list ops (no `Set`) against a list of
/// length `len0`, point and span forms mixed; inserted values count up
/// from `tag`.
fn list_seq_ops(len0: usize, max: usize, tag: u8) -> impl Strategy<Value = Vec<ListOp<u8>>> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..max).prop_map(move |raw| {
        let mut len = len0;
        let mut next = tag;
        let mut ops = Vec::new();
        for (kind, pos, n) in raw {
            match kind % 4 {
                0 => {
                    let i = (pos as usize) % (len + 1);
                    ops.push(ListOp::Insert(i, next));
                    next += 1;
                    len += 1;
                }
                1 if len > 0 => {
                    let i = (pos as usize) % len;
                    ops.push(ListOp::Delete(i));
                    len -= 1;
                }
                2 => {
                    let i = (pos as usize) % (len + 1);
                    let run: Vec<u8> = (0..1 + n % 3).map(|k| next + k).collect();
                    next += run.len() as u8;
                    len += run.len();
                    ops.push(ListOp::InsertRun(i, run));
                }
                _ if len > 0 => {
                    let i = (pos as usize) % len;
                    let l = 1 + (n as usize) % (len - i).min(3);
                    len -= l;
                    ops.push(ListOp::DeleteRange(i, l));
                }
                _ => {}
            }
        }
        ops
    })
}

/// A valid log of text ops against a text of `len0` chars; inserted
/// chars count up from `tag`.
fn text_ops(len0: usize, max: usize, tag: char) -> impl Strategy<Value = Vec<TextOp>> {
    prop::collection::vec((any::<bool>(), any::<u8>(), any::<u8>()), 0..max).prop_map(move |raw| {
        let mut len = len0;
        let mut next = u32::from(tag);
        let mut ops = Vec::new();
        for (is_ins, pos, n) in raw {
            if is_ins {
                let p = (pos as usize) % (len + 1);
                let run: String = (next..next + 1 + u32::from(n % 3))
                    .map(|c| char::from_u32(c).unwrap())
                    .collect();
                next += run.chars().count() as u32;
                len += run.chars().count();
                ops.push(TextOp::insert(p, run));
            } else if len > 0 {
                let p = (pos as usize) % len;
                let l = 1 + (n as usize) % (len - p).min(3);
                len -= l;
                ops.push(TextOp::delete(p, l));
            }
        }
        ops
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Longer logs than the enumeration reaches, span forms included.
    #[test]
    fn prop_delta_grid_equiv_list(c in list_seq_ops(6, 10, 100), i in list_seq_ops(6, 10, 170)) {
        let base: ChunkTree<u8> = (0..6).collect();
        check_pair(&base, &c, &i, &mut Tally::default());
    }

    #[test]
    fn prop_delta_grid_equiv_text(c in text_ops(8, 8, 'A'), i in text_ops(8, 8, 'a')) {
        let base = Rope::from("01234567");
        check_pair(&base, &c, &i, &mut Tally::default());
    }
}

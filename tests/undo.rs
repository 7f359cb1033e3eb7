//! Undo integration: the operation logs that mergeable structures record
//! for merging are rich enough to *reverse* — `sm_ot::invert` builds the
//! undo script from a structure's public log, giving applications a
//! rollback path that composes with fork/merge.

use proptest::prelude::*;
use spawn_merge::ot::apply_all;
use spawn_merge::ot::invert::inverse_sequence;
use spawn_merge::ot::state::{ChunkTree, Rope};
use spawn_merge::{Leaf, MList, MText, Mergeable};

#[test]
fn list_session_can_be_undone_from_its_log() {
    let base = vec![1u32, 2, 3];
    let mut list = MList::from_vec(base.clone());
    list.push(4);
    list.remove(0);
    list.set(1, 9);
    list.insert(0, 7);

    let undo = inverse_sequence(&ChunkTree::from_vec(base.clone()), list.log())
        .expect("log applies to base");
    let mut state = ChunkTree::from_vec(list.to_vec());
    apply_all(&mut state, &undo).unwrap();
    assert_eq!(state, base);
}

#[test]
fn merged_history_is_undoable_as_a_whole() {
    // After merging children, the parent's log is the full serialized
    // history since creation — invertible back to the original base.
    let base = vec!['a', 'b'];
    let mut parent = MList::from_vec(base.clone());
    let mut c1 = parent.fork();
    let mut c2 = parent.fork();
    c1.push('x');
    c2.remove(0);
    parent.set(1, 'B');
    parent.merge(&c1).unwrap();
    parent.merge(&c2).unwrap();

    let undo = inverse_sequence(&ChunkTree::from_vec(base.clone()), parent.log()).unwrap();
    let mut state = ChunkTree::from_vec(parent.to_vec());
    apply_all(&mut state, &undo).unwrap();
    assert_eq!(state, base);
}

#[test]
fn text_session_can_be_undone_from_its_log() {
    let base = "hello world".to_string();
    let mut doc = MText::from(base.as_str());
    doc.insert_str(5, ", cruel");
    doc.delete_range(0, 2);
    doc.push_str("!!");

    let undo = inverse_sequence(&Rope::from(base.as_str()), doc.log()).unwrap();
    let mut state = Rope::from(doc.to_string());
    apply_all(&mut state, &undo).unwrap();
    assert_eq!(state, base);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_list_sessions_are_undoable(
        base in prop::collection::vec(any::<u8>(), 0..6),
        script in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..12),
    ) {
        let mut list = MList::from_vec(base.clone());
        for (kind, pos, val) in script {
            match kind % 3 {
                0 => {
                    let at = (pos as usize) % (list.len() + 1);
                    list.insert(at, val);
                }
                1 if !list.is_empty() => {
                    list.remove((pos as usize) % list.len());
                }
                _ if !list.is_empty() => {
                    list.set((pos as usize) % list.len(), val);
                }
                _ => {}
            }
        }
        let undo = inverse_sequence(&ChunkTree::from_vec(base.clone()), list.log())
            .expect("own log always applies");
        let mut state = ChunkTree::from_vec(list.to_vec());
        apply_all(&mut state, &undo).unwrap();
        prop_assert_eq!(state, base);
    }
}

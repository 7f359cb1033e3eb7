//! OT algebra for **ordered trees** (the paper lists trees among the
//! structures OT-based merging supports, citing Ignat & Norrie's treeOPT).
//!
//! State is a rooted ordered tree of values; nodes are addressed by a
//! [`Path`] of child indices from the root. Operations insert a subtree at
//! a slot, delete a subtree, or overwrite a node's value. Transformation
//! shifts sibling indices at the deepest shared level, vanishes operations
//! whose target (or an ancestor of it) was concurrently deleted, and breaks
//! insert/insert slot ties with [`Side`], in the style of treeOPT.

use crate::{ApplyError, Operation, Side, Transformed};

/// Requirements on tree value types.
pub trait Value: Clone + Send + Sync + std::fmt::Debug + PartialEq + 'static {}
impl<T: Clone + Send + Sync + std::fmt::Debug + PartialEq + 'static> Value for T {}

/// A node address: child indices from the root. The empty path is the root.
pub type Path = Vec<usize>;

/// A tree node: a value plus ordered children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node<V> {
    /// Payload of this node.
    pub value: V,
    /// Ordered children.
    pub children: Vec<Node<V>>,
}

impl<V: Value> Node<V> {
    /// A leaf node carrying `value`.
    pub fn leaf(value: V) -> Self {
        Node {
            value,
            children: Vec::new(),
        }
    }

    /// A node with children.
    pub fn branch(value: V, children: Vec<Node<V>>) -> Self {
        Node { value, children }
    }

    /// Total number of nodes in this subtree (including itself).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(Node::size).sum::<usize>()
    }

    /// Borrow the node at `path`, if it exists.
    pub fn node_at(&self, path: &[usize]) -> Option<&Node<V>> {
        let mut cur = self;
        for &i in path {
            cur = cur.children.get(i)?;
        }
        Some(cur)
    }

    fn node_at_mut(&mut self, path: &[usize]) -> Option<&mut Node<V>> {
        let mut cur = self;
        for &i in path {
            cur = cur.children.get_mut(i)?;
        }
        Some(cur)
    }
}

/// An operation on an ordered tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeOp<V> {
    /// Insert `node` so that it becomes the child at slot `path[last]` of
    /// the node addressed by `path[..last]`. `path` must be non-empty (the
    /// root cannot be inserted).
    Insert {
        /// Target slot address.
        path: Path,
        /// Subtree to insert.
        node: Node<V>,
    },
    /// Delete the subtree rooted at `path` (non-empty: the root cannot be
    /// deleted).
    Delete {
        /// Address of the subtree to delete.
        path: Path,
    },
    /// Overwrite the value of the node at `path` (may be empty = root).
    SetValue {
        /// Address of the node to rewrite.
        path: Path,
        /// New value.
        value: V,
    },
}

impl<V: Value> TreeOp<V> {
    /// The path this operation targets.
    pub fn path(&self) -> &Path {
        match self {
            TreeOp::Insert { path, .. }
            | TreeOp::Delete { path }
            | TreeOp::SetValue { path, .. } => path,
        }
    }

    fn with_path(&self, path: Path) -> Self {
        match self {
            TreeOp::Insert { node, .. } => TreeOp::Insert {
                path,
                node: node.clone(),
            },
            TreeOp::Delete { .. } => TreeOp::Delete { path },
            TreeOp::SetValue { value, .. } => TreeOp::SetValue {
                path,
                value: value.clone(),
            },
        }
    }
}

impl<V: Value> Operation for TreeOp<V> {
    type State = Node<V>;

    type Memo = ();

    const SCALAR: bool = true;

    fn apply(&self, state: &mut Node<V>) -> Result<(), ApplyError> {
        match self {
            TreeOp::Insert { path, node } => {
                let Some((&slot, parent_path)) = path.split_last() else {
                    return Err(ApplyError::new("cannot insert at the root path"));
                };
                let parent = state
                    .node_at_mut(parent_path)
                    .ok_or_else(|| ApplyError::new(format!("no node at {parent_path:?}")))?;
                if slot > parent.children.len() {
                    return Err(ApplyError::new(format!(
                        "insert slot {slot} out of range (children {})",
                        parent.children.len()
                    )));
                }
                parent.children.insert(slot, node.clone());
            }
            TreeOp::Delete { path } => {
                let Some((&slot, parent_path)) = path.split_last() else {
                    return Err(ApplyError::new("cannot delete the root"));
                };
                let parent = state
                    .node_at_mut(parent_path)
                    .ok_or_else(|| ApplyError::new(format!("no node at {parent_path:?}")))?;
                if slot >= parent.children.len() {
                    return Err(ApplyError::new(format!(
                        "delete slot {slot} out of range (children {})",
                        parent.children.len()
                    )));
                }
                parent.children.remove(slot);
            }
            TreeOp::SetValue { path, value } => {
                let node = state
                    .node_at_mut(path)
                    .ok_or_else(|| ApplyError::new(format!("no node at {path:?}")))?;
                node.value = value.clone();
            }
        }
        Ok(())
    }

    fn transform(&self, against: &Self, side: Side) -> Transformed<Self> {
        let p = self.path();
        match against {
            TreeOp::Insert { path: q, .. } => {
                let d = q.len() - 1; // depth of the affected sibling index
                let same_parent_prefix = p.len() > d && p[..d] == q[..d];
                if !same_parent_prefix {
                    return Transformed::One(self.clone());
                }
                let k = q[d];
                if p[d] > k {
                    let mut np = p.clone();
                    np[d] += 1;
                    Transformed::One(self.with_path(np))
                } else if p[d] == k {
                    let is_same_slot_insert =
                        matches!(self, TreeOp::Insert { .. }) && p.len() == q.len();
                    if is_same_slot_insert && side == Side::Left {
                        // Committed side keeps the slot.
                        Transformed::One(self.clone())
                    } else {
                        // Either we lose the insert/insert tie, or our path
                        // passes through / targets the node that the insert
                        // displaced to the right.
                        let mut np = p.clone();
                        np[d] += 1;
                        Transformed::One(self.with_path(np))
                    }
                } else {
                    Transformed::One(self.clone())
                }
            }
            TreeOp::Delete { path: q } => {
                let d = q.len() - 1;
                let same_parent_prefix = p.len() > d && p[..d] == q[..d];
                if !same_parent_prefix {
                    return Transformed::One(self.clone());
                }
                let k = q[d];
                if p[d] > k {
                    let mut np = p.clone();
                    np[d] -= 1;
                    Transformed::One(self.with_path(np))
                } else if p[d] == k {
                    if matches!(self, TreeOp::Insert { .. }) && p.len() == q.len() {
                        // Inserting at the slot the delete vacated is fine:
                        // the slot index is unchanged.
                        Transformed::One(self.clone())
                    } else {
                        // Our target node or one of its ancestors is gone.
                        Transformed::None
                    }
                } else {
                    Transformed::One(self.clone())
                }
            }
            TreeOp::SetValue { path: q, .. } => {
                if let TreeOp::SetValue { .. } = self {
                    if p == q {
                        // Same-node write conflict: last-merged-wins.
                        return match side {
                            Side::Left => Transformed::None,
                            Side::Right => Transformed::One(self.clone()),
                        };
                    }
                }
                Transformed::One(self.clone())
            }
        }
    }

    fn compose(&self, next: &Self) -> Option<Self> {
        use TreeOp::*;
        match (self, next) {
            (SetValue { path: p1, .. }, SetValue { path: p2, value }) if p1 == p2 => {
                Some(SetValue {
                    path: p1.clone(),
                    value: value.clone(),
                })
            }
            // Insert then a write inside the freshly inserted subtree: bake
            // the write into the inserted payload.
            (Insert { path: p, node }, SetValue { path: q, value }) if q.starts_with(p) => {
                let mut node = node.clone();
                node.node_at_mut(&q[p.len()..])?.value = value.clone();
                Some(Insert {
                    path: p.clone(),
                    node,
                })
            }
            // Insert then a delete strictly inside the inserted subtree:
            // shrink the payload. Deleting the whole subtree is `annihilates`.
            (Insert { path: p, node }, Delete { path: q })
                if q.len() > p.len() && q.starts_with(p) =>
            {
                let mut node = node.clone();
                let (&slot, parent_rel) = q[p.len()..].split_last().expect("len checked");
                let parent = node.node_at_mut(parent_rel)?;
                if slot >= parent.children.len() {
                    return None;
                }
                parent.children.remove(slot);
                Some(Insert {
                    path: p.clone(),
                    node,
                })
            }
            // A write inside a subtree the very next delete removes: the
            // delete alone.
            (SetValue { path: p, .. }, Delete { path: q }) if p.starts_with(q) => {
                Some(next.clone())
            }
            _ => None,
        }
    }

    fn annihilates(&self, next: &Self) -> bool {
        // A subtree inserted and deleted again with nothing in between.
        matches!((self, next), (TreeOp::Insert { path: p, .. }, TreeOp::Delete { path: q }) if p == q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_tp1, seq};

    type Op = TreeOp<&'static str>;

    /// root ── a(a0, a1) ── b ── c
    fn base() -> Node<&'static str> {
        Node::branch(
            "root",
            vec![
                Node::branch("a", vec![Node::leaf("a0"), Node::leaf("a1")]),
                Node::leaf("b"),
                Node::leaf("c"),
            ],
        )
    }

    #[test]
    fn apply_insert_delete_set() {
        let mut t = base();
        Op::Insert {
            path: vec![1],
            node: Node::leaf("x"),
        }
        .apply(&mut t)
        .unwrap();
        assert_eq!(t.children[1].value, "x");
        assert_eq!(t.children.len(), 4);

        Op::Delete { path: vec![0, 1] }.apply(&mut t).unwrap();
        assert_eq!(t.children[0].children.len(), 1);

        Op::SetValue {
            path: vec![0],
            value: "A",
        }
        .apply(&mut t)
        .unwrap();
        assert_eq!(t.children[0].value, "A");

        Op::SetValue {
            path: vec![],
            value: "R",
        }
        .apply(&mut t)
        .unwrap();
        assert_eq!(t.value, "R");
    }

    #[test]
    fn apply_errors() {
        let mut t = base();
        assert!(Op::Insert {
            path: vec![],
            node: Node::leaf("x")
        }
        .apply(&mut t)
        .is_err());
        assert!(Op::Delete { path: vec![] }.apply(&mut t).is_err());
        assert!(Op::Delete { path: vec![9] }.apply(&mut t).is_err());
        assert!(Op::Insert {
            path: vec![9, 0],
            node: Node::leaf("x")
        }
        .apply(&mut t)
        .is_err());
        assert!(Op::SetValue {
            path: vec![5],
            value: "x"
        }
        .apply(&mut t)
        .is_err());
    }

    #[test]
    fn node_helpers() {
        let t = base();
        assert_eq!(t.size(), 6);
        assert_eq!(t.node_at(&[0, 1]).unwrap().value, "a1");
        assert!(t.node_at(&[3]).is_none());
    }

    #[test]
    fn sibling_shift_on_insert() {
        let ins = Op::Insert {
            path: vec![0],
            node: Node::leaf("new"),
        };
        let del = Op::Delete { path: vec![1] };
        // Delete of child 1 must shift to 2 after an insert at 0.
        let t = del.transform(&ins, Side::Right);
        assert_eq!(t, Transformed::One(Op::Delete { path: vec![2] }));
        assert_tp1(&base(), &ins, &del);
    }

    #[test]
    fn descendant_paths_shift_too() {
        let ins = Op::Insert {
            path: vec![0],
            node: Node::leaf("new"),
        };
        let set = Op::SetValue {
            path: vec![0, 1],
            value: "z",
        };
        let t = set.transform(&ins, Side::Right);
        assert_eq!(
            t,
            Transformed::One(Op::SetValue {
                path: vec![1, 1],
                value: "z"
            })
        );
        assert_tp1(&base(), &ins, &set);
    }

    #[test]
    fn ops_inside_deleted_subtree_vanish() {
        let del = Op::Delete { path: vec![0] };
        let set = Op::SetValue {
            path: vec![0, 1],
            value: "z",
        };
        assert_eq!(set.transform(&del, Side::Right), Transformed::None);
        assert_tp1(&base(), &del, &set);

        let ins = Op::Insert {
            path: vec![0, 2],
            node: Node::leaf("x"),
        };
        assert_eq!(ins.transform(&del, Side::Right), Transformed::None);
        assert_tp1(&base(), &del, &ins);
    }

    #[test]
    fn duplicate_subtree_deletes_collapse() {
        let del = Op::Delete { path: vec![1] };
        assert_eq!(del.transform(&del, Side::Right), Transformed::None);
        assert_tp1(&base(), &del, &del.clone());
    }

    #[test]
    fn insert_insert_slot_tie_break() {
        let a = Op::Insert {
            path: vec![1],
            node: Node::leaf("L"),
        };
        let b = Op::Insert {
            path: vec![1],
            node: Node::leaf("R"),
        };
        assert_tp1(&base(), &a, &b);
        let mut t = base();
        a.apply(&mut t).unwrap();
        for op in b.transform(&a, Side::Right).into_vec() {
            op.apply(&mut t).unwrap();
        }
        assert_eq!(t.children[1].value, "L");
        assert_eq!(t.children[2].value, "R");
    }

    #[test]
    fn insert_at_vacated_slot_keeps_index() {
        let del = Op::Delete { path: vec![1] };
        let ins = Op::Insert {
            path: vec![1],
            node: Node::leaf("n"),
        };
        assert_eq!(
            ins.transform(&del, Side::Right),
            Transformed::One(ins.clone())
        );
        assert_tp1(&base(), &del, &ins);
    }

    #[test]
    fn same_node_set_conflict_lww() {
        let a = Op::SetValue {
            path: vec![2],
            value: "A",
        };
        let b = Op::SetValue {
            path: vec![2],
            value: "B",
        };
        assert_tp1(&base(), &a, &b);
    }

    #[test]
    fn tp1_exhaustive_shallow_ops() {
        let mut ops: Vec<Op> = Vec::new();
        for i in 0..3 {
            ops.push(Op::Delete { path: vec![i] });
            ops.push(Op::SetValue {
                path: vec![i],
                value: "v",
            });
        }
        for i in 0..=3 {
            ops.push(Op::Insert {
                path: vec![i],
                node: Node::leaf("n"),
            });
        }
        ops.push(Op::Delete { path: vec![0, 0] });
        ops.push(Op::SetValue {
            path: vec![0, 1],
            value: "w",
        });
        ops.push(Op::Insert {
            path: vec![0, 2],
            node: Node::leaf("m"),
        });
        for a in &ops {
            for b in &ops {
                assert_tp1(&base(), a, b);
            }
        }
    }

    #[test]
    fn sequences_converge() {
        let left = vec![
            Op::Insert {
                path: vec![0],
                node: Node::leaf("l0"),
            },
            Op::SetValue {
                path: vec![1, 0],
                value: "lv",
            },
            Op::Delete { path: vec![3] },
        ];
        let right = vec![
            Op::Delete { path: vec![0, 1] },
            Op::Insert {
                path: vec![2],
                node: Node::branch("r", vec![Node::leaf("rc")]),
            },
        ];
        seq::tests::assert_converges(&base(), &left, &right);
    }
}

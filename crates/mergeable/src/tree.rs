//! [`MTree`] — a mergeable ordered tree ("mergeable … trees", §II-C),
//! addressing nodes by child-index paths.

use sm_ot::tree::{Node, Path, TreeOp, Value};

use crate::versioned::Versioned;
use crate::Leaf;

/// A mergeable rooted ordered tree of `V` values.
///
/// The root always exists and carries a value; subtrees are inserted and
/// deleted at child-index [`Path`]s. Concurrent sibling insertions shift
/// deterministically; operations inside a concurrently deleted subtree are
/// absorbed by the deletion.
#[derive(Debug, Clone)]
pub struct MTree<V: Value> {
    inner: Versioned<TreeOp<V>>,
}

impl<V: Value> MTree<V> {
    /// A tree consisting of a root with `root_value` and no children.
    pub fn new(root_value: V) -> Self {
        MTree {
            inner: Versioned::new(Node::leaf(root_value)),
        }
    }

    /// Wrap an existing tree as the base state.
    pub fn from_root(root: Node<V>) -> Self {
        MTree {
            inner: Versioned::new(root),
        }
    }

    /// Borrow the root node.
    pub fn root(&self) -> &Node<V> {
        self.inner.state()
    }

    /// Borrow the node at `path`, if it exists.
    pub fn node_at(&self, path: &[usize]) -> Option<&Node<V>> {
        self.root().node_at(path)
    }

    /// Total number of nodes.
    pub fn size(&self) -> usize {
        self.root().size()
    }

    /// Insert `node` so it becomes the child at `path[last]` of the node at
    /// `path[..last]`.
    ///
    /// # Panics
    /// Panics if the parent path does not exist or the slot is out of range.
    pub fn insert_node(&mut self, path: Path, node: Node<V>) {
        let (slot, parent_path) = path.split_last().expect("cannot insert at the root path");
        let parent = self.node_at(parent_path).expect("parent path must exist");
        assert!(*slot <= parent.children.len(), "insert slot out of range");
        self.inner.record_validated(TreeOp::Insert {
            path: path.clone(),
            node,
        });
    }

    /// Append `node` as the last child of the node at `parent_path`.
    pub fn push_child(&mut self, parent_path: &[usize], node: Node<V>) {
        let parent = self.node_at(parent_path).expect("parent path must exist");
        let mut path = parent_path.to_vec();
        path.push(parent.children.len());
        self.inner.record_validated(TreeOp::Insert { path, node });
    }

    /// Delete the subtree at `path`, returning it.
    ///
    /// # Panics
    /// Panics if the path does not address an existing non-root node.
    pub fn delete_node(&mut self, path: Path) -> Node<V> {
        assert!(!path.is_empty(), "cannot delete the root");
        let node = self.node_at(&path).expect("path must exist").clone();
        self.inner.record_validated(TreeOp::Delete { path });
        node
    }

    /// Overwrite the value at `path` (empty path = root).
    ///
    /// # Panics
    /// Panics if the path does not exist.
    pub fn set_value(&mut self, path: Path, value: V) {
        assert!(self.node_at(&path).is_some(), "path must exist");
        self.inner
            .record_validated(TreeOp::SetValue { path, value });
    }
}

impl<V: Value> PartialEq for MTree<V> {
    fn eq(&self, other: &Self) -> bool {
        self.root() == other.root()
    }
}

impl<V: Value> Leaf for MTree<V> {
    type Op = TreeOp<V>;

    fn versioned(&self) -> &Versioned<TreeOp<V>> {
        &self.inner
    }

    fn versioned_mut(&mut self) -> &mut Versioned<TreeOp<V>> {
        &mut self.inner
    }

    fn wrap(inner: Versioned<TreeOp<V>>) -> Self {
        MTree { inner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mergeable;

    fn sample() -> MTree<&'static str> {
        let mut t = MTree::new("root");
        t.push_child(&[], Node::leaf("a"));
        t.push_child(&[], Node::leaf("b"));
        t.push_child(&[0], Node::leaf("a0"));
        t
    }

    #[test]
    fn construction_and_access() {
        let t = sample();
        assert_eq!(t.size(), 4);
        assert_eq!(t.node_at(&[0]).unwrap().value, "a");
        assert_eq!(t.node_at(&[0, 0]).unwrap().value, "a0");
        assert_eq!(t.node_at(&[1]).unwrap().value, "b");
        assert!(t.node_at(&[2]).is_none());
    }

    #[test]
    fn delete_returns_subtree() {
        let mut t = sample();
        let sub = t.delete_node(vec![0]);
        assert_eq!(sub.value, "a");
        assert_eq!(sub.children.len(), 1);
        assert_eq!(t.size(), 2);
    }

    #[test]
    fn concurrent_sibling_inserts_merge() {
        let t0 = sample();
        let mut parent = t0.clone();
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        c1.push_child(&[], Node::leaf("from-c1"));
        c2.push_child(&[], Node::leaf("from-c2"));
        parent.merge(&c1).unwrap();
        parent.merge(&c2).unwrap();
        assert_eq!(parent.node_at(&[2]).unwrap().value, "from-c1");
        assert_eq!(parent.node_at(&[3]).unwrap().value, "from-c2");
    }

    #[test]
    fn edit_inside_concurrently_deleted_subtree_is_absorbed() {
        let mut parent = sample();
        let mut editor = parent.fork();
        let mut deleter = parent.fork();
        editor.set_value(vec![0, 0], "edited");
        deleter.delete_node(vec![0]);
        parent.merge(&deleter).unwrap();
        parent.merge(&editor).unwrap();
        assert!(parent.node_at(&[0, 0]).is_none());
        assert_eq!(parent.node_at(&[0]).unwrap().value, "b");
    }

    #[test]
    fn deep_concurrent_edits_merge() {
        let mut parent = sample();
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        c1.push_child(&[0], Node::branch("x", vec![Node::leaf("x0")]));
        c2.set_value(vec![1], "B!");
        parent.set_value(vec![], "ROOT");
        parent.merge(&c1).unwrap();
        parent.merge(&c2).unwrap();
        assert_eq!(parent.root().value, "ROOT");
        assert_eq!(parent.node_at(&[0, 1]).unwrap().value, "x");
        assert_eq!(parent.node_at(&[0, 1, 0]).unwrap().value, "x0");
        assert_eq!(parent.node_at(&[1]).unwrap().value, "B!");
    }

    #[test]
    #[should_panic(expected = "cannot delete the root")]
    fn deleting_root_panics() {
        sample().delete_node(vec![]);
    }

    #[test]
    #[should_panic(expected = "parent path must exist")]
    fn inserting_under_missing_parent_panics() {
        sample().push_child(&[9], Node::leaf("x"));
    }
}

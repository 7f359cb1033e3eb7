//! [`Encode`]/[`Decode`] for every operation algebra in `sm-ot`, so whole
//! operation logs can cross the wire in the distributed runtime.

use bytes::{BufMut, Bytes, BytesMut};
use sm_ot::cmap::CounterMapOp;
use sm_ot::counter::CounterOp;
use sm_ot::list::ListOp;
use sm_ot::map::MapOp;
use sm_ot::register::RegisterOp;
use sm_ot::set::SetOp;
use sm_ot::text::TextOp;
use sm_ot::tree::{Node, TreeOp};

use crate::{get_tag, Decode, DecodeError, Encode};

impl<T: Encode> Encode for ListOp<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            ListOp::Insert(i, v) => {
                buf.put_u8(0);
                i.encode(buf);
                v.encode(buf);
            }
            ListOp::Delete(i) => {
                buf.put_u8(1);
                i.encode(buf);
            }
            ListOp::Set(i, v) => {
                buf.put_u8(2);
                i.encode(buf);
                v.encode(buf);
            }
            ListOp::InsertRun(i, vs) => {
                buf.put_u8(3);
                i.encode(buf);
                vs.encode(buf);
            }
            ListOp::DeleteRange(i, n) => {
                buf.put_u8(4);
                i.encode(buf);
                n.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for ListOp<T> {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        match get_tag(buf)? {
            0 => Ok(ListOp::Insert(usize::decode(buf)?, T::decode(buf)?)),
            1 => Ok(ListOp::Delete(usize::decode(buf)?)),
            2 => Ok(ListOp::Set(usize::decode(buf)?, T::decode(buf)?)),
            3 => Ok(ListOp::InsertRun(usize::decode(buf)?, Vec::decode(buf)?)),
            4 => Ok(ListOp::DeleteRange(
                usize::decode(buf)?,
                usize::decode(buf)?,
            )),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl Encode for TextOp {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            TextOp::Insert { pos, text } => {
                buf.put_u8(0);
                pos.encode(buf);
                text.encode(buf);
            }
            TextOp::Delete { pos, len } => {
                buf.put_u8(1);
                pos.encode(buf);
                len.encode(buf);
            }
        }
    }
}

impl Decode for TextOp {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        match get_tag(buf)? {
            0 => Ok(TextOp::Insert {
                pos: usize::decode(buf)?,
                text: String::decode(buf)?,
            }),
            1 => Ok(TextOp::Delete {
                pos: usize::decode(buf)?,
                len: usize::decode(buf)?,
            }),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl<K: Encode, V: Encode> Encode for MapOp<K, V> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            MapOp::Put(k, v) => {
                buf.put_u8(0);
                k.encode(buf);
                v.encode(buf);
            }
            MapOp::Remove(k) => {
                buf.put_u8(1);
                k.encode(buf);
            }
        }
    }
}

impl<K: Decode, V: Decode> Decode for MapOp<K, V> {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        match get_tag(buf)? {
            0 => Ok(MapOp::Put(K::decode(buf)?, V::decode(buf)?)),
            1 => Ok(MapOp::Remove(K::decode(buf)?)),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl<T: Encode> Encode for SetOp<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            SetOp::Add(v) => {
                buf.put_u8(0);
                v.encode(buf);
            }
            SetOp::Remove(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for SetOp<T> {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        match get_tag(buf)? {
            0 => Ok(SetOp::Add(T::decode(buf)?)),
            1 => Ok(SetOp::Remove(T::decode(buf)?)),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl Encode for CounterOp {
    fn encode(&self, buf: &mut BytesMut) {
        self.delta.encode(buf);
    }
}

impl Decode for CounterOp {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        Ok(CounterOp::add(i64::decode(buf)?))
    }
}

impl<K: Encode> Encode for CounterMapOp<K> {
    fn encode(&self, buf: &mut BytesMut) {
        self.key.encode(buf);
        self.delta.encode(buf);
    }
}

impl<K: Decode> Decode for CounterMapOp<K> {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        Ok(CounterMapOp {
            key: K::decode(buf)?,
            delta: i64::decode(buf)?,
        })
    }
}

impl<T: Encode> Encode for RegisterOp<T> {
    fn encode(&self, buf: &mut BytesMut) {
        self.value.encode(buf);
    }
}

impl<T: Decode> Decode for RegisterOp<T> {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        Ok(RegisterOp {
            value: T::decode(buf)?,
        })
    }
}

impl<V: Encode> Encode for Node<V> {
    fn encode(&self, buf: &mut BytesMut) {
        self.value.encode(buf);
        self.children.encode(buf);
    }
}

impl<V: Decode> Decode for Node<V> {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        Ok(Node {
            value: V::decode(buf)?,
            children: Vec::decode(buf)?,
        })
    }
}

impl<V: Encode> Encode for TreeOp<V> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            TreeOp::Insert { path, node } => {
                buf.put_u8(0);
                path.encode(buf);
                node.encode(buf);
            }
            TreeOp::Delete { path } => {
                buf.put_u8(1);
                path.encode(buf);
            }
            TreeOp::SetValue { path, value } => {
                buf.put_u8(2);
                path.encode(buf);
                value.encode(buf);
            }
        }
    }
}

impl<V: Decode> Decode for TreeOp<V> {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        match get_tag(buf)? {
            0 => Ok(TreeOp::Insert {
                path: Vec::decode(buf)?,
                node: Node::decode(buf)?,
            }),
            1 => Ok(TreeOp::Delete {
                path: Vec::decode(buf)?,
            }),
            2 => Ok(TreeOp::SetValue {
                path: Vec::decode(buf)?,
                value: V::decode(buf)?,
            }),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        assert_eq!(&T::from_bytes(&bytes).expect("decode"), v);
    }

    #[test]
    fn list_ops_roundtrip() {
        roundtrip(&ListOp::Insert(3usize, 42u32));
        roundtrip(&ListOp::<u32>::Delete(0));
        roundtrip(&ListOp::Set(7usize, 9u32));
        roundtrip(&vec![ListOp::Insert(0, "s".to_string()), ListOp::Delete(1)]);
    }

    #[test]
    fn list_span_ops_roundtrip() {
        roundtrip(&ListOp::InsertRun(2usize, vec![1u32, 2, 3, 4]));
        roundtrip(&ListOp::InsertRun(0usize, Vec::<u32>::new()));
        roundtrip(&ListOp::<u32>::DeleteRange(5, 17));
        // A span op costs one tag + one length, not N tags.
        let run = ListOp::InsertRun(0usize, (0u64..64).collect());
        let points: Vec<ListOp<u64>> = (0u64..64).map(|v| ListOp::Insert(v as usize, v)).collect();
        assert!(run.to_bytes().len() < points.to_bytes().len());
    }

    #[test]
    fn text_ops_roundtrip() {
        roundtrip(&TextOp::insert(5, "héllo"));
        roundtrip(&TextOp::delete(0, 12));
    }

    #[test]
    fn map_set_ops_roundtrip() {
        roundtrip(&MapOp::Put("k".to_string(), 7i64));
        roundtrip(&MapOp::<String, i64>::Remove("k".to_string()));
        roundtrip(&SetOp::Add(3u64));
        roundtrip(&SetOp::Remove("x".to_string()));
    }

    #[test]
    fn counter_register_roundtrip() {
        roundtrip(&CounterOp::add(-5));
        roundtrip(&RegisterOp::set("v".to_string()));
        roundtrip(&RegisterOp::set(false));
    }

    #[test]
    fn tree_ops_roundtrip() {
        let node = Node::branch(
            1u32,
            vec![Node::leaf(2), Node::branch(3, vec![Node::leaf(4)])],
        );
        roundtrip(&node);
        roundtrip(&TreeOp::Insert {
            path: vec![0, 2],
            node,
        });
        roundtrip(&TreeOp::<u32>::Delete { path: vec![1] });
        roundtrip(&TreeOp::SetValue {
            path: vec![],
            value: 9u32,
        });
    }

    #[test]
    fn bad_tags_fail() {
        assert!(matches!(
            ListOp::<u8>::from_bytes(&[9, 0, 0]),
            Err(DecodeError::BadTag(9))
        ));
        assert!(matches!(
            TextOp::from_bytes(&[7]),
            Err(DecodeError::BadTag(7))
        ));
        assert!(matches!(
            TreeOp::<u8>::from_bytes(&[5]),
            Err(DecodeError::BadTag(5))
        ));
    }

    proptest! {
        #[test]
        fn prop_list_op_roundtrip(i in 0usize..1000, v in any::<u64>(), n in 0usize..32, kind in 0u8..5) {
            let op = match kind {
                0 => ListOp::Insert(i, v),
                1 => ListOp::Delete(i),
                2 => ListOp::Set(i, v),
                3 => ListOp::InsertRun(i, (0..n as u64).map(|k| v.wrapping_add(k)).collect()),
                _ => ListOp::DeleteRange(i, n),
            };
            roundtrip(&op);
        }

        #[test]
        fn prop_text_op_roundtrip(p in 0usize..1000, s in ".{0,16}", del in any::<bool>(), l in 0usize..50) {
            let op = if del { TextOp::delete(p, l) } else { TextOp::insert(p, s) };
            roundtrip(&op);
        }

        #[test]
        fn prop_op_log_roundtrip(ops in prop::collection::vec((0usize..100, any::<i32>()), 0..32)) {
            let log: Vec<ListOp<i32>> = ops.iter().map(|(i, v)| ListOp::Insert(*i, *v)).collect();
            roundtrip(&log);
        }
    }
}

//! Identifier newtypes for the cluster simulator.

use std::fmt;

/// A compute node. Indexes the cluster's node table densely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// A job (HPC or pilot). Monotonically assigned at submit time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Inline capacity of [`NodeList`]: covers the overwhelming majority of
/// allocations (pilots and trace-driven demand claims are single-node;
/// small multi-node HPC jobs fit too).
const NODELIST_INLINE: usize = 4;

#[derive(Clone)]
enum NodeListRepr {
    Inline {
        len: u8,
        buf: [NodeId; NODELIST_INLINE],
    },
    Heap(Vec<NodeId>),
}

/// A list of node ids with inline storage for up to four entries.
///
/// Job records hold their allocated nodes for their whole lifetime; at
/// production scale (thousands of jobs live at once) heap-allocating
/// every 1-node list dominated both construction and teardown of the
/// simulator. `NodeList` keeps short lists inline — no allocation, no
/// pointer chase — and spills transparently to a `Vec` beyond four.
#[derive(Clone)]
pub struct NodeList(NodeListRepr);

impl NodeList {
    /// An empty list.
    pub const fn new() -> Self {
        NodeList(NodeListRepr::Inline {
            len: 0,
            buf: [NodeId(0); NODELIST_INLINE],
        })
    }

    /// A one-element list (the pilot-placement hot path).
    pub fn single(n: NodeId) -> Self {
        let mut l = Self::new();
        l.push(n);
        l
    }

    /// An empty list sized for `cap` pushes.
    pub fn with_capacity(cap: usize) -> Self {
        if cap <= NODELIST_INLINE {
            Self::new()
        } else {
            NodeList(NodeListRepr::Heap(Vec::with_capacity(cap)))
        }
    }

    /// Append a node.
    pub fn push(&mut self, n: NodeId) {
        match &mut self.0 {
            NodeListRepr::Inline { len, buf } => {
                if (*len as usize) < NODELIST_INLINE {
                    buf[*len as usize] = n;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(NODELIST_INLINE * 2);
                    v.extend_from_slice(&buf[..]);
                    v.push(n);
                    self.0 = NodeListRepr::Heap(v);
                }
            }
            NodeListRepr::Heap(v) => v.push(n),
        }
    }

    /// View as a slice.
    pub fn as_slice(&self) -> &[NodeId] {
        match &self.0 {
            NodeListRepr::Inline { len, buf } => &buf[..*len as usize],
            NodeListRepr::Heap(v) => v,
        }
    }
}

impl Default for NodeList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for NodeList {
    type Target = [NodeId];
    fn deref(&self) -> &[NodeId] {
        self.as_slice()
    }
}

impl fmt::Debug for NodeList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for NodeList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for NodeList {}

impl From<Vec<NodeId>> for NodeList {
    fn from(v: Vec<NodeId>) -> Self {
        if v.len() <= NODELIST_INLINE {
            let mut l = Self::new();
            for n in v {
                l.push(n);
            }
            l
        } else {
            NodeList(NodeListRepr::Heap(v))
        }
    }
}

impl FromIterator<NodeId> for NodeList {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut l = Self::new();
        for n in iter {
            l.push(n);
        }
        l
    }
}

impl<'a> IntoIterator for &'a NodeList {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Owned iterator over a [`NodeList`].
pub struct NodeListIntoIter {
    list: NodeList,
    idx: usize,
}

impl Iterator for NodeListIntoIter {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let v = self.list.as_slice().get(self.idx).copied();
        self.idx += v.is_some() as usize;
        v
    }
}

impl IntoIterator for NodeList {
    type Item = NodeId;
    type IntoIter = NodeListIntoIter;
    fn into_iter(self) -> NodeListIntoIter {
        NodeListIntoIter { list: self, idx: 0 }
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(JobId(42).to_string(), "j42");
    }

    #[test]
    fn ordering() {
        assert!(NodeId(1) < NodeId(2));
        assert!(JobId(9) < JobId(10));
    }

    #[test]
    fn node_list_inline_and_spill() {
        let mut l = NodeList::new();
        assert!(l.is_empty());
        for i in 0..4 {
            l.push(NodeId(i));
        }
        assert_eq!(l.len(), 4);
        assert_eq!(l.as_slice(), &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        // Fifth push spills to the heap, preserving contents.
        l.push(NodeId(4));
        assert_eq!(l.len(), 5);
        assert_eq!(l[4], NodeId(4));
        // Equality is positional, repr-independent.
        let from_vec: NodeList = (0..5).map(NodeId).collect();
        assert_eq!(l, from_vec);
        assert_eq!(NodeList::single(NodeId(7)).as_slice(), &[NodeId(7)]);
        // Owned iteration.
        let collected: Vec<NodeId> = from_vec.into_iter().collect();
        assert_eq!(collected.len(), 5);
        // Conversion from Vec keeps large lists without copying.
        let big: NodeList = (0..10).map(NodeId).collect::<Vec<_>>().into();
        assert_eq!(big.len(), 10);
    }
}

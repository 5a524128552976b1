//! [`Nodes`]: a list of equal-length hash nodes in one buffer.

use std::ops::{Index, IndexMut};
use std::slice::ChunksExact;

/// `len()` nodes of `stride()` bytes each, back to back in one `Vec<u8>`
/// — the shape of every node list a signature carries (a WOTS+
/// signature's chain nodes, an authentication path) and of what the
/// stages that produce them hand over. One list is one allocation, and
/// its wire form is its buffer.
///
/// [`Nodes::len`] counts nodes, not bytes, and `nodes[i]` is node `i` as
/// an `n`-byte slice; the bytes as a whole are [`Nodes::as_bytes`].
///
/// ```
/// use hero_sphincs::Nodes;
///
/// let mut path = Nodes::from_bytes(16, vec![0; 48]);
/// path[1][0] = 7;
/// path.push(&[9; 16]);
/// assert_eq!(path.len(), 4);
/// assert_eq!(path[1].len(), 16);
/// assert_eq!(path.as_bytes()[16], 7);
/// assert_eq!(path.iter().filter(|node| node[0] != 0).count(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Nodes {
    stride: usize,
    bytes: Vec<u8>,
}

impl Nodes {
    /// An empty list of `stride`-byte nodes with room for `count`.
    pub fn with_capacity(stride: usize, count: usize) -> Self {
        Self {
            stride,
            bytes: Vec::with_capacity(stride * count),
        }
    }

    /// The nodes `bytes` holds back to back, `stride` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or does not divide `bytes.len()`.
    pub fn from_bytes(stride: usize, bytes: Vec<u8>) -> Self {
        assert!(
            stride > 0 && bytes.len().is_multiple_of(stride),
            "nodes must be whole {stride}-byte nodes"
        );
        Self { stride, bytes }
    }

    /// Appends `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not `stride()` bytes.
    pub fn push(&mut self, node: &[u8]) {
        assert_eq!(node.len(), self.stride, "node must be stride bytes");
        self.bytes.extend_from_slice(node);
    }

    /// The node count.
    pub fn len(&self) -> usize {
        self.bytes.len().checked_div(self.stride).unwrap_or(0)
    }

    /// Whether there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Bytes per node.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Every node, back to back.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The nodes in order, each `stride()` bytes.
    pub fn iter(&self) -> ChunksExact<'_, u8> {
        self.bytes.chunks_exact(self.stride.max(1))
    }
}

impl Index<usize> for Nodes {
    type Output = [u8];

    fn index(&self, i: usize) -> &[u8] {
        &self.bytes[i * self.stride..(i + 1) * self.stride]
    }
}

impl IndexMut<usize> for Nodes {
    fn index_mut(&mut self, i: usize) -> &mut [u8] {
        &mut self.bytes[i * self.stride..(i + 1) * self.stride]
    }
}

impl<'a> IntoIterator for &'a Nodes {
    type Item = &'a [u8];
    type IntoIter = ChunksExact<'a, u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

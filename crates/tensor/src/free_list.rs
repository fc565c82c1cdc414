//! Recycled `f32` buffers for a device's activations, products and
//! gradients.
//!
//! A [`FreeList`] holds buffers that a stage no longer needs, binned by
//! length, and hands them out again to the next product, activation or
//! gradient of that length. A device thread that owns one for a whole
//! training call allocates in its first iteration and then only recycles:
//! every buffer an iteration takes, the same iteration gives back (to this
//! list or, for a sent tensor, to the receiver's). A buffer comes out with
//! whatever values it last held, so only a kernel that overwrites every
//! element may write into it — every kernel a [`crate::Stage`] runs does.

use crate::stage::{BlockStash, StageStash};
use crate::tensor::Tensor;

/// Spare `f32` buffers, binned by length, and spare (empty) stash block
/// vectors.
#[derive(Debug, Default)]
pub struct FreeList {
    /// `(length, spare buffers of exactly that length)`. A stage shape
    /// yields two lengths (activations and per-row statistics), so a
    /// linear scan beats hashing.
    bins: Vec<(usize, Vec<Vec<f32>>)>,
    /// Emptied per-block vectors of spent stashes, capacity kept.
    shells: Vec<Vec<BlockStash>>,
}

impl FreeList {
    /// A buffer of `len` elements with unspecified contents: a listed one
    /// when there is one, a fresh zeroed allocation otherwise.
    pub(crate) fn take(&mut self, len: usize) -> Vec<f32> {
        let listed = self.bins.iter_mut().find(|(l, _)| *l == len).and_then(|(_, bin)| bin.pop());
        listed.unwrap_or_else(|| vec![0.0; len])
    }

    /// A `[rows, cols]` tensor with unspecified contents, for a kernel that
    /// overwrites every element.
    pub(crate) fn tensor(&mut self, rows: usize, cols: usize) -> Tensor {
        Tensor { rows, cols, data: self.take(rows * cols) }
    }

    /// A listed copy of `src`: a memcpy, not an allocation, once a buffer
    /// of its length is listed.
    pub fn copy_of(&mut self, src: &Tensor) -> Tensor {
        let mut out = self.tensor(src.rows, src.cols);
        out.data.copy_from_slice(&src.data);
        out
    }

    /// List `buf` for a later take of its length. An empty buffer holds
    /// nothing worth keeping and is dropped.
    pub fn give(&mut self, buf: Vec<f32>) {
        let len = buf.len();
        if len == 0 {
            return;
        }
        match self.bins.iter_mut().find(|(l, _)| *l == len) {
            Some((_, bin)) => bin.push(buf),
            None => self.bins.push((len, vec![buf])),
        }
    }

    /// List a tensor's buffer.
    pub fn recycle(&mut self, t: Tensor) {
        self.give(t.data);
    }

    /// List every buffer of a stash that is no longer needed, and keep its
    /// block vector for the next [`crate::Stage::forward_with`].
    pub fn recycle_stash(&mut self, stash: StageStash) {
        let mut blocks = stash.per_block;
        for block in blocks.drain(..) {
            match block {
                BlockStash::Input(t) => self.recycle(t),
                BlockStash::Norm { xhat, inv_std } => {
                    self.recycle(xhat);
                    self.give(inv_std);
                }
            }
        }
        self.shells.push(blocks);
    }

    /// An empty block vector with room for `blocks` stash entries.
    pub(crate) fn stash_shell(&mut self, blocks: usize) -> Vec<BlockStash> {
        let mut shell = self.shells.pop().unwrap_or_default();
        shell.reserve(blocks);
        shell
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_given_buffer_comes_back_for_its_length_only() {
        let mut list = FreeList::default();
        let buf = vec![7.0f32; 6];
        let ptr = buf.as_ptr();
        list.give(buf);
        let other = list.take(5);
        assert_eq!(other, vec![0.0; 5], "no listed buffer of length 5: a fresh zeroed one");
        let again = list.tensor(2, 3);
        assert_eq!(again.data.as_ptr(), ptr, "the listed buffer is reused");
        assert_eq!(again.data, vec![7.0; 6], "contents are whatever it last held");
        let fresh = list.take(6);
        assert_ne!(fresh.as_ptr(), ptr, "handed out once");
    }

    #[test]
    fn copies_and_recycled_tensors_share_bins() {
        let mut list = FreeList::default();
        let src = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        list.recycle(Tensor::zeros(3, 1));
        let copy = list.copy_of(&src);
        assert_eq!(copy, src);
        list.give(Vec::new());
        assert!(list.bins.iter().all(|(len, _)| *len > 0), "empty buffers are not listed");
    }
}

//! Offline stand-in for the `bytes` crate: just [`Bytes`], an immutable,
//! cheaply cloneable byte buffer backed by `Arc<[u8]>` plus a view
//! window, so subslices ([`Bytes::slice`], [`Bytes::slice_ref`]) share
//! the parent's storage instead of copying.

use std::ops::{Deref, Range, RangeBounds};
use std::sync::Arc;

/// Immutable shared byte buffer (a window onto refcounted storage).
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from_arc(Arc::from(data))
    }

    fn from_arc(data: Arc<[u8]>) -> Self {
        let end = data.len();
        Bytes {
            data,
            start: 0,
            end,
        }
    }

    /// The `range` window of storage the caller already shares — no copy
    /// and no allocation. Shim-only (the published crate takes shared
    /// storage through `from_owner`): a block reader keeps the
    /// `Arc<[u8]>` itself, so that `Arc::get_mut` tells it when every
    /// window it handed out is gone and the block can be refilled in
    /// place.
    ///
    /// Panics when the range is out of bounds.
    pub fn from_shared(data: Arc<[u8]>, range: Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= data.len(),
            "window out of bounds"
        );
        Bytes {
            data,
            start: range.start,
            end: range.end,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-window of this buffer sharing the same storage — no copy.
    ///
    /// Panics when the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Zero-copy promotion of `subset` — a slice borrowed *from this
    /// buffer* (e.g. a parser's payload view) — back into an owned
    /// [`Bytes`] sharing this buffer's storage.
    ///
    /// Panics when `subset` does not lie within `self`.
    pub fn slice_ref(&self, subset: &[u8]) -> Self {
        if subset.is_empty() {
            return Bytes::new();
        }
        let base = self.as_ref().as_ptr() as usize;
        let sub = subset.as_ptr() as usize;
        assert!(
            sub >= base && sub + subset.len() <= base + self.len(),
            "slice_ref of a slice outside the buffer"
        );
        let lo = sub - base;
        self.slice(lo..lo + subset.len())
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from_arc(v.into())
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_ref()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage() {
        let a = Bytes::copy_from_slice(&[1, 2, 3]);
        let b = a.clone();
        assert_eq!(&a[..], &b[..]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn slice_ops_via_deref() {
        let a = Bytes::from(vec![9, 8, 7]);
        assert_eq!(a[1], 8);
        assert_eq!(&a[1..], &[8, 7]);
    }

    #[test]
    fn slice_shares_storage_without_copy() {
        let a = Bytes::from(vec![1, 2, 3, 4, 5]);
        let b = a.slice(1..4);
        assert_eq!(&b[..], &[2, 3, 4]);
        let c = b.slice(1..);
        assert_eq!(&c[..], &[3, 4]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn from_shared_windows_the_callers_storage() {
        let mut storage: Arc<[u8]> = Arc::from(&[1u8, 2, 3, 4, 5][..]);
        let window = Bytes::from_shared(Arc::clone(&storage), 1..4);
        assert_eq!(&window[..], &[2, 3, 4]);
        assert!(
            Arc::get_mut(&mut storage).is_none(),
            "a live window shares the storage"
        );
        drop(window);
        assert!(
            Arc::get_mut(&mut storage).is_some(),
            "and gives it back when dropped"
        );
    }

    #[test]
    #[should_panic(expected = "window out of bounds")]
    fn from_shared_rejects_a_window_past_the_end() {
        let storage: Arc<[u8]> = Arc::from(&[1u8, 2, 3][..]);
        let _ = Bytes::from_shared(storage, 2..4);
    }

    #[test]
    fn slice_ref_promotes_borrowed_view() {
        let a = Bytes::from(vec![10, 20, 30, 40]);
        let view = &a[1..3];
        let b = a.slice_ref(view);
        assert_eq!(&b[..], &[20, 30]);
    }

    #[test]
    fn slice_ref_of_empty_is_empty() {
        let a = Bytes::from(vec![1, 2, 3]);
        assert!(a.slice_ref(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside the buffer")]
    fn slice_ref_rejects_foreign_slice() {
        let a = Bytes::from(vec![1, 2, 3]);
        let other = [9u8, 9, 9];
        let _ = a.slice_ref(&other);
    }
}

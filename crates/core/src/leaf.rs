//! Leaf locks: the monitor's only mutex type.
//!
//! Every mutex in the product guards a *leaf* critical section: while a
//! guard is held, the thread takes no second lock, sends on no channel
//! and calls out to nothing that might. With no nesting there is no
//! lock order to get wrong, so [`LeafMutex`] checks the absence of
//! nesting instead of a hierarchy. In debug builds a thread-local flag
//! records that a leaf guard is held: taking a second leaf lock panics,
//! and the blocking shard-channel sends assert [`leaf_held`] is false.
//! The threaded suites therefore fail on a nesting they merely
//! exercise, not only on one that happens to deadlock. Release builds
//! compile to a plain [`Mutex`].
//!
//! A [`Condvar`] wait on the lock's own guard ([`LeafGuard::wait`],
//! [`LeafGuard::wait_timeout`]) is the one blocking wait allowed under a
//! guard: it releases the lock while parked.
//!
//! [`Inbox`] is the one mailbox built on it: many threads post, one
//! owner empties it, and the owner's check for mail takes no lock.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Condvar, LockResult, Mutex, MutexGuard};
use std::time::Duration;

thread_local! {
    static HELD: Cell<bool> = const { Cell::new(false) };
}

/// Whether this thread holds a [`LeafGuard`]. Always false in release
/// builds, where nothing is tracked.
pub(crate) fn leaf_held() -> bool {
    cfg!(debug_assertions) && HELD.with(Cell::get)
}

fn set_held(held: bool) {
    if cfg!(debug_assertions) {
        HELD.with(|flag| flag.set(held));
    }
}

#[expect(
    clippy::expect_used,
    reason = "a poisoned leaf lock means a peer thread already panicked mid-update; escalate"
)]
fn escalate<G>(result: LockResult<G>) -> G {
    result.expect("leaf lock poisoned")
}

/// A [`Mutex`] whose critical sections are leaves (see the module docs).
#[derive(Debug)]
pub(crate) struct LeafMutex<T>(Mutex<T>);

impl<T> LeafMutex<T> {
    pub(crate) const fn new(value: T) -> Self {
        LeafMutex(Mutex::new(value))
    }

    /// Locks, panicking on poison and, in debug builds, if this thread
    /// already holds a leaf guard.
    pub(crate) fn lock(&self) -> LeafGuard<'_, T> {
        debug_assert!(
            !leaf_held(),
            "leaf lock taken while another leaf guard is held"
        );
        let guard = escalate(self.0.lock());
        set_held(true);
        LeafGuard { guard, _held: Held }
    }

    pub(crate) fn into_inner(self) -> T {
        escalate(self.0.into_inner())
    }
}

/// Clears the held flag when its [`LeafGuard`] drops, after the lock
/// itself is released (fields drop in declaration order).
struct Held;

impl Drop for Held {
    fn drop(&mut self) {
        set_held(false);
    }
}

/// The guard of a [`LeafMutex`].
pub(crate) struct LeafGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    _held: Held,
}

impl<'a, T> LeafGuard<'a, T> {
    /// Parks on `cv`, releasing the lock until woken, and returns the
    /// re-acquired guard.
    pub(crate) fn wait(self, cv: &Condvar) -> Self {
        let LeafGuard { guard, _held } = self;
        LeafGuard {
            guard: escalate(cv.wait(guard)),
            _held,
        }
    }

    /// [`LeafGuard::wait`], giving up after `timeout`. Whether it was
    /// woken or timed out is not reported: callers re-check their state.
    pub(crate) fn wait_timeout(self, cv: &Condvar, timeout: Duration) -> Self {
        let LeafGuard { guard, _held } = self;
        let (guard, _) = escalate(cv.wait_timeout(guard, timeout));
        LeafGuard { guard, _held }
    }
}

impl<T> Deref for LeafGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for LeafGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A mailbox: any thread [`push`](Inbox::push)es, one owner
/// [`take`](Inbox::take)s everything posted so far. The length is
/// mirrored in an atomic, so the owner's check of an empty inbox is one
/// relaxed load — no lock, no allocation — on every packet or publish.
#[derive(Debug)]
pub(crate) struct Inbox<T> {
    items: LeafMutex<Vec<T>>,
    /// `items.len()`, stored under the lock, readable without it.
    len: AtomicUsize,
}

impl<T> Inbox<T> {
    pub(crate) const fn new() -> Self {
        Inbox {
            items: LeafMutex::new(Vec::new()),
            len: AtomicUsize::new(0),
        }
    }

    pub(crate) fn push(&self, item: T) {
        let mut items = self.items.lock();
        items.push(item);
        self.len.store(items.len(), Relaxed);
    }

    /// Everything posted so far, oldest first. Lock-free while empty.
    pub(crate) fn take(&self) -> Vec<T> {
        if self.len() == 0 {
            return Vec::new();
        }
        let mut items = self.items.lock();
        self.len.store(0, Relaxed);
        std::mem::take(&mut *items)
    }

    /// Items posted and not yet taken (the mirror: exact once the
    /// posting thread's `push` has returned).
    pub(crate) fn len(&self) -> usize {
        self.len.load(Relaxed)
    }
}

impl<T> Default for Inbox<T> {
    fn default() -> Self {
        Inbox::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "leaf lock taken while another leaf guard is held")]
    fn nested_leaf_lock_panics() {
        let a = LeafMutex::new(1);
        let b = LeafMutex::new(2);
        let _outer = a.lock();
        let _inner = b.lock();
    }

    #[test]
    fn flag_clears_on_drop_and_after_a_condvar_round_trip() {
        let m = LeafMutex::new(());
        let guard = m.lock();
        assert_eq!(leaf_held(), cfg!(debug_assertions));
        drop(guard);
        assert!(!leaf_held());

        let pair = Arc::new((LeafMutex::new(false), Condvar::new()));
        let peer = Arc::clone(&pair);
        let notifier = std::thread::spawn(move || {
            *peer.0.lock() = true;
            peer.1.notify_all();
        });
        let mut ready = pair.0.lock();
        while !*ready {
            ready = ready.wait(&pair.1);
        }
        assert_eq!(leaf_held(), cfg!(debug_assertions));
        drop(ready);
        assert!(!leaf_held());
        notifier.join().unwrap();
        // A second leaf is fine once the first is gone.
        drop(m.lock());
    }

    #[test]
    fn an_inbox_hands_over_what_was_posted_once() {
        let inbox = Inbox::new();
        assert!(inbox.take().is_empty());
        inbox.push(1);
        inbox.push(2);
        assert_eq!(inbox.len(), 2);
        assert_eq!(inbox.take(), [1, 2]);
        assert_eq!(inbox.len(), 0);
        assert!(inbox.take().is_empty());
        assert!(!leaf_held());
    }

    #[test]
    fn fresh_thread_holds_no_leaf() {
        let m = LeafMutex::new(0);
        let _guard = m.lock();
        assert!(!std::thread::spawn(leaf_held).join().unwrap());
    }
}

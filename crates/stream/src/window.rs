//! The bounded retention window behind the ARQ ring and the brick
//! repair ring.
//!
//! Both rings keep the last few coded frames so a receiver can ask for
//! bytes it lost, and both need the same four things: a capacity,
//! evict-oldest on insert, newest-first lookup, and a lock that a
//! panicked peer cannot poison. Entries hold references to shared,
//! immutable frame records, so a window costs a handful of pointers per
//! entry however many windows retain the same frame.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A cloneable, thread-safe, bounded window of the most recent entries.
#[derive(Debug)]
pub(crate) struct Window<T> {
    capacity: usize,
    entries: Arc<Mutex<VecDeque<T>>>,
}

// Derived `Clone` would demand `T: Clone`; a clone is just another
// handle onto the same entries.
impl<T> Clone for Window<T> {
    fn clone(&self) -> Self {
        Window { capacity: self.capacity, entries: Arc::clone(&self.entries) }
    }
}

impl<T> Window<T> {
    /// Creates a window holding at most `capacity` entries (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Window { capacity: capacity.max(1), entries: Arc::default() }
    }

    /// Appends `entry`, evicting the oldest one when full.
    pub(crate) fn push(&self, entry: T) {
        let mut entries = self.lock();
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
    }

    /// The first `Some` that `f` returns, visiting entries newest first.
    pub(crate) fn find_map<R>(&self, f: impl FnMut(&T) -> Option<R>) -> Option<R> {
        self.lock().iter().rev().find_map(f)
    }

    /// Maximum entries the window holds.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently held.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        // A poisoned lock only means another thread panicked mid-push;
        // entries are immutable once pushed, so they are still safe to
        // serve.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_evicts_oldest_and_finds_newest_first() {
        let window = Window::new(4);
        let reader = window.clone();
        for (key, value) in [(0, 'a'), (1, 'b'), (2, 'c'), (1, 'd'), (3, 'e')] {
            window.push((key, value));
        }
        assert_eq!(reader.len(), 4);
        assert_eq!(reader.capacity(), 4);
        let find = |k: u32| reader.find_map(|&(key, v)| (key == k).then_some(v));
        assert_eq!(find(0), None, "oldest entries age out");
        assert_eq!(find(2), Some('c'));
        assert_eq!(find(1), Some('d'), "a repeated key answers with its newest entry");
        assert_eq!(find(3), Some('e'));
        assert_eq!(Window::<u8>::new(0).capacity(), 1);
    }
}

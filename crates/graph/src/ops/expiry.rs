//! The expiry-ordered deque behind every windowed operator state.
//!
//! A stateful operator drops an element once its validity ends. Elements
//! arrive in timestamp order and, under one window size, their expiries
//! do too, so entries are kept sorted by expiry: an arrival is pushed at
//! the back and a purge pops the due front, both O(1). A window shrunk at
//! runtime (the resource manager of Section 3.3) hands an arrival an
//! expiry earlier than some already stored; only then is the entry
//! inserted at its place by binary search, so a purge never has to look
//! past the first live entry and no expired entry hides behind it.

use std::collections::VecDeque;

use streammeta_time::Timestamp;

/// `(expiry, item)` entries sorted by expiry; equal expiries keep their
/// push order.
#[derive(Debug)]
pub(crate) struct ExpiryDeque<T> {
    entries: VecDeque<(Timestamp, T)>,
}

impl<T> Default for ExpiryDeque<T> {
    fn default() -> Self {
        ExpiryDeque {
            entries: VecDeque::new(),
        }
    }
}

impl<T> ExpiryDeque<T> {
    /// Adds an entry at its place in expiry order.
    pub(crate) fn push(&mut self, expiry: Timestamp, item: T) {
        if self.entries.back().is_none_or(|&(last, _)| last <= expiry) {
            self.entries.push_back((expiry, item));
        } else {
            let at = self.entries.partition_point(|&(e, _)| e <= expiry);
            self.entries.insert(at, (expiry, item));
        }
    }

    /// Removes and returns the front entry if its validity ended at or
    /// before `now` (validity is `[timestamp, expiry)`).
    pub(crate) fn pop_due(&mut self, now: Timestamp) -> Option<T> {
        match self.entries.front() {
            Some(&(expiry, _)) if expiry <= now => self.entries.pop_front().map(|(_, item)| item),
            _ => None,
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(d: &mut ExpiryDeque<u32>, now: u64) -> Vec<u32> {
        std::iter::from_fn(|| d.pop_due(Timestamp(now))).collect()
    }

    #[test]
    fn pops_due_entries_in_expiry_order() {
        let mut d = ExpiryDeque::default();
        for (expiry, item) in [(10, 0), (12, 1), (12, 2), (20, 3)] {
            d.push(Timestamp(expiry), item);
        }
        assert!(drain(&mut d, 9).is_empty());
        assert_eq!(drain(&mut d, 12), vec![0, 1, 2]);
        assert_eq!(d.len(), 1);
        assert_eq!(drain(&mut d, 100), vec![3]);
    }

    #[test]
    fn an_earlier_expiry_after_a_shrink_is_not_stranded() {
        // Window 100 → 2 at t = 5: the later arrival expires first.
        let mut d = ExpiryDeque::default();
        d.push(Timestamp(100), 0);
        d.push(Timestamp(104), 1);
        d.push(Timestamp(7), 2);
        d.push(Timestamp(104), 3);
        assert_eq!(drain(&mut d, 7), vec![2]);
        assert_eq!(drain(&mut d, 104), vec![0, 1, 3]);
    }
}

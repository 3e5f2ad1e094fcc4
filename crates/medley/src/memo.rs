//! The found-word memo: the value words an open transaction's lookups found
//! alive, filed by `(container, key)`
//! ([`Ctx::remember`](crate::Ctx::remember),
//! [`Ctx::recall`](crate::Ctx::recall)).
//!
//! A read-modify-write transaction looks a key up and then writes it.  The
//! lookup has already found the one word whose CAS rebinds the key, so the
//! write can CAS that word instead of searching for it again.  The memo is
//! what carries the word from one operation to the next: a few entries in
//! the handle, newest first, emptied at `begin` by resetting a count.  What
//! makes a remembered word safe to use, and exact, is the container's
//! business (the `nbds` chain module says why it is for its maps); the memo
//! only promises that an entry never outlives the transaction attempt that
//! made it.

use crate::casobj::CasWord;

/// Entries kept; a fifth lookup overwrites the oldest.  A transfer notes two
/// words, a four-key read four.
const SLOTS: usize = 4;

#[derive(Clone, Copy)]
struct Entry {
    owner: usize,
    key: u64,
    word: *const CasWord,
}

/// The memo of one handle (see the module docs).
pub(crate) struct Memo {
    /// Entries noted since `begin`; the newest is at `(noted - 1) % SLOTS`.
    noted: usize,
    entries: [Entry; SLOTS],
}

impl Memo {
    pub(crate) const fn new() -> Self {
        const EMPTY: Entry = Entry {
            owner: 0,
            key: 0,
            word: std::ptr::null(),
        };
        Self {
            noted: 0,
            entries: [EMPTY; SLOTS],
        }
    }

    /// Forgets every entry.  Only the count is reset: the entries behind it
    /// are never read again before they are overwritten.
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.noted = 0;
    }

    #[inline]
    pub(crate) fn remember(&mut self, owner: usize, key: u64, word: *const CasWord) {
        self.entries[self.noted % SLOTS] = Entry { owner, key, word };
        self.noted += 1;
    }

    /// The newest word noted for `(owner, key)`.
    #[inline]
    pub(crate) fn recall(&self, owner: usize, key: u64) -> Option<*const CasWord> {
        (1..=self.noted.min(SLOTS))
            .map(|age| self.entries[(self.noted - age) % SLOTS])
            .find(|e| e.owner == owner && e.key == key)
            .map(|e| e.word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word(i: usize) -> *const CasWord {
        (8 * (i + 1)) as *const CasWord
    }

    #[test]
    fn newest_entry_wins_and_the_oldest_is_overwritten() {
        let mut memo = Memo::new();
        assert_eq!(memo.recall(1, 7), None);
        memo.remember(1, 7, word(0));
        memo.remember(2, 7, word(1));
        assert_eq!(memo.recall(1, 7), Some(word(0)));
        assert_eq!(memo.recall(2, 7), Some(word(1)), "keyed by the owner too");
        memo.remember(1, 7, word(2));
        assert_eq!(memo.recall(1, 7), Some(word(2)), "newest first");
        for i in 3..6 {
            memo.remember(3, i as u64, word(i));
        }
        assert_eq!(memo.recall(1, 7), Some(word(2)));
        assert_eq!(memo.recall(2, 7), None, "overwritten by the fifth");
        memo.remember(3, 9, word(9));
        assert_eq!(memo.recall(1, 7), None);
        assert_eq!(memo.recall(3, 3), Some(word(3)), "the last four stay");
        memo.remember(3, 10, word(10));
        assert_eq!(memo.recall(3, 3), None);
        assert_eq!(memo.recall(3, 5), Some(word(5)));
        memo.clear();
        assert_eq!(memo.recall(3, 9), None, "cleared");
        memo.remember(4, 1, word(1));
        assert_eq!(
            memo.recall(3, 5),
            None,
            "what is behind the count stays forgotten"
        );
        assert_eq!(memo.recall(4, 1), Some(word(1)));
    }
}

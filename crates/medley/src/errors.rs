//! Transaction error types.
//!
//! The paper's C++ API signals aborts by throwing `TransactionAborted`; in
//! Rust the same information travels through `Result`s.  The user-facing
//! layer splits the information in two:
//!
//! * [`Abort`] is the value a transaction body returns to its enclosing
//!   [`ThreadHandle::run`](crate::ThreadHandle::run) loop.  It can only be
//!   obtained from [`Txn::abort`](crate::Txn::abort), so producing an
//!   `Err(Abort)` requires having aborted a transaction; `run` closes the
//!   current transaction itself if it is somehow still open.
//! * [`TxError`] is what `run` (or a manual [`Txn::commit`](crate::Txn::commit))
//!   reports to the caller once the retry policy has run its course.

use std::fmt;

/// Reason a Medley transaction did not commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxError {
    /// The transaction lost a conflict (another thread aborted it, or read-set
    /// validation failed at commit time).  [`ThreadHandle::run`] retries
    /// these.
    ///
    /// [`ThreadHandle::run`]: crate::ThreadHandle::run
    Conflict,
    /// The body aborted explicitly via [`Txn::abort`] with
    /// [`AbortReason::Explicit`] (e.g. insufficient funds in the running
    /// example of Fig. 3).  Never retried.
    ///
    /// [`Txn::abort`]: crate::Txn::abort
    Explicit,
    /// The transaction touched more distinct words than a descriptor can
    /// track.  Retrying will not help; restructure the transaction.
    CapacityExceeded,
    /// The [`RunConfig`](crate::RunConfig) retry budget was exhausted before
    /// the transaction could commit.  Only produced when a maximum retry
    /// count is configured.
    RetriesExhausted,
}

impl fmt::Display for TxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::Conflict => write!(f, "transaction aborted due to a conflict"),
            TxError::Explicit => write!(f, "transaction aborted explicitly by the program"),
            TxError::CapacityExceeded => {
                write!(
                    f,
                    "transaction exceeded the descriptor read/write-set capacity"
                )
            }
            TxError::RetriesExhausted => {
                write!(f, "transaction retry budget exhausted before commit")
            }
        }
    }
}

impl std::error::Error for TxError {}

/// Convenience alias used throughout the transactional data structures.
pub type TxResult<T> = Result<T, TxError>;

/// Why a transaction body asked for its transaction to be aborted
/// (the argument of [`Txn::abort`](crate::Txn::abort)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// Business-logic rollback: the body decided the transaction must not
    /// happen (insufficient funds, precondition failed).
    /// [`ThreadHandle::run`](crate::ThreadHandle::run) does **not** retry and
    /// returns [`TxError::Explicit`].
    Explicit,
    /// The body observed inconsistent speculation (a failed critical CAS, a
    /// value that cannot be current) and wants a fresh attempt.
    /// [`ThreadHandle::run`](crate::ThreadHandle::run) retries with backoff.
    Conflict,
}

/// Token witnessing a transaction abort.
///
/// An `Abort` can only be produced by [`Txn::abort`](crate::Txn::abort) —
/// there is no public constructor — so a body returning `Err(Abort)` has
/// aborted a transaction to get one: the idiom is
/// `return Err(t.abort(reason))`, and an error fabricated without rolling
/// back is not expressible.  (The token is `Copy` and not tied to one
/// transaction; if a *stale* token from an earlier attempt is returned while
/// the current transaction is still open,
/// [`ThreadHandle::run`](crate::ThreadHandle::run) closes the transaction
/// itself under the token's reason.)
#[derive(Debug, Clone, Copy)]
pub struct Abort {
    reason: AbortReason,
}

impl Abort {
    pub(crate) fn new(reason: AbortReason) -> Self {
        Self { reason }
    }

    /// The reason passed to [`Txn::abort`](crate::Txn::abort).
    pub fn reason(&self) -> AbortReason {
        self.reason
    }
}

impl fmt::Display for Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.reason {
            AbortReason::Explicit => write!(f, "transaction aborted by the program"),
            AbortReason::Conflict => write!(f, "transaction aborted for retry"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(TxError::Conflict.to_string().contains("conflict"));
        assert!(TxError::Explicit.to_string().contains("explicitly"));
        assert!(TxError::CapacityExceeded.to_string().contains("capacity"));
        assert!(TxError::RetriesExhausted.to_string().contains("retry"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err<E: std::error::Error>(_: E) {}
        takes_err(TxError::Conflict);
    }

    #[test]
    fn abort_reports_its_reason() {
        let a = Abort::new(AbortReason::Explicit);
        assert_eq!(a.reason(), AbortReason::Explicit);
        let b = Abort::new(AbortReason::Conflict);
        assert_eq!(b.reason(), AbortReason::Conflict);
    }
}

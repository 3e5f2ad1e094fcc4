//! NBTC-transformed Michael–Scott queue.
//!
//! The MS queue is the canonical example of a structure that transactional
//! boosting *cannot* handle (a single-linked FIFO queue has no obvious
//! inverse operation) but NBTC can: the linearizing CAS of an enqueue is the
//! link of the new node at the tail, and the linearizing CAS of a dequeue is
//! the swing of the head pointer.  Everything else (advancing the tail,
//! retiring the old dummy) is helping or cleanup.
//!
//! Both `enqueue` and a successful `dequeue` therefore contribute exactly
//! one critical CAS: a transaction containing a single queue operation takes
//! the runtime's single-CAS direct-commit path, and an empty `dequeue` (or
//! `is_empty`, whatever it answers) registers one counted load and commits
//! descriptor-free.
//! Multi-operation transactions (e.g. an atomic move between two queues)
//! buffer both critical CASes thread-locally and publish a descriptor only
//! at commit, so the queues stay descriptor-free for the whole execution
//! phase.

use crate::tag;
use medley::{CasWord, Ctx};
use std::marker::PhantomData;

struct Node<V> {
    /// `None` only for the initial dummy node.
    val: Option<V>,
    next: CasWord,
}

/// A lock-free, NBTC-composable FIFO queue.
pub struct MsQueue<V> {
    head: CasWord,
    tail: CasWord,
    _marker: PhantomData<V>,
}

// SAFETY: standard shared concurrent container; nodes reclaimed through EBR.
unsafe impl<V: Send + Sync> Send for MsQueue<V> {}
unsafe impl<V: Send + Sync> Sync for MsQueue<V> {}

impl<V> MsQueue<V>
where
    V: Clone + Send + Sync + 'static,
{
    /// Creates an empty queue.
    pub fn new() -> Self {
        let dummy = Box::into_raw(Box::new(Node::<V> {
            val: None,
            next: CasWord::new(0),
        }));
        Self {
            head: CasWord::new(tag::from_ptr(dummy)),
            tail: CasWord::new(tag::from_ptr(dummy)),
            _marker: PhantomData,
        }
    }

    /// Appends `val` at the tail of the queue.
    pub fn enqueue<C: Ctx>(&self, cx: &mut C, val: V) {
        cx.with_op(|cx| {
            let node = cx.tnew(Node {
                val: Some(val),
                next: CasWord::new(0),
            });
            loop {
                let tail_bits = cx.nbtc_load(&self.tail);
                let tail_ptr = tag::as_ptr::<Node<V>>(tail_bits);
                // SAFETY: `tail_ptr` is protected by the operation's EBR pin.
                let next_bits = cx.nbtc_load(unsafe { &(*tail_ptr).next });
                if next_bits != 0 {
                    // Tail is lagging; help advance it (the enqueue that
                    // linked `next` has already linearized, so this is not a
                    // publication point of our operation).
                    cx.nbtc_cas(&self.tail, tail_bits, next_bits, false, false);
                    continue;
                }
                // Linearization (and publication) point of enqueue: linking
                // the new node after the current last node.
                if cx.nbtc_cas(
                    unsafe { &(*tail_ptr).next },
                    0,
                    tag::from_ptr(node),
                    true,
                    true,
                ) {
                    // Post-linearization cleanup: swing the tail pointer.
                    let tail_addr = &self.tail as *const CasWord as usize;
                    let node_bits = tag::from_ptr(node);
                    cx.add_cleanup(move |_h| {
                        let tail = tail_addr as *const CasWord;
                        // SAFETY: the queue outlives the transaction (caller
                        // contract).  Failure means someone already advanced
                        // the tail further, which is fine.
                        let _ = unsafe { &*tail }.cas_value(tail_bits, node_bits);
                    });
                    return;
                }
            }
        })
    }

    /// Removes and returns the value at the head of the queue, or `None` if
    /// the queue is empty.
    pub fn dequeue<C: Ctx>(&self, cx: &mut C) -> Option<V> {
        cx.with_op(|cx| {
            loop {
                let head_bits = cx.nbtc_load(&self.head);
                let head_ptr = tag::as_ptr::<Node<V>>(head_bits);
                // SAFETY: pinned.
                let (next_bits, next_cnt) = cx.nbtc_load_counted(unsafe { &(*head_ptr).next });
                if next_bits == 0 {
                    // Empty: the linearizing load of this read-only outcome is
                    // the observation that the dummy has no successor.
                    cx.add_read_with_counter(unsafe { &(*head_ptr).next }, 0, next_cnt);
                    return None;
                }
                let tail_bits = cx.nbtc_load(&self.tail);
                if head_bits == tail_bits {
                    // Tail is lagging behind a non-empty queue; help.
                    cx.nbtc_cas(&self.tail, tail_bits, next_bits, false, false);
                    continue;
                }
                let next_ptr = tag::as_ptr::<Node<V>>(next_bits);
                // SAFETY: pinned; `next_ptr` stays valid until retired+freed.
                let val = unsafe { (*next_ptr).val.clone() };
                // Linearization point of dequeue: swinging the head pointer.
                if cx.nbtc_cas(&self.head, head_bits, next_bits, true, true) {
                    // Cleanup: retire the old dummy node.
                    // SAFETY: the old dummy is unreachable once the head has
                    // moved past it; we won the CAS, so we are its unique
                    // retirer.
                    unsafe { cx.tretire(head_ptr) };
                    return val;
                }
            }
        })
    }

    /// Whether the queue is currently empty (single observation; not a
    /// linearizable compound check unless called inside a transaction).
    ///
    /// Either answer registers the word its falsifier CASes: "empty" the
    /// dummy's link, where an `enqueue` lands, and "non-empty" `head`, which
    /// every `dequeue` swings.
    pub fn is_empty<C: Ctx>(&self, cx: &mut C) -> bool {
        cx.with_op(|cx| {
            let (head_bits, head_cnt) = cx.nbtc_load_counted(&self.head);
            let head_ptr = tag::as_ptr::<Node<V>>(head_bits);
            // SAFETY: pinned.
            let (next_bits, next_cnt) = cx.nbtc_load_counted(unsafe { &(*head_ptr).next });
            if next_bits == 0 {
                cx.add_read_with_counter(unsafe { &(*head_ptr).next }, 0, next_cnt);
            } else {
                cx.add_read_with_counter(&self.head, head_bits, head_cnt);
            }
            next_bits == 0
        })
    }

    /// Quiescent count of elements (test/diagnostic helper).
    pub fn len_quiescent(&self) -> usize {
        let mut n = 0;
        let mut bits = self.head.load_value_spin();
        let head = tag::as_ptr::<Node<V>>(bits);
        // SAFETY: quiescence is the caller's contract.
        bits = unsafe { (*head).next.load_value_spin() };
        while !tag::as_ptr::<Node<V>>(bits).is_null() {
            n += 1;
            let node = tag::as_ptr::<Node<V>>(bits);
            bits = unsafe { (*node).next.load_value_spin() };
        }
        n
    }
}

impl<V> Default for MsQueue<V>
where
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Drop for MsQueue<V> {
    fn drop(&mut self) {
        let mut bits = self.head.load_value_spin();
        while !tag::as_ptr::<Node<V>>(bits).is_null() {
            let node = tag::as_ptr::<Node<V>>(bits);
            // SAFETY: exclusive access in Drop; every node from the dummy
            // onwards is owned by the queue.
            let next = unsafe { (*node).next.load_value_spin() };
            unsafe { drop(Box::from_raw(node)) };
            bits = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medley::{AbortReason, TxManager, TxResult};
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_thread() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let q = MsQueue::new();
        assert!(q.is_empty(&mut h.nontx()));
        assert_eq!(q.dequeue(&mut h.nontx()), None);
        for i in 0..100u64 {
            q.enqueue(&mut h.nontx(), i);
        }
        assert_eq!(q.len_quiescent(), 100);
        for i in 0..100u64 {
            assert_eq!(q.dequeue(&mut h.nontx()), Some(i));
        }
        assert_eq!(q.dequeue(&mut h.nontx()), None);
        assert!(q.is_empty(&mut h.nontx()));
    }

    /// Both answers of `is_empty` are falsifiable, so both must be registered:
    /// a read-only transaction that saw either must not commit once the
    /// other thread's operation has made it wrong.
    #[test]
    fn is_empty_registers_the_word_its_falsifier_hits() {
        let mgr = TxManager::new();
        let (mut reader, mut writer) = (mgr.register(), mgr.register());
        let q = MsQueue::new();
        q.enqueue(&mut writer.nontx(), 1u64);

        let mut tx = reader.begin();
        assert!(!q.is_empty(&mut tx));
        assert_eq!(q.dequeue(&mut writer.nontx()), Some(1));
        assert_eq!(tx.commit(), Err(medley::TxError::Conflict), "saw non-empty");

        let mut tx = reader.begin();
        assert!(q.is_empty(&mut tx));
        q.enqueue(&mut writer.nontx(), 2);
        assert_eq!(tx.commit(), Err(medley::TxError::Conflict), "saw empty");

        // Undisturbed, either answer commits (descriptor-free).
        let mut tx = reader.begin();
        assert!(!q.is_empty(&mut tx));
        assert_eq!(tx.commit(), Ok(()));
    }

    #[test]
    fn transactional_move_between_queues() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let q1 = MsQueue::new();
        let q2 = MsQueue::new();
        q1.enqueue(&mut h.nontx(), 7u64);
        // Atomically move the head of q1 to q2.
        let res: TxResult<()> = h.run(|h| {
            let v = q1.dequeue(h).expect("q1 is non-empty");
            q2.enqueue(h, v);
            Ok(())
        });
        assert!(res.is_ok());
        assert_eq!(q1.len_quiescent(), 0);
        assert_eq!(q2.dequeue(&mut h.nontx()), Some(7));
    }

    #[test]
    fn aborted_dequeue_enqueue_rolls_back() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let q1 = MsQueue::new();
        let q2 = MsQueue::new();
        q1.enqueue(&mut h.nontx(), 1u64);
        q1.enqueue(&mut h.nontx(), 2u64);
        let res: TxResult<()> = h.run(|h| {
            assert_eq!(q1.dequeue(h), Some(1));
            q2.enqueue(h, 1);
            Err(h.abort(AbortReason::Explicit))
        });
        assert!(res.is_err());
        assert_eq!(q1.len_quiescent(), 2, "dequeue must be rolled back");
        assert_eq!(q2.len_quiescent(), 0, "enqueue must be rolled back");
        assert_eq!(q1.dequeue(&mut h.nontx()), Some(1));
        assert_eq!(q1.dequeue(&mut h.nontx()), Some(2));
    }

    #[test]
    fn tx_sees_own_enqueue() {
        let mgr = TxManager::new();
        let mut h = mgr.register();
        let q = MsQueue::new();
        let res: TxResult<u64> = h.run(|h| {
            q.enqueue(h, 42u64);
            Ok(q.dequeue(h).expect("own enqueue must be visible"))
        });
        assert_eq!(res, Ok(42));
        assert_eq!(q.len_quiescent(), 0);
    }

    #[test]
    fn concurrent_enqueue_dequeue_no_loss_no_dup() {
        const PRODUCERS: u64 = 2;
        const CONSUMERS: usize = 2;
        const PER_PRODUCER: u64 = 2_000;
        let mgr = TxManager::new();
        let q = Arc::new(MsQueue::<u64>::new());
        let mut joins = Vec::new();
        for p in 0..PRODUCERS {
            let mgr = Arc::clone(&mgr);
            let q = Arc::clone(&q);
            joins.push(std::thread::spawn(move || {
                let mut h = mgr.register();
                for i in 0..PER_PRODUCER {
                    q.enqueue(&mut h.nontx(), p * PER_PRODUCER + i);
                }
                Vec::new()
            }));
        }
        for _ in 0..CONSUMERS {
            let mgr = Arc::clone(&mgr);
            let q = Arc::clone(&q);
            joins.push(std::thread::spawn(move || {
                let mut h = mgr.register();
                let mut got = Vec::new();
                let target = (PRODUCERS * PER_PRODUCER) as usize / CONSUMERS;
                while got.len() < target {
                    if let Some(v) = q.dequeue(&mut h.nontx()) {
                        got.push(v);
                    } else {
                        std::thread::yield_now();
                    }
                }
                got
            }));
        }
        let mut all = Vec::new();
        for j in joins {
            all.extend(j.join().unwrap());
        }
        assert_eq!(all.len(), (PRODUCERS * PER_PRODUCER) as usize);
        let set: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(set.len(), all.len(), "every element dequeued exactly once");
    }

    #[test]
    fn per_producer_order_is_preserved() {
        // FIFO per producer: elements from one producer must be dequeued in
        // the order they were enqueued.
        const PER_PRODUCER: u64 = 1_000;
        let mgr = TxManager::new();
        let q = Arc::new(MsQueue::<u64>::new());
        let producer = {
            let mgr = Arc::clone(&mgr);
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut h = mgr.register();
                for i in 0..PER_PRODUCER {
                    q.enqueue(&mut h.nontx(), i);
                }
            })
        };
        let consumer = {
            let mgr = Arc::clone(&mgr);
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut h = mgr.register();
                let mut last = None;
                let mut count = 0;
                while count < PER_PRODUCER {
                    if let Some(v) = q.dequeue(&mut h.nontx()) {
                        if let Some(prev) = last {
                            assert!(v > prev, "FIFO violated: {v} after {prev}");
                        }
                        last = Some(v);
                        count += 1;
                    }
                }
            })
        };
        producer.join().unwrap();
        consumer.join().unwrap();
    }
}

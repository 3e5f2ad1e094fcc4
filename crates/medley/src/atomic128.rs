//! A 128-bit atomic word.
//!
//! Medley's [`CasWord`] augments every CAS-able 64-bit
//! word with a 64-bit counter, and the pair must be read and compare-and-
//! swapped as a single unit (paper Sec. 3.2).  The Rust standard library does
//! not expose `AtomicU128`, so this module provides one:
//!
//! * on `x86_64` every *write* is a `lock cmpxchg16b` through inline assembly
//!   (the instruction is present on every 64-bit Intel/AMD part manufactured
//!   since 2006, and is what the paper's C++ implementation relies on);
//! * on `x86_64` a *load* is one aligned 16-byte vector load (`vmovdqa`) when
//!   the CPU enumerates AVX: Intel (SDM vol. 3A §9.1.1) and AMD (APM vol. 2
//!   §7.3.2) guarantee that an aligned 16-byte SSE/AVX load is atomic on
//!   exactly those processors — the guarantee GCC's libatomic and the
//!   `portable-atomic` crate rely on.  A load therefore reads: it takes its
//!   cache line shared, applies no read-modify-write to it, and works on a
//!   read-only mapping.  Without AVX the load is a `cmpxchg16b` whose
//!   expected and desired values are equal (a plain SSE 16-byte load is not
//!   guaranteed atomic there);
//! * on other targets we fall back to a table of striped spin locks.  The
//!   fallback sacrifices nonblocking progress of the *emulation layer* but
//!   preserves linearizability, so all higher-level logic and all tests remain
//!   valid.
//!
//! ## Ordering: what a load is, and who may rely on what
//!
//! CASes — the only writes — are `lock`-prefixed, hence full barriers.  The vector
//! load is an ordinary x86-TSO load: *acquire* for the hardware (no later
//! access is performed before it, it is not reordered with earlier loads) and,
//! because the asm block keeps the default memory clobber, a compiler barrier
//! in both directions.  That is the standard x86 mapping of sequentially
//! consistent atomics — plain loads, locked stores — so the operations of
//! this module stay sequentially consistent **among themselves**.  What a
//! load no longer is, and the `cmpxchg16b` load was, is a *fence for its
//! neighbours*: an earlier plain (`Relaxed`/`Release`) store to some *other*
//! atomic may still sit in the store buffer when the load is performed.  Every
//! place in the workspace where a store precedes a [`CasWord`] load and that
//! StoreLoad order carries a protocol is listed here with what orders it; a
//! new such place needs a `SeqCst` store, a locked instruction or an explicit
//! `fence(SeqCst)` *at that place*, never in [`AtomicU128::load`].
//!
//! | site | the store, then the load | ordered by |
//! |---|---|---|
//! | `ebr::Participant::pin` | `local_epoch = g`, then every `CasWord` load of the operation (the reclaimer unlinks, then reads `local_epoch`) | the store is `SeqCst` (`xchg`), a full barrier; nested pins store nothing and are covered by the outer one |
//! | `ebr::Participant::unpin` | validation loads, then `local_epoch = IDLE` | load → store, which TSO never reorders; the store is `Release` for the compiler |
//! | `Desc::begin` | `status = (serial + 1, InPrep)` (`Release`), then the loads of the execution phase | nothing needs it: no thread can reach the new incarnation before its first install CAS (locked, drains the store buffer), and a helper of the old one CASes the status word with the old serial expected, which fails against either value; `begin` pins (above) before its first load anyway |
//! | `ThreadHandle::begin` (txMontage) | pin, then the epoch-word load that joins the read set | the pin's `SeqCst` store; the advancer's side is a locked CAS on the epoch word |
//! | `commit_general`: install → validate → status CAS | descriptor CASed into every written word, then the owner's validation loads of `local_reads`, then the status CAS `InPrep → Committed` (write skew is excluded because each of two symmetric transactions installs before it validates) | the install is locked (`cmpxchg16b`), so no validation load passes it; load → store before the status CAS (`cmpxchg`, locked), which TSO never reorders |
//! | `ThreadHandle::commit` read-only and single-CAS paths | no store at all before `validate_local_reads`; loads stay in program order | load → load, preserved by TSO; the single CAS is locked |
//! | `Desc::try_finalize` | `status` (`SeqCst` load), then `obj` re-load, then the aborting status CAS, then the uninstall's entry loads | load → load; every later load follows a locked status CAS |
//! | `Desc::uninstall`, `decide_own`, the owner's uninstall after a commit | CASes only | locked |
//! | `nbds::chain` / `skiplist` / `msqueue` | every store to a shared word is `nbtc_cas`/`untracked_cas`/`store_value` or, on a skiplist index word (a bare [`AtomicU128`]), `AtomicU128::cas` (all locked); node payloads and a new tower's index words are written before the publishing CAS and read through the loaded pointer | locked stores; address dependency + acquire load on the reader |
//! | `nbds::skiplist` late link (`link_level` vs `maintain`) | linker: link CAS at the predecessor's index word, then re-load of the node's own; remover: mark CAS on that word, then the purge's loads — one of the two must see the other | both stores are locked CASes; the retirement handoff is `done.fetch_or`, locked as well |
//! | `nbds::skiplist` early exit | a lookup's index loads, then the counted load of the found tower's value word | load → load; the tower was published by a locked CAS |
//! | `txmontage::Durable::settle_epoch` | the index update, payload tagging and `retire_payload`, then the epoch re-read | the linearizing CAS, `Arena::push_dirty`'s `cmpxchg` and `retire.swap` are all locked and all precede the re-read |
//! | `nbds::chain::map_live` over a `txmontage` word map: value-word load → slot load → value-word re-load | the updater's CAS that takes a payload id out of the word, then (through `retire_payload`, an on-the-spot recycle and the slot's reuse by `alloc_value`) `Relaxed` stores into the slot; the reader's value-word load, `PersistenceDomain::payload_word`'s slot load, then the re-load | the word CAS is locked and precedes every store of the reuse, which also sits behind two nursery-lock acquisitions (locked); on the reader load → load, kept in order by TSO and, for the compiler, by the `Acquire` slot load — so a slot load that sees a reuse store is followed by a re-load that sees the CAS |
//! | `PersistenceDomain::alloc_value` / `retire_payload` | `Relaxed`/`Release` stores into the slot, then the caller's index traversal | `push_dirty` ends both with a locked `cmpxchg`; the epoch they tag with was loaded *before* the stores (load → store) |
//! | `PersistenceDomain::advance_epoch` | `persisted_epoch = durable` (`Release`), then (in `sync`) the next epoch-word load | the recycle-lock release between them is locked; `repair_stale_bucket` reads `persisted_epoch` after `push_dirty` (locked) and never raced a `CasWord` load — the push/drain straggler it leaves is settled by `sync` as before |
//! | `kvstore::cache` occupancy | the word is written only by transactional commit CASes; `occupancy()` is a lone load | no plain store involved; tallies are `fetch_add` (locked) in post-commit cleanups |
//! | `kvstore::server`, `obs` | `Relaxed` statistics only | carry no protocol |
//!
//! [`CasWord`]: crate::casobj::CasWord

use std::cell::UnsafeCell;

/// A 16-byte-aligned 128-bit word supporting atomic load and CAS.
///
/// Only the operations Medley needs are provided; they are sequentially
/// consistent among themselves (CASes are `lock`-prefixed, loads
/// are TSO acquire loads — the x86 mapping of default `std::atomic`
/// operations, which is what the paper uses).  A load is not a fence for
/// neighbouring weaker atomics; see the module docs.
#[repr(C, align(16))]
pub struct AtomicU128 {
    cell: UnsafeCell<u128>,
}

// SAFETY: all access to `cell` goes through atomic instructions (or the
// striped-lock fallback), so concurrent use from multiple threads is sound.
unsafe impl Send for AtomicU128 {}
unsafe impl Sync for AtomicU128 {}

impl Default for AtomicU128 {
    fn default() -> Self {
        Self::new(0)
    }
}

impl std::fmt::Debug for AtomicU128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AtomicU128({:#034x})", self.load())
    }
}

impl AtomicU128 {
    /// Creates a new atomic 128-bit word holding `val`.
    pub const fn new(val: u128) -> Self {
        Self {
            cell: UnsafeCell::new(val),
        }
    }

    /// Atomically loads the value: one `vmovdqa` where AVX makes that
    /// atomic — an acquire load that writes nothing (module docs) — and a
    /// `cmpxchg16b` that changes nothing everywhere else.
    #[inline]
    pub fn load(&self) -> u128 {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx") {
            let lo: u64;
            let hi: u64;
            // SAFETY: `vmovdqa` needs a 16-byte-aligned address — `self` is
            // `repr(align(16))` and `cell` its first field — of 16 readable
            // bytes, which `&self` guarantees, and a CPU with AVX, checked
            // on the line above; on such a CPU the aligned 16-byte load is
            // atomic (module docs).  `vmovq`/`vpextrq` are AVX encodings
            // too and touch registers only; no flags, no stack.
            //
            // The options deliberately lack `pure`, `nomem` and `readonly`:
            // the default memory clobber is what makes the block a compiler
            // barrier, so no later access (the dereference of a pointer just
            // loaded, the next validation load) is hoisted above it and no
            // earlier store sinks below it — the compiler half of "acquire".
            // With `pure`/`nomem` two loads of one word could also be merged,
            // and every re-read loop in the runtime would spin on a register.
            unsafe {
                core::arch::asm!(
                    "vmovdqa {x}, xmmword ptr [{p}]",
                    "vmovq {lo}, {x}",
                    "vpextrq {hi}, {x}, 1",
                    p = in(reg) self.cell.get(),
                    x = out(xmm_reg) _,
                    lo = out(reg) lo,
                    hi = out(reg) hi,
                    options(nostack, preserves_flags),
                );
            }
            return pack(lo, hi);
        }
        self.load_locked()
    }

    /// The load that works on every target: a CAS whose expected and desired
    /// values are equal never changes the memory contents but always returns
    /// the value observed.  It is a locked read-modify-write all the same —
    /// it takes the cache line exclusive and faults on read-only memory.
    /// Out of line: [`AtomicU128::load`] is inlined at every load site, and
    /// on a CPU with AVX none of them ever gets here.
    #[cold]
    #[inline(never)]
    fn load_locked(&self) -> u128 {
        self.compare_exchange_raw(0, 0)
    }

    /// Atomically compares the current value with `expected` and, if equal,
    /// replaces it with `desired`.
    ///
    /// Returns `Ok(expected)` on success and `Err(actual)` with the value
    /// observed on failure.
    #[inline]
    pub fn compare_exchange(&self, expected: u128, desired: u128) -> Result<u128, u128> {
        let prev = self.compare_exchange_raw(expected, desired);
        if prev == expected {
            Ok(prev)
        } else {
            Err(prev)
        }
    }

    /// Returns `true` if the CAS from `expected` to `desired` succeeded.
    #[inline]
    pub fn cas(&self, expected: u128, desired: u128) -> bool {
        self.compare_exchange(expected, desired).is_ok()
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn compare_exchange_raw(&self, expected: u128, desired: u128) -> u128 {
        let dst = self.cell.get();
        let exp_lo = expected as u64;
        let exp_hi = (expected >> 64) as u64;
        let des_lo = desired as u64;
        let des_hi = (desired >> 64) as u64;
        let out_lo: u64;
        let out_hi: u64;
        // SAFETY: `dst` is 16-byte aligned (repr(align(16))) and points to
        // memory owned by `self`.  `cmpxchg16b` is available on all x86_64
        // CPUs this crate targets.
        //
        // RBX handling: `cmpxchg16b` hard-codes RBX for the low desired
        // word, but RBX is LLVM-reserved and must hold its original value
        // again by the end of the template.  Every operand is pinned to an
        // explicit register here — an earlier version used `{ptr} = in(reg)`
        // and the allocator handed the *pointer* RBX itself, so the
        // `xchg` that installs the desired word clobbered the address and
        // the instruction dereferenced garbage (release-only segfaults).
        // With explicit registers the allocator cannot touch RBX, and the
        // template swaps it with RSI around the instruction.
        unsafe {
            core::arch::asm!(
                "xchg rbx, rsi",
                "lock cmpxchg16b [rdi]",
                "mov rbx, rsi",
                in("rdi") dst,
                inout("rsi") des_lo => _,
                inout("rax") exp_lo => out_lo,
                inout("rdx") exp_hi => out_hi,
                in("rcx") des_hi,
                options(nostack),
            );
        }
        ((out_hi as u128) << 64) | out_lo as u128
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[inline]
    fn compare_exchange_raw(&self, expected: u128, desired: u128) -> u128 {
        // Striped-lock fallback for targets without a native 16-byte CAS.
        let lock = fallback::lock_for(self.cell.get() as usize);
        let _guard = lock.lock();
        // SAFETY: the stripe lock serializes all access to this address.
        unsafe {
            let cur = *self.cell.get();
            if cur == expected {
                *self.cell.get() = desired;
            }
            cur
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod fallback {
    use crate::util::sync::Mutex;

    const STRIPES: usize = 64;
    static LOCKS: [Mutex<()>; STRIPES] = [const { Mutex::new(()) }; STRIPES];

    pub(super) fn lock_for(addr: usize) -> &'static Mutex<()> {
        // Mix the address so that neighbouring CasWords map to different
        // stripes even though they are 16 bytes apart.
        let idx = (addr >> 4).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58;
        &LOCKS[idx as usize % STRIPES]
    }
}

/// Packs a `(low, high)` pair of 64-bit words into a single `u128`.
#[inline]
pub const fn pack(lo: u64, hi: u64) -> u128 {
    ((hi as u128) << 64) | lo as u128
}

/// Splits a `u128` into its `(low, high)` 64-bit halves.
#[inline]
pub const fn unpack(v: u128) -> (u64, u64) {
    (v as u64, (v >> 64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casobj::CasWord;
    use std::ptr;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};

    #[test]
    fn load_store_roundtrip() {
        let a = AtomicU128::new(0);
        assert_eq!(a.load(), 0);
        assert!(a.cas(0, pack(7, 9)));
        assert_eq!(a.load(), pack(7, 9));
        assert_eq!(unpack(a.load()), (7, 9));
    }

    #[test]
    fn cas_success_and_failure() {
        let a = AtomicU128::new(pack(1, 2));
        assert!(a.cas(pack(1, 2), pack(3, 4)));
        assert_eq!(a.load(), pack(3, 4));
        assert_eq!(a.compare_exchange(pack(1, 2), pack(5, 6)), Err(pack(3, 4)));
        assert_eq!(a.load(), pack(3, 4));
    }

    #[test]
    fn pack_unpack_are_inverse() {
        for &(lo, hi) in &[(0u64, 0u64), (u64::MAX, 0), (0, u64::MAX), (123, 456)] {
            assert_eq!(unpack(pack(lo, hi)), (lo, hi));
        }
    }

    #[test]
    fn concurrent_increment_low_half() {
        // Each thread increments the low half 10_000 times via CAS; the high
        // half records the number of distinct writers observed mid-flight.
        const THREADS: usize = 4;
        const ITERS: u64 = 10_000;
        let a = Arc::new(AtomicU128::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                for _ in 0..ITERS {
                    loop {
                        let cur = a.load();
                        let (lo, hi) = unpack(cur);
                        if a.cas(cur, pack(lo + 1, hi)) {
                            break;
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(unpack(a.load()).0, THREADS as u64 * ITERS);
    }

    /// How many loads each reader of a torn-read test makes: enough in
    /// release to cross many writer CASes, few enough in debug for tier-1.
    const TORN_LOADS: u64 = if cfg!(debug_assertions) {
        50_000
    } else {
        1_000_000
    };

    type Load = fn(&AtomicU128) -> u128;

    /// The two load paths, each under its name (the second is what `load`
    /// falls back to without AVX and on other targets).
    const LOAD_PATHS: [(&str, Load); 2] = [
        ("load", AtomicU128::load),
        ("load_locked", AtomicU128::load_locked),
    ];

    /// What the threads of one [`race`] share.
    struct Race {
        stop: AtomicBool,
        /// Rounds completed, per writer.
        rounds: [AtomicU64; 2],
    }

    impl Race {
        /// A reader goes on until it has made its loads *and* every writer
        /// has demonstrably run beside it (or one of them has died).
        fn reader_done(&self, loads: u64) -> bool {
            loads >= TORN_LOADS
                && (self.stop.load(Ordering::Relaxed)
                    || self
                        .rounds
                        .iter()
                        .all(|r| r.load(Ordering::Relaxed) >= TORN_LOADS / 20))
        }
    }

    /// Ends the race when its thread does, so a failed assertion fails the
    /// test instead of leaving the other threads waiting for it.
    struct StopOnDrop<'a>(&'a AtomicBool);

    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    /// Runs two writers (each a round to repeat, told which of the two it
    /// is) against two readers from one barrier, until both readers are done.
    fn race(write: &(dyn Fn(usize, u64) + Sync), read: &(dyn Fn(&Race) + Sync)) {
        let race = Race {
            stop: AtomicBool::new(false),
            rounds: [AtomicU64::new(0), AtomicU64::new(0)],
        };
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..2 {
                let (race, start) = (&race, &start);
                s.spawn(move || {
                    let _stop = StopOnDrop(&race.stop);
                    start.wait();
                    let mut round = 0;
                    while !race.stop.load(Ordering::Relaxed) {
                        write(t, round);
                        round += 1;
                        race.rounds[t].store(round, Ordering::Relaxed);
                    }
                });
            }
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        read(&race);
                    })
                })
                .collect();
            let ok = readers.into_iter().all(|r| r.join().is_ok());
            race.stop.store(true, Ordering::Relaxed);
            assert!(ok, "a reader failed; its message is above");
        });
    }

    #[test]
    fn both_halves_move_together() {
        // No load may observe a torn (half old, half new) value.  Two writers
        // CAS in pairs with `hi == !lo`; two readers check the pair.
        for (name, load) in LOAD_PATHS {
            let a = AtomicU128::new(pack(0, !0));
            let write = |t: usize, round: u64| {
                let i = 2 * round + t as u64;
                let _ = a.cas(a.load(), pack(i, !i));
            };
            let read = |race: &Race| {
                let mut loads = 0;
                while !race.reader_done(loads) {
                    let (lo, hi) = unpack(load(&a));
                    assert_eq!(hi, !lo, "{name} observed a torn 128-bit value");
                    loads += 1;
                }
            };
            race(&write, &read);
        }
    }

    #[test]
    fn casword_readers_see_only_written_pairs() {
        // The same property one layer up, through every way a `CasWord` is
        // written.  Writers keep `value == counter << 8 | salt` on every word:
        // on `shared` they race `cas_value`, `cas_value_counted` and a
        // descriptor-parity install (odd counter) that either of them
        // uninstalls; on a word private to each (so the counter is theirs to
        // know) they also `store_value`.  A torn pair breaks the equation.
        const DESC: u64 = 0xDD;
        let enc = |cnt: u64, salt: u64| (cnt << 8) | (salt & 0xFF);
        for (name, load) in LOAD_PATHS {
            let shared = CasWord::new(0);
            let private = [CasWord::new(0), CasWord::new(0)];
            let write = |t: usize, round: u64| {
                let i = round + t as u64;
                let (val, cnt) = shared.load_parts();
                let _ = if CasWord::counter_is_descriptor(cnt) {
                    // Uninstall, as a helper would.
                    shared
                        .raw()
                        .cas(pack(val, cnt), pack(enc(cnt + 1, i), cnt + 1))
                } else {
                    match i % 3 {
                        0 => shared.cas_value(val, enc(cnt + 2, i)),
                        1 => shared.cas_value_counted(val, cnt, enc(cnt + 2, i)),
                        _ => shared
                            .raw()
                            .cas(pack(val, cnt), pack(enc(cnt + 1, DESC), cnt + 1)),
                    }
                };
                let own = &private[t];
                let (_, cnt) = own.load_parts();
                own.store_value(enc(cnt, i));
                assert!(own.cas_value(enc(cnt, i), enc(cnt + 2, i)));
            };
            let read = |race: &Race| {
                let mut loads = 0;
                while !race.reader_done(loads) {
                    let word = match loads % 3 {
                        0 => &shared,
                        1 => &private[0],
                        _ => &private[1],
                    };
                    let (val, cnt) = unpack(load(word.raw()));
                    assert_eq!(val >> 8, cnt, "{name} saw a pair no writer produced");
                    if CasWord::counter_is_descriptor(cnt) {
                        assert_eq!(val & 0xFF, DESC, "{name}: odd counter, real value");
                    }
                    loads += 1;
                }
            };
            race(&write, &read);
            for w in [&shared, &private[0], &private[1]] {
                let (val, cnt) = w.load_parts();
                assert_eq!(val >> 8, cnt);
                assert!(cnt > 0, "{name}: a word no writer reached");
            }
        }
    }

    /// `lock cmpxchg16b` is a write as far as the MMU is concerned and
    /// faults on a read-only page even when it changes nothing; a vector
    /// load does not.  (This test kills the test binary with SIGSEGV if
    /// `load` is the locked instruction.)
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn load_does_not_write() {
        use std::ffi::{c_int, c_void};
        extern "C" {
            fn mmap(
                addr: *mut c_void,
                len: usize,
                prot: c_int,
                flags: c_int,
                fd: c_int,
                off: i64,
            ) -> *mut c_void;
            fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
            fn munmap(addr: *mut c_void, len: usize) -> c_int;
        }
        const PROT_READ: c_int = 1;
        const PROT_WRITE: c_int = 2;
        const MAP_PRIVATE: c_int = 2;
        const MAP_ANONYMOUS: c_int = 0x20;
        const PAGE: usize = 4096;

        if !std::is_x86_feature_detected!("avx") {
            println!("load_does_not_write skipped: no AVX, so `load` is `lock cmpxchg16b`");
            return;
        }
        // SAFETY: a fresh private anonymous mapping of one page, written
        // through while writable, only read once read-only, unmapped once at
        // the end; a page is 16-byte aligned and outlives both references.
        unsafe {
            let page = mmap(
                ptr::null_mut(),
                PAGE,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            );
            assert_ne!(page as isize, -1, "mmap failed");
            let atomic = &*(page as *const AtomicU128);
            assert!(atomic.cas(0, pack(7, 8)), "a fresh page is zeroed");
            assert_eq!(mprotect(page, PAGE, PROT_READ), 0, "mprotect failed");
            assert_eq!(atomic.load(), pack(7, 8));
            let word = &*(page as *const CasWord);
            assert_eq!(word.load_parts(), (7, 8));
            assert_eq!(word.load_raw(), pack(7, 8));
            assert_eq!(munmap(page, PAGE), 0, "munmap failed");
        }
    }
}

//! Thin Linux syscall bindings for the event-driven server.
//!
//! The workspace deliberately has no external dependencies, so the few
//! kernel interfaces the server needs beyond `std` — **epoll**, **eventfd**,
//! and **rlimit** — are bound here directly against libc (which every Rust
//! binary already links).  Everything `unsafe` is confined to this module;
//! the rest of the crate sees three safe wrappers:
//!
//! * [`Epoll`] — an owned `epoll(7)` instance: add/modify/delete interest,
//!   wait for readiness.  The server runs it **level-triggered**: interest
//!   masks are recomputed from connection state after every pump and
//!   `EPOLL_CTL_MOD` is issued only when the mask actually changes, so a
//!   socket with nothing to say costs nothing and a partially-written
//!   response re-arms `EPOLLOUT` simply by keeping bytes queued.
//! * [`WakeFd`] — a nonblocking `eventfd(2)` used as a cross-thread doorbell:
//!   the acceptor rings it after handing a worker a new connection, and
//!   shutdown rings every worker.  Readable ⇒ at least one wake happened;
//!   [`WakeFd::drain`] resets it.
//! * [`raise_nofile_limit`] — lifts `RLIMIT_NOFILE`'s soft limit to the hard
//!   limit, which is what lets one process hold hundreds of pipelined
//!   connections (each is a file descriptor) without `EMFILE`.

use std::io;
use std::os::fd::{AsRawFd, RawFd};

// Values from the Linux UAPI headers (x86_64/aarch64 share all of these).
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

/// Readiness bit: the fd has bytes to read (or a peer hang-up to observe).
pub const EPOLLIN: u32 = 0x001;
/// Readiness bit: the fd can accept writes without blocking.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition on the fd (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Peer hung up (always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;

const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

const RLIMIT_NOFILE: i32 = 7;
const SOL_SOCKET: i32 = 1;
const SO_RCVBUF: i32 = 8;

/// One readiness record returned by `epoll_wait`.
///
/// Matches the kernel's `struct epoll_event` ABI: packed on x86_64 (the
/// kernel declares it `__attribute__((packed))` there so 32- and 64-bit
/// layouts agree), naturally aligned elsewhere.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Ready-event bitmask ([`EPOLLIN`] | [`EPOLLOUT`] | ...).
    pub events: u32,
    /// The caller-chosen token registered with the fd (the server stores the
    /// connection's slab slot here).
    pub data: u64,
}

impl EpollEvent {
    /// An empty record for pre-sizing wait buffers.
    pub const fn zeroed() -> Self {
        Self { events: 0, data: 0 }
    }
}

#[repr(C)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance (closed on drop).
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Self> {
        // SAFETY: takes a flag word and no pointer; the result is checked.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Self { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // SAFETY: `self.fd` is the epoll instance this value owns; `ev` is a
        // live local with the kernel's `struct epoll_event` layout (see
        // `EpollEvent`), and the kernel copies it before returning.  A stale
        // or foreign `fd` is an `EBADF`/`ENOENT` error, not a memory hazard.
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` with the given interest mask and token.
    pub fn add(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, data)
    }

    /// Replaces `fd`'s interest mask (same token semantics as [`Epoll::add`]).
    pub fn modify(&self, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, data)
    }

    /// Deregisters `fd`.  Closing the fd deregisters implicitly; this exists
    /// for the paths that keep the fd alive.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // The event pointer is ignored for DEL on kernels ≥ 2.6.9 but must
        // be non-null for portability.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` (0 = poll, bounded, never negative) for
    /// readiness; fills `events` and returns how many records are valid.
    /// Retries `EINTR` internally.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the kernel writes at most `maxevents` records of the
            // `EpollEvent` layout into `events`, and `maxevents` is the
            // slice's own length (capped to `i32`), so every write lands in
            // memory the exclusive borrow covers.
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len().min(i32::MAX as usize) as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` came from `epoll_create1`, is owned by this value
        // alone and is closed exactly once, here.
        unsafe {
            close(self.fd);
        }
    }
}

/// A nonblocking eventfd doorbell (closed on drop).
///
/// Safe to ring from any thread while the owning worker waits on it through
/// its [`Epoll`]; ringing coalesces (the counter accumulates), so a burst of
/// wakes costs one readable event.
pub struct WakeFd {
    fd: RawFd,
}

impl WakeFd {
    /// Creates the doorbell.
    pub fn new() -> io::Result<Self> {
        // SAFETY: takes two integers and no pointer; the result is checked.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Self { fd })
    }

    /// Rings the doorbell.  A full counter (`EAGAIN`) already guarantees the
    /// waiter will wake, so that case is success; other errors are ignored
    /// too — a missed wake degrades latency by one poll timeout, never
    /// correctness.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: `self.fd` is the eventfd this value owns (open until
        // `drop`), and the source is 8 readable bytes of a live temporary —
        // the size an eventfd write requires.
        unsafe {
            write(self.fd, one.to_ne_bytes().as_ptr(), 8);
        }
    }

    /// Resets the doorbell (reads the counter down to zero).
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: as in `wake`; the destination is 8 writable bytes of a live
        // local, and the fd is nonblocking, so an empty counter returns
        // `EAGAIN` without touching it.
        unsafe {
            read(self.fd, buf.as_mut_ptr(), 8);
        }
    }
}

impl AsRawFd for WakeFd {
    fn as_raw_fd(&self) -> RawFd {
        self.fd
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        // SAFETY: `self.fd` came from `eventfd`, is owned by this value alone
        // and is closed exactly once, here.
        unsafe {
            close(self.fd);
        }
    }
}

/// Raises `RLIMIT_NOFILE`'s soft limit to the hard limit.
///
/// Returns `(previous_soft, new_soft)`.  Already-maximal limits return
/// without a `setrlimit` call.  Servers and load generators both call this
/// at startup: every connection is a descriptor, and the conservative
/// default soft limit (often 1024) is below what a 512-connection benchmark
/// plus listener/epoll/eventfd descriptors needs.
pub fn raise_nofile_limit() -> io::Result<(u64, u64)> {
    let mut lim = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `lim` is a live local with the layout of the kernel's
    // 64-bit `struct rlimit` (two `u64`s), which the call fills in.
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    let prev = lim.rlim_cur;
    if lim.rlim_cur < lim.rlim_max {
        lim.rlim_cur = lim.rlim_max;
        // SAFETY: as above; the call only reads `lim`.
        cvt(unsafe { setrlimit(RLIMIT_NOFILE, &lim) })?;
    }
    Ok((prev, lim.rlim_cur))
}

/// Shrinks (or grows) a socket's kernel receive buffer.  The dribble tests
/// use a tiny receive buffer to force the server through many short
/// `writev` passes and `EPOLLOUT` re-arms.
pub fn set_rcvbuf<F: AsRawFd>(sock: &F, bytes: usize) -> io::Result<()> {
    let v = bytes as i32;
    // SAFETY: `sock` is borrowed for the call, so its fd is open; the option
    // value is 4 readable bytes of a live temporary and `optlen` says 4, the
    // size `SO_RCVBUF` takes.
    cvt(unsafe {
        setsockopt(
            sock.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            v.to_ne_bytes().as_ptr(),
            4,
        )
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn epoll_reports_readability_and_wakefd_coalesces() {
        let ep = Epoll::new().unwrap();
        let wake = WakeFd::new().unwrap();
        ep.add(wake.as_raw_fd(), EPOLLIN, 42).unwrap();

        let mut events = [EpollEvent::zeroed(); 8];
        // Nothing rung yet: a zero-timeout wait sees nothing.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        wake.wake();
        wake.wake();
        wake.wake();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1, "coalesced wakes are one event");
        assert_eq!({ events[0].data }, 42);
        assert_ne!({ events[0].events } & EPOLLIN, 0);

        wake.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "drain resets");
    }

    #[test]
    fn epoll_interest_modification_tracks_socket_state() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        b.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(b.as_raw_fd(), EPOLLIN, 7).unwrap();
        let mut events = [EpollEvent::zeroed(); 8];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "no bytes, no event");

        a.write_all(b"ping").unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_ne!({ events[0].events } & EPOLLIN, 0);

        // Level-triggered: unread bytes keep the fd ready.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 1);

        // Add EPOLLOUT: an idle socket is immediately writable.
        ep.modify(b.as_raw_fd(), EPOLLIN | EPOLLOUT, 7).unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_ne!({ events[0].events } & EPOLLOUT, 0);

        // Read the bytes and drop write interest: quiet again.
        let mut buf = [0u8; 16];
        let mut r = &b;
        let got = r.read(&mut buf).unwrap();
        assert_eq!(&buf[..got], b"ping");
        ep.modify(b.as_raw_fd(), EPOLLIN, 7).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        ep.delete(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn nofile_limit_raise_is_idempotent() {
        let (_, new_soft) = raise_nofile_limit().unwrap();
        let (prev, again) = raise_nofile_limit().unwrap();
        assert_eq!(prev, new_soft, "second raise starts at the lifted limit");
        assert_eq!(again, new_soft, "raise is idempotent");
    }
}

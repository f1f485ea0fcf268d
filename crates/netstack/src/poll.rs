//! Readiness polling over raw syscalls: epoll on Linux, `poll(2)`
//! elsewhere (or when epoll cannot be opened) — the repo stays
//! zero-dependency, so the two backends are declared here as
//! `extern "C"` bindings against the libc every Rust program already
//! links.
//!
//! The [`Poller`] is the only place in the crate allowed to use `unsafe`
//! (the crate root carries `#![deny(unsafe_code)]`, relaxed for this
//! module alone). The surface is deliberately tiny: register a socket
//! under a `u64` token, optionally flag write interest, wait, and read
//! back `(token, readable, writable)` events.
//!
//! # Readiness model
//!
//! * **epoll** registers every fd once with `EPOLLIN | EPOLLOUT |
//!   EPOLLRDHUP | EPOLLET` — edge-triggered, so the kernel wakes the loop
//!   only on readiness *transitions* and the event loop must drain each
//!   direction until `WouldBlock`. Write interest is implicit: the loop
//!   ignores writable edges unless a previous write actually blocked, so
//!   no `EPOLL_CTL_MOD` churn is ever needed.
//! * **poll(2)** is level-triggered and stateless per call; the backend
//!   keeps the registered set in user space, rebuilds the `pollfd` array
//!   on every wait, and honours [`Poller::set_write_interest`] to avoid
//!   busy-waking on always-writable sockets.
//!
//! The choice is observed, never configured: `poll(2)` is the only path
//! on non-Linux Unix and the fallback when `epoll_create1` fails. On
//! Linux it stays tested by the in-module test that constructs
//! `Backend::Poll` directly.
//!
//! Error and hangup conditions are folded into `readable`/`writable`: a
//! dead socket reports ready, the subsequent read/write surfaces the
//! actual error, and the connection state machine tears down. This keeps
//! the caller's loop free of a third event kind.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_uint, c_ulong};
use std::time::Duration;

/// One readiness report.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PollEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd is readable (data, EOF, or an error to collect via read).
    pub readable: bool,
    /// The fd is writable (or a pending connect/any error resolved).
    pub writable: bool,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(fd: c_int, addr: *const SockAddrIn, len: c_uint) -> c_int;
    fn close(fd: c_int) -> c_int;
}

#[cfg(target_os = "linux")]
mod epoll_sys {
    use super::c_int;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;

    /// `struct epoll_event`. The kernel packs it on x86 so the 64-bit
    /// data field sits at offset 4; other architectures use natural
    /// alignment.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
    }
}

/// A registered fd in the `poll(2)` backend's user-space set.
#[derive(Clone, Copy, Debug)]
struct Registered {
    fd: RawFd,
    token: u64,
    want_write: bool,
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll {
        epfd: RawFd,
        /// Reused event buffer for `epoll_wait`.
        buf: Vec<epoll_sys::EpollEvent>,
    },
    Poll {
        set: Vec<Registered>,
    },
}

/// The event loop's readiness source. See the module docs for the model.
pub(crate) struct Poller {
    backend: Backend,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller")
            .field("backend", &self.backend_name())
            .finish()
    }
}

/// Converts a timeout to poll/epoll milliseconds, rounding up so a
/// sub-millisecond timer never degenerates into a busy spin.
fn as_millis(timeout: Duration) -> c_int {
    let ms = timeout.as_micros().div_ceil(1000);
    c_int::try_from(ms).unwrap_or(c_int::MAX)
}

impl Poller {
    /// Opens the best available backend: epoll on Linux, `poll(2)`
    /// otherwise.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: `epoll_create1` takes a flags word and no pointers.
            let epfd = unsafe { epoll_sys::epoll_create1(epoll_sys::EPOLL_CLOEXEC) };
            if epfd >= 0 {
                return Ok(Poller {
                    backend: Backend::Epoll {
                        epfd,
                        buf: vec![epoll_sys::EpollEvent { events: 0, data: 0 }; 256],
                    },
                });
            }
            // epoll_create1 failing (container seccomp, exotic kernel)
            // falls through to the portable backend.
        }
        Ok(Poller {
            backend: Backend::Poll { set: Vec::new() },
        })
    }

    /// Which backend this poller runs on: `"epoll"` or `"poll"`.
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { .. } => "epoll",
            Backend::Poll { .. } => "poll",
        }
    }

    /// Registers `fd` under `token`. epoll arms it edge-triggered for
    /// both directions once and for all; poll(2) starts read-only until
    /// [`Poller::set_write_interest`] says otherwise.
    pub fn register(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => {
                let mut ev = epoll_sys::EpollEvent {
                    events: epoll_sys::EPOLLIN
                        | epoll_sys::EPOLLOUT
                        | epoll_sys::EPOLLRDHUP
                        | epoll_sys::EPOLLET,
                    data: token,
                };
                let rc =
                    unsafe { epoll_sys::epoll_ctl(*epfd, epoll_sys::EPOLL_CTL_ADD, fd, &mut ev) };
                if rc < 0 {
                    return Err(io::Error::last_os_error());
                }
                Ok(())
            }
            Backend::Poll { set } => {
                set.push(Registered {
                    fd,
                    token,
                    want_write: false,
                });
                Ok(())
            }
        }
    }

    /// Declares whether `token` wants writable events. Meaningful only
    /// for the level-triggered poll(2) backend — an always-writable
    /// socket with standing `POLLOUT` interest would turn every wait
    /// into a spin. The edge-triggered epoll backend ignores it.
    pub fn set_write_interest(&mut self, token: u64, on: bool) {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { .. } => {}
            Backend::Poll { set } => {
                if let Some(r) = set.iter_mut().find(|r| r.token == token) {
                    r.want_write = on;
                }
            }
        }
    }

    /// Removes `fd`/`token` from the set. Call *before* closing the fd.
    pub fn deregister(&mut self, fd: RawFd, token: u64) {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, .. } => {
                let mut ev = epoll_sys::EpollEvent { events: 0, data: 0 };
                unsafe {
                    epoll_sys::epoll_ctl(*epfd, epoll_sys::EPOLL_CTL_DEL, fd, &mut ev);
                }
            }
            Backend::Poll { set } => set.retain(|r| r.token != token),
        }
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses, appending events to `out` (which is cleared first).
    /// Returns the number of ready fds (0 = timeout).
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<usize> {
        out.clear();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd, buf } => {
                let n = loop {
                    let rc = unsafe {
                        epoll_sys::epoll_wait(
                            *epfd,
                            buf.as_mut_ptr(),
                            c_int::try_from(buf.len()).unwrap_or(c_int::MAX),
                            as_millis(timeout),
                        )
                    };
                    if rc >= 0 {
                        break rc as usize;
                    }
                    let e = io::Error::last_os_error();
                    if e.kind() != io::ErrorKind::Interrupted {
                        return Err(e);
                    }
                };
                for ev in &buf[..n] {
                    let bits = ev.events;
                    let err = bits & (epoll_sys::EPOLLERR | epoll_sys::EPOLLHUP) != 0;
                    out.push(PollEvent {
                        token: ev.data,
                        readable: err || bits & (epoll_sys::EPOLLIN | epoll_sys::EPOLLRDHUP) != 0,
                        writable: err || bits & epoll_sys::EPOLLOUT != 0,
                    });
                }
                Ok(n)
            }
            Backend::Poll { set } => {
                let mut fds: Vec<PollFd> = set
                    .iter()
                    .map(|r| PollFd {
                        fd: r.fd,
                        events: POLLIN | if r.want_write { POLLOUT } else { 0 },
                        revents: 0,
                    })
                    .collect();
                let n = loop {
                    let rc =
                        unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, as_millis(timeout)) };
                    if rc >= 0 {
                        break rc as usize;
                    }
                    let e = io::Error::last_os_error();
                    if e.kind() != io::ErrorKind::Interrupted {
                        return Err(e);
                    }
                };
                for (r, pfd) in set.iter().zip(&fds) {
                    let bits = pfd.revents;
                    if bits == 0 {
                        continue;
                    }
                    let err = bits & (POLLERR | POLLHUP | POLLNVAL) != 0;
                    out.push(PollEvent {
                        token: r.token,
                        readable: err || bits & POLLIN != 0,
                        writable: err || bits & POLLOUT != 0,
                    });
                }
                Ok(n)
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Backend::Epoll { epfd, .. } = &self.backend {
            unsafe {
                close(*epfd);
            }
        }
    }
}

const AF_INET: c_int = 2;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0o4000;
const SOCK_CLOEXEC: c_int = 0o2000000;

/// `struct sockaddr_in`, network byte order where the ABI says so.
#[repr(C)]
struct SockAddrIn {
    sin_family: u16,
    sin_port: u16,
    sin_addr: u32,
    sin_zero: [u8; 8],
}

/// The two ways a nonblocking dial can leave the socket.
pub(crate) enum Dial {
    /// The three-way handshake completed inline (possible on loopback).
    Connected(TcpStream),
    /// The connect is in flight: register the socket and wait for a
    /// writable event, then check [`TcpStream::take_error`].
    InProgress(TcpStream),
}

/// Starts a nonblocking TCP connect to `addr` without ever blocking the
/// calling thread.
///
/// IPv4 goes through raw `socket(2)`/`connect(2)` so the fd is born
/// nonblocking. IPv6 (unused by the loopback harnesses) falls back to a
/// short blocking `connect_timeout` — correct, merely not async.
///
/// # Errors
///
/// Propagates immediate connect failures (e.g. `ECONNREFUSED` raced
/// inline); `EINPROGRESS` is success, reported as [`Dial::InProgress`].
pub(crate) fn connect_nonblocking(addr: SocketAddr) -> io::Result<Dial> {
    let SocketAddr::V4(v4) = addr else {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(250))?;
        stream.set_nonblocking(true)?;
        return Ok(Dial::Connected(stream));
    };
    let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    let sa = SockAddrIn {
        sin_family: AF_INET as u16,
        sin_port: v4.port().to_be(),
        sin_addr: u32::from(*v4.ip()).to_be(),
        sin_zero: [0; 8],
    };
    let rc = unsafe { connect(fd, &sa, std::mem::size_of::<SockAddrIn>() as c_uint) };
    // SAFETY: `fd` is a socket we just created and own exclusively.
    let stream = unsafe {
        use std::os::fd::FromRawFd;
        TcpStream::from_raw_fd(fd)
    };
    if rc == 0 {
        return Ok(Dial::Connected(stream));
    }
    let e = io::Error::last_os_error();
    match e.raw_os_error() {
        // EINPROGRESS (and the theoretical EWOULDBLOCK) mean "dialing".
        Some(code) if code == 115 || e.kind() == io::ErrorKind::WouldBlock => {
            Ok(Dial::InProgress(stream))
        }
        _ => Err(e), // stream drops, closing the fd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::os::fd::AsRawFd;

    fn loopback_pair() -> Option<(TcpStream, TcpStream)> {
        let listener = TcpListener::bind("127.0.0.1:0").ok()?;
        let addr = listener.local_addr().ok()?;
        let a = TcpStream::connect(addr).ok()?;
        let (b, _) = listener.accept().ok()?;
        a.set_nonblocking(true).ok()?;
        b.set_nonblocking(true).ok()?;
        Some((a, b))
    }

    fn poller_reports_readability(mut poller: Poller) {
        let Some((mut a, mut b)) = loopback_pair() else {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        };
        poller.register(b.as_raw_fd(), 7).unwrap();
        // Nothing written yet: a generous wait may still report the
        // always-writable socket, but never readable.
        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(30)).unwrap();
        assert!(events.iter().all(|e| !e.readable || e.token == 7));
        assert!(!events.iter().any(|e| e.readable));

        a.write_all(b"ping").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            poller.wait(&mut events, Duration::from_millis(50)).unwrap();
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "readability never reported"
            );
        }
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 4);

        poller.deregister(b.as_raw_fd(), 7);
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(
            events.is_empty(),
            "deregistered fd still reported: {events:?}"
        );
    }

    #[test]
    fn default_backend_reports_readability() {
        poller_reports_readability(Poller::new().unwrap());
    }

    #[test]
    fn poll_fallback_reports_readability() {
        // Construct the portable backend directly: on Linux `Poller::new`
        // would pick epoll.
        poller_reports_readability(Poller {
            backend: Backend::Poll { set: Vec::new() },
        });
    }

    #[test]
    fn nonblocking_connect_reaches_a_listener() {
        let Ok(listener) = TcpListener::bind("127.0.0.1:0") else {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        };
        let addr = listener.local_addr().unwrap();
        let stream = match connect_nonblocking(addr).unwrap() {
            Dial::Connected(s) => s,
            Dial::InProgress(s) => {
                // Wait for writability, then confirm the connect landed.
                let mut poller = Poller::new().unwrap();
                poller.register(s.as_raw_fd(), 1).unwrap();
                poller.set_write_interest(1, true);
                let mut events = Vec::new();
                let deadline = std::time::Instant::now() + Duration::from_secs(5);
                loop {
                    poller.wait(&mut events, Duration::from_millis(50)).unwrap();
                    if events.iter().any(|e| e.token == 1 && e.writable) {
                        break;
                    }
                    assert!(
                        std::time::Instant::now() < deadline,
                        "connect never completed"
                    );
                }
                poller.deregister(s.as_raw_fd(), 1);
                assert!(s.take_error().unwrap().is_none(), "connect failed");
                s
            }
        };
        let (_peer, _) = listener.accept().unwrap();
        assert!(stream.peer_addr().is_ok());
    }

    #[test]
    fn nonblocking_connect_to_dead_port_fails_eventually() {
        // Bind-then-drop to get a port nobody listens on.
        let Ok(listener) = TcpListener::bind("127.0.0.1:0") else {
            eprintln!("skipping: loopback sockets unavailable in this sandbox");
            return;
        };
        let addr = listener.local_addr().unwrap();
        drop(listener);
        match connect_nonblocking(addr) {
            Err(_) => {} // refused inline
            Ok(Dial::Connected(_)) => panic!("connected to a dead port"),
            Ok(Dial::InProgress(s)) => {
                let mut poller = Poller::new().unwrap();
                poller.register(s.as_raw_fd(), 1).unwrap();
                poller.set_write_interest(1, true);
                let mut events = Vec::new();
                let deadline = std::time::Instant::now() + Duration::from_secs(5);
                loop {
                    poller.wait(&mut events, Duration::from_millis(50)).unwrap();
                    if events.iter().any(|e| e.token == 1 && e.writable) {
                        break;
                    }
                    assert!(
                        std::time::Instant::now() < deadline,
                        "refusal never reported"
                    );
                }
                assert!(
                    s.take_error().unwrap().is_some(),
                    "dead-port connect reported success"
                );
            }
        }
    }
}

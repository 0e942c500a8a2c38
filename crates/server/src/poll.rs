//! A minimal `poll(2)` + self-pipe shim for the reactor.
//!
//! The offline build environment has no `libc`/`mio` crates, so this
//! module binds `poll(2)`, `pipe(2)` and the raw fd `read`/`write`/`close`
//! directly via `extern "C"` on Unix targets — the same pattern as
//! `qbs_core::mmap` and [`crate::signal`]. The surface is deliberately
//! tiny: build a pollfd set, block until something is ready, a
//! [`WakePipe`] that lets worker threads interrupt the blocked reactor,
//! and the [`Pipe`] every reactor-driven socket reads and writes through.
//!
//! On non-Unix targets the shim degrades to a short-sleep emulation that
//! reports every descriptor ready: the reactor's reads and writes are all
//! non-blocking, so spurious readiness only costs a `WouldBlock` and a
//! re-park — correctness is preserved, efficiency is Unix-only.
#![allow(unsafe_code)]

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};

use crate::protocol::MAX_FRAME_LEN;

/// Readable-data event bit (also set on EOF by the kernel).
pub const POLLIN: i16 = 0x1;
/// Writable-space event bit.
pub const POLLOUT: i16 = 0x4;
/// Error condition (revents only).
pub const POLLERR: i16 = 0x8;
/// Peer hung up (revents only).
pub const POLLHUP: i16 = 0x10;
/// Invalid descriptor (revents only).
pub const POLLNVAL: i16 = 0x20;

/// A raw descriptor as `poll(2)` sees it. Negative values are legal and
/// ignored by the kernel (POSIX), which is how the non-Unix [`WakePipe`]
/// placeholder rides through a uniform poll set.
pub type RawSocket = i32;

/// One entry of a `poll(2)` set. The layout matches the C `struct pollfd`
/// on every platform we bind (int + short + short).
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    fd: RawSocket,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// An entry watching `fd` for `events` (a bitmask of [`POLLIN`] /
    /// [`POLLOUT`]).
    pub fn new(fd: RawSocket, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// The watched descriptor.
    pub fn fd(&self) -> RawSocket {
        self.fd
    }

    /// Whether the descriptor has readable data, hit EOF, or errored —
    /// all states where a read will make progress (possibly `Ok(0)`).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
    }

    /// Whether a write can make progress (including failing fast on a
    /// reset connection).
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

/// Blocks until at least one entry is ready or `timeout_ms` elapses.
/// Returns the number of ready entries (0 on timeout). `EINTR` is
/// reported as a zero-ready wakeup, so callers simply re-loop.
pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    imp::poll(fds, timeout_ms)
}

/// The raw descriptor of a listener, for a poll set.
pub fn listener_fd(listener: &TcpListener) -> RawSocket {
    imp::listener_fd(listener)
}

/// The raw descriptor of a stream, for a poll set.
pub fn stream_fd(stream: &TcpStream) -> RawSocket {
    imp::stream_fd(stream)
}

/// A self-pipe that lets any thread wake a reactor blocked in [`poll`].
///
/// The byte protocol keeps the pipe from ever filling (so [`WakePipe::wake`]
/// never blocks, even though the descriptors stay in blocking mode): a
/// waker writes one byte only when it flips the pending flag from false to
/// true, and the reactor clears the flag *before* consuming one byte. Every
/// written byte is therefore matched by a drain, and the pipe never holds
/// more than a couple of bytes.
#[derive(Debug)]
pub struct WakePipe {
    pending: AtomicBool,
    ends: imp::PipeEnds,
}

impl WakePipe {
    /// Opens the pipe. On non-Unix targets this is a flag-only stand-in
    /// whose [`WakePipe::poll_fd`] is ignored by the emulated poll.
    pub fn new() -> io::Result<WakePipe> {
        Ok(WakePipe {
            pending: AtomicBool::new(false),
            ends: imp::PipeEnds::new()?,
        })
    }

    /// The read end as a poll entry (watch it with [`POLLIN`]).
    pub fn poll_fd(&self) -> PollFd {
        PollFd::new(self.ends.read_fd(), POLLIN)
    }

    /// Wakes the reactor. Cheap when a wake is already pending (one
    /// atomic swap, no syscall); never blocks.
    pub fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            self.ends.write_byte();
        }
    }

    /// Consumes one pending wake after [`poll`] reported the read end
    /// readable. Clears the flag first so a wake racing the drain writes
    /// a fresh byte (and is observed by the next poll) instead of being
    /// lost.
    pub fn drain(&self) {
        self.pending.store(false, Ordering::SeqCst);
        self.ends.read_byte();
    }
}

/// What one [`Pipe::fill`] brought in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fill {
    /// A whole chunk arrived: handle it, then read again.
    Data,
    /// Whatever was waiting arrived, possibly nothing. Poll is
    /// level-triggered, so anything newer is the next turn's, and the read
    /// that would only say `WouldBlock` is saved.
    Drained,
    /// The peer finished sending.
    Eof,
    /// The connection failed.
    Broken,
}

/// A nonblocking connection with its unparsed inbound bytes and its
/// unsent outbound bytes: the one place a reactor reads, splits frames
/// and writes.
#[derive(Debug)]
pub struct Pipe {
    stream: TcpStream,
    rbuf: Vec<u8>,
    /// How much of `rbuf` [`Pipe::next_frame`] has already handed out.
    roff: usize,
    wbuf: Vec<u8>,
    /// How much of `wbuf` is already written.
    woff: usize,
}

impl Pipe {
    /// Wraps a stream already set nonblocking.
    pub fn new(stream: TcpStream) -> Pipe {
        Pipe {
            stream,
            rbuf: Vec::new(),
            roff: 0,
            wbuf: Vec::new(),
            woff: 0,
        }
    }

    /// The underlying stream.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// The poll entry: readable when `read`, writable while bytes wait.
    pub fn poll_fd(&self, read: bool) -> PollFd {
        let mut events = if read { POLLIN } else { 0 };
        if self.pending() {
            events |= POLLOUT;
        }
        PollFd::new(stream_fd(&self.stream), events)
    }

    /// Reads one chunk, through `scratch`, onto the inbound bytes.
    pub fn fill(&mut self, scratch: &mut [u8]) -> Fill {
        loop {
            return match (&self.stream).read(scratch) {
                Ok(0) => Fill::Eof,
                Ok(n) => {
                    self.rbuf.extend_from_slice(&scratch[..n]);
                    if n < scratch.len() {
                        Fill::Drained
                    } else {
                        Fill::Data
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Fill::Drained,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => Fill::Broken,
            };
        }
    }

    /// The inbound bytes not handed out yet.
    pub fn input(&self) -> &[u8] {
        &self.rbuf[self.roff..]
    }

    /// Drops the first `n` bytes of [`Pipe::input`].
    pub fn consume(&mut self, n: usize) {
        self.rbuf.drain(..self.roff + n);
        self.roff = 0;
    }

    /// Pops the next complete length-prefixed payload; `Err` carries a
    /// length over [`MAX_FRAME_LEN`], after which nothing can be framed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, u32> {
        let input = self.input();
        if let Some(prefix) = input.first_chunk::<4>() {
            let len = u32::from_le_bytes(*prefix);
            if len > MAX_FRAME_LEN {
                return Err(len);
            }
            if let Some(payload) = input.get(4..4 + len as usize) {
                let payload = payload.to_vec();
                self.roff += 4 + payload.len();
                return Ok(Some(payload));
            }
        }
        self.consume(0);
        Ok(None)
    }

    /// Queues bytes behind whatever is still unsent.
    pub fn queue(&mut self, bytes: Vec<u8>) {
        if self.wbuf.is_empty() {
            self.wbuf = bytes;
        } else {
            self.wbuf.extend_from_slice(&bytes);
        }
    }

    /// Whether queued bytes are still unsent.
    pub fn pending(&self) -> bool {
        self.woff < self.wbuf.len()
    }

    /// Writes until the queue empties or the socket would block; `false`
    /// when the connection failed. The written prefix is released once it
    /// is half the buffer, so no byte moves more than once on average.
    pub fn flush(&mut self) -> bool {
        let healthy = loop {
            if !self.pending() {
                break true;
            }
            match (&self.stream).write(&self.wbuf[self.woff..]) {
                Ok(0) => break false,
                Ok(n) => self.woff += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break false,
            }
        };
        if self.woff * 2 >= self.wbuf.len() {
            self.wbuf.drain(..self.woff);
            self.woff = 0;
        }
        healthy
    }
}

#[cfg(unix)]
mod imp {
    use std::ffi::c_int;
    use std::io;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    use super::{PollFd, RawSocket};

    // Raw bindings. `nfds_t` is declared as `usize`: it is `unsigned
    // long` on Linux and `unsigned int` on the BSDs/macOS, and every
    // realistic set size fits both; the count we pass is bounded by the
    // process fd limit. The buffer pointers are 1-byte locals.
    extern "C" {
        #[link_name = "poll"]
        fn sys_poll(fds: *mut PollFd, nfds: usize, timeout: c_int) -> c_int;
        fn pipe(fds: *mut c_int) -> c_int;
        fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    pub(super) fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `PollFd` is `repr(C)` with the `struct pollfd` layout,
        // the pointer/length pair denotes exactly the caller's slice, and
        // poll(2) writes only within it (the `revents` fields).
        let ready = unsafe { sys_poll(fds.as_mut_ptr(), fds.len(), timeout_ms) };
        if ready >= 0 {
            return Ok(ready as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            // A signal landed mid-wait; report an empty wakeup and let
            // the caller re-loop (the CLI's SIGINT latch is checked there).
            return Ok(0);
        }
        Err(err)
    }

    pub(super) fn listener_fd(listener: &TcpListener) -> RawSocket {
        listener.as_raw_fd()
    }

    pub(super) fn stream_fd(stream: &TcpStream) -> RawSocket {
        stream.as_raw_fd()
    }

    /// The two ends of a `pipe(2)`, closed on drop.
    #[derive(Debug)]
    pub(super) struct PipeEnds {
        read_fd: c_int,
        write_fd: c_int,
    }

    impl PipeEnds {
        pub(super) fn new() -> io::Result<PipeEnds> {
            let mut fds = [0 as c_int; 2];
            // SAFETY: `fds` is a writable 2-element array, exactly what
            // pipe(2) fills.
            if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(PipeEnds {
                read_fd: fds[0],
                write_fd: fds[1],
            })
        }

        pub(super) fn read_fd(&self) -> RawSocket {
            self.read_fd
        }

        pub(super) fn write_byte(&self) {
            let byte = 1u8;
            // SAFETY: writes one byte from a live local into an open pipe
            // end owned by `self`. The wake protocol bounds outstanding
            // bytes far below the pipe buffer, so this cannot block.
            let _ = unsafe { write(self.write_fd, &byte, 1) };
        }

        pub(super) fn read_byte(&self) {
            let mut byte = 0u8;
            // SAFETY: reads one byte into a live local from an open pipe
            // end owned by `self`; poll(2) reported it readable.
            let _ = unsafe { read(self.read_fd, &mut byte, 1) };
        }
    }

    impl Drop for PipeEnds {
        fn drop(&mut self) {
            // SAFETY: the fds came from a successful pipe(2) and are
            // closed exactly once.
            unsafe {
                close(self.read_fd);
                close(self.write_fd);
            }
        }
    }
}

#[cfg(not(unix))]
mod imp {
    use std::io;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    use super::{RawSocket, POLLIN, POLLOUT};

    /// Emulated poll: sleep briefly, then claim every watched event is
    /// ready. Non-blocking I/O turns false positives into `WouldBlock`.
    pub(super) fn poll(fds: &mut [super::PollFd], timeout_ms: i32) -> io::Result<usize> {
        let cap = if timeout_ms < 0 { 1 } else { timeout_ms.min(1) };
        std::thread::sleep(Duration::from_millis(cap.max(0) as u64));
        let mut ready = 0;
        for fd in fds.iter_mut() {
            if fd.fd < 0 {
                fd.revents = 0;
                continue;
            }
            fd.revents = fd.events & (POLLIN | POLLOUT);
            ready += 1;
        }
        Ok(ready)
    }

    pub(super) fn listener_fd(_listener: &TcpListener) -> RawSocket {
        0
    }

    pub(super) fn stream_fd(_stream: &TcpStream) -> RawSocket {
        0
    }

    /// Flag-only stand-in: the emulated poll returns within ~1ms anyway,
    /// so a wake is observed without any descriptor to signal.
    #[derive(Debug)]
    pub(super) struct PipeEnds;

    impl PipeEnds {
        pub(super) fn new() -> io::Result<PipeEnds> {
            Ok(PipeEnds)
        }

        pub(super) fn read_fd(&self) -> RawSocket {
            -1
        }

        pub(super) fn write_byte(&self) {}

        pub(super) fn read_byte(&self) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    /// A connected pair: a blocking client and a nonblocking [`Pipe`]
    /// over the server side.
    fn pipe_pair() -> (TcpStream, Pipe) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        (client, Pipe::new(server_side))
    }

    /// Waits until the pipe is readable, then reads one chunk.
    fn fill_ready(pipe: &mut Pipe, scratch: &mut [u8]) -> Fill {
        let mut fds = [pipe.poll_fd(true)];
        poll(&mut fds, 2_000).unwrap();
        pipe.fill(scratch)
    }

    /// Reads until at least `len` inbound bytes wait.
    fn fill_to(pipe: &mut Pipe, scratch: &mut [u8], len: usize) {
        while pipe.input().len() < len {
            assert!(!matches!(
                fill_ready(pipe, scratch),
                Fill::Eof | Fill::Broken
            ));
        }
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn pipe_joins_a_frame_split_across_chunks() {
        let (mut client, mut pipe) = pipe_pair();
        let mut scratch = [0u8; 4];
        let bytes = frame(b"split payload");
        client.write_all(&bytes[..6]).unwrap();
        fill_to(&mut pipe, &mut scratch, 6);
        assert_eq!(pipe.next_frame(), Ok(None), "half a frame is not a frame");
        client.write_all(&bytes[6..]).unwrap();
        // A 4-byte scratch takes several chunks; each is a full `Data`.
        fill_to(&mut pipe, &mut scratch, bytes.len());
        assert_eq!(pipe.next_frame(), Ok(Some(b"split payload".to_vec())));
        assert_eq!(pipe.next_frame(), Ok(None));
        assert!(pipe.input().is_empty());
    }

    #[test]
    fn pipe_pops_several_frames_from_one_chunk() {
        let (mut client, mut pipe) = pipe_pair();
        let mut scratch = [0u8; 1024];
        let payloads: [&[u8]; 3] = [b"one", b"", b"three"];
        let mut bytes: Vec<u8> = payloads.iter().flat_map(|p| frame(p)).collect();
        bytes.extend_from_slice(&[9, 0]); // the start of a fourth prefix
        client.write_all(&bytes).unwrap();
        fill_to(&mut pipe, &mut scratch, bytes.len());
        for payload in payloads {
            assert_eq!(pipe.next_frame(), Ok(Some(payload.to_vec())));
        }
        assert_eq!(pipe.next_frame(), Ok(None));
        assert_eq!(pipe.input(), &[9, 0], "the partial prefix waits");
    }

    #[test]
    fn pipe_reports_an_over_cap_length() {
        let (mut client, mut pipe) = pipe_pair();
        let mut scratch = [0u8; 64];
        let mut bytes = frame(b"fine");
        bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        client.write_all(&bytes).unwrap();
        fill_to(&mut pipe, &mut scratch, bytes.len());
        assert_eq!(pipe.next_frame(), Ok(Some(b"fine".to_vec())));
        assert_eq!(pipe.next_frame(), Err(MAX_FRAME_LEN + 1));
        // The cap itself is a legal length, waiting for its payload.
        let (mut client, mut pipe) = pipe_pair();
        client.write_all(&MAX_FRAME_LEN.to_le_bytes()).unwrap();
        fill_to(&mut pipe, &mut scratch, 4);
        assert_eq!(pipe.next_frame(), Ok(None));
    }

    #[test]
    fn pipe_sees_eof_in_the_middle_of_a_frame() {
        let (mut client, mut pipe) = pipe_pair();
        let mut scratch = [0u8; 64];
        client.write_all(&frame(b"truncated")[..7]).unwrap();
        drop(client);
        let mut fills = Vec::new();
        while fills.last() != Some(&Fill::Eof) {
            fills.push(fill_ready(&mut pipe, &mut scratch));
            assert!(fills.len() < 100, "EOF never surfaced: {fills:?}");
        }
        assert_eq!(pipe.input().len(), 7);
        assert_eq!(pipe.next_frame(), Ok(None), "a cut frame is never popped");
    }

    #[test]
    fn pipe_flush_stops_at_would_block_and_resumes() {
        let (mut client, mut pipe) = pipe_pair();
        // Far more than the loopback send and receive buffers hold.
        let sent: Vec<u8> = (0..32u32 << 20).map(|i| (i % 251) as u8).collect();
        pipe.queue(sent.clone());
        assert!(pipe.flush(), "a full socket is not a broken one");
        assert!(pipe.pending(), "the first flush stops at WouldBlock");
        let reader = std::thread::spawn(move || {
            let mut got = Vec::new();
            client.read_to_end(&mut got).unwrap();
            got
        });
        pipe.queue(b"tail".to_vec());
        let mut flushes = 1;
        while pipe.pending() {
            let mut fds = [pipe.poll_fd(false)];
            poll(&mut fds, 2_000).unwrap();
            assert!(pipe.flush());
            flushes += 1;
        }
        assert!(flushes > 1);
        pipe.stream().shutdown(std::net::Shutdown::Write).unwrap();
        let got = reader.join().unwrap();
        assert_eq!(got.len(), sent.len() + 4);
        assert!(got[..sent.len()] == sent[..] && got.ends_with(b"tail"));
    }

    #[test]
    fn poll_times_out_on_an_idle_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        let (_server_side, _) = listener.accept().unwrap();
        let mut fds = [PollFd::new(stream_fd(&stream), POLLIN)];
        // Nothing was sent: a bounded wait must return (ready or not —
        // the emulated fallback claims readiness, the real poll times
        // out), never hang.
        let _ = poll(&mut fds, 50).unwrap();
    }

    #[test]
    fn poll_reports_data_and_eof_as_readable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        client.write_all(b"x").unwrap();
        client.flush().unwrap();
        let mut fds = [PollFd::new(stream_fd(&server_side), POLLIN)];
        let ready = poll(&mut fds, 2_000).unwrap();
        assert!(ready >= 1);
        assert!(fds[0].readable());
        let mut server_side = server_side;
        let mut byte = [0u8; 1];
        server_side.read_exact(&mut byte).unwrap();
        assert_eq!(&byte, b"x");

        drop(client);
        let mut fds = [PollFd::new(stream_fd(&server_side), POLLIN)];
        let ready = poll(&mut fds, 2_000).unwrap();
        assert!(ready >= 1);
        assert!(fds[0].readable(), "EOF surfaces as readable");
    }

    #[test]
    fn wake_pipe_interrupts_a_blocked_poll() {
        let wake = std::sync::Arc::new(WakePipe::new().unwrap());
        let waker = std::sync::Arc::clone(&wake);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            waker.wake();
            waker.wake(); // coalesces: the flag is already pending
        });
        let start = std::time::Instant::now();
        loop {
            let mut fds = [wake.poll_fd()];
            let _ = poll(&mut fds, 5_000).unwrap();
            if fds[0].fd() < 0 {
                // Non-Unix stand-in: no descriptor; the emulated poll
                // returns promptly regardless.
                break;
            }
            if fds[0].readable() {
                wake.drain();
                break;
            }
            assert!(
                start.elapsed() < std::time::Duration::from_secs(5),
                "wake never arrived"
            );
        }
        handle.join().unwrap();
        // A second wake after the drain writes a fresh byte.
        wake.wake();
        let mut fds = [wake.poll_fd()];
        let _ = poll(&mut fds, 2_000).unwrap();
        if fds[0].fd() >= 0 {
            assert!(fds[0].readable());
            wake.drain();
        }
    }
}

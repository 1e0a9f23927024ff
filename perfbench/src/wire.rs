//! A plain line-protocol client: `TCP_NODELAY` on its own socket, one
//! `write` per request, replies read line by line. It uses no
//! `TCP_QUICKACK` or any other socket option that would hide how the
//! server's reply path behaves on the wire.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Longest a control request (setup probe, `metrics`, `trace`, `rows`)
/// may wait for its reply before the run fails.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 1;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Wait until `stream` has data (or EOF) to read, or `deadline` passes.
/// `ppoll` sleeps on a high-resolution timer; a socket read timeout
/// (`SO_RCVTIMEO`) rounds up to the kernel tick (4 ms at `HZ=250`), which would
/// make the open-loop generator send late.
fn wait_readable(stream: &TcpStream, deadline: Instant) -> io::Result<bool> {
    let wait = deadline.saturating_duration_since(Instant::now());
    let timeout = Timespec {
        tv_sec: wait.as_secs() as i64,
        tv_nsec: i64::from(wait.subsec_nanos()),
    };
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    // SAFETY: one valid `pollfd`, a valid `timespec`, no signal mask.
    let n = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    if n < 0 {
        let e = io::Error::last_os_error();
        return if e.kind() == io::ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(e)
        };
    }
    Ok(n > 0)
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Send one request line (which must end in `\n`) as one write.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        debug_assert!(line.ends_with('\n'));
        self.stream.write_all(line.as_bytes())
    }

    /// The next complete reply line, waiting at most until `deadline`
    /// (`Ok(None)` when it passes first).
    pub fn read_line_until(&mut self, deadline: Instant) -> io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return String::from_utf8(line[..pos].to_vec())
                    .map(Some)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
            if !wait_readable(&self.stream, deadline)? {
                continue;
            }
            let mut chunk = [0u8; 1 << 16];
            match self.stream.read(&mut chunk)? {
                0 => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
    }

    /// The next reply line, failing after [`CONTROL_TIMEOUT`].
    pub fn read_line(&mut self) -> io::Result<String> {
        self.read_line_until(Instant::now() + CONTROL_TIMEOUT)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "no reply within the timeout"))
    }

    /// Send one request and collect its whole reply: any prefix lines
    /// (`row …`, `metric …`, `span …`) up to and including the closing
    /// `ok …`/`err …` line.
    pub fn request(&mut self, line: &str) -> io::Result<Vec<String>> {
        self.send(line)?;
        let mut lines = Vec::new();
        loop {
            let l = self.read_line()?;
            let done = l.starts_with("ok") || l.starts_with("err");
            lines.push(l);
            if done {
                return Ok(lines);
            }
        }
    }
}

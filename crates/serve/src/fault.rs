//! Deterministic fault-injection harness (cfg-gated, tests only).
//!
//! A [`RawClient`] is the misbehaving twin of [`crate::client::Client`]:
//! it writes arbitrary bytes (including partial lines and garbage),
//! reads deliberately slowly, and drops connections mid-exchange —
//! everything a flaky or hostile network peer does. The integration
//! suite scripts these against a live daemon and asserts the contract:
//! structured error replies, no hangs, no daemon death, queued-job
//! cancellation on disconnect.
//!
//! All helpers are synchronous and deterministic: a scripted scenario
//! produces the same daemon-visible byte sequence every run.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

/// A protocol client with no manners: raw byte writes, slow reads,
/// abrupt drops.
pub struct RawClient {
    stream: Stream,
}

impl std::fmt::Debug for RawClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RawClient").finish_non_exhaustive()
    }
}

impl RawClient {
    /// Connects to a Unix socket daemon.
    pub fn connect_unix(path: impl AsRef<Path>) -> std::io::Result<RawClient> {
        Ok(RawClient {
            stream: Stream::Unix(UnixStream::connect(path)?),
        })
    }

    /// Connects to a TCP daemon.
    pub fn connect_tcp(addr: &str) -> std::io::Result<RawClient> {
        Ok(RawClient {
            stream: Stream::Tcp(TcpStream::connect(addr)?),
        })
    }

    /// Bounds how long reads block (`None` blocks indefinitely).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match &self.stream {
            Stream::Unix(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// Writes raw bytes exactly as given — no newline is appended, so
    /// partial lines stay partial.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        match &mut self.stream {
            Stream::Unix(s) => s.write_all(bytes),
            Stream::Tcp(s) => s.write_all(bytes),
        }
    }

    /// Writes `line` plus the terminating newline.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        self.send_bytes(line.as_bytes())?;
        self.send_bytes(b"\n")
    }

    fn read_byte(&mut self) -> std::io::Result<Option<u8>> {
        let mut byte = [0u8; 1];
        let n = match &mut self.stream {
            Stream::Unix(s) => s.read(&mut byte)?,
            Stream::Tcp(s) => s.read(&mut byte)?,
        };
        Ok(if n == 0 { None } else { Some(byte[0]) })
    }

    /// Reads one reply line (without the newline). `Ok(None)` means
    /// the daemon closed the connection.
    pub fn read_line(&mut self) -> std::io::Result<Option<String>> {
        let mut line = Vec::new();
        loop {
            match self.read_byte()? {
                None => {
                    return Ok(if line.is_empty() {
                        None
                    } else {
                        Some(String::from_utf8_lossy(&line).into_owned())
                    })
                }
                Some(b'\n') => return Ok(Some(String::from_utf8_lossy(&line).into_owned())),
                Some(b) => line.push(b),
            }
        }
    }

    /// Reads one reply line a byte at a time, sleeping `per_byte`
    /// between reads — a slow reader that must not stall the daemon's
    /// other connections.
    pub fn read_line_slowly(&mut self, per_byte: Duration) -> std::io::Result<Option<String>> {
        let mut line = Vec::new();
        loop {
            match self.read_byte()? {
                None => {
                    return Ok(if line.is_empty() {
                        None
                    } else {
                        Some(String::from_utf8_lossy(&line).into_owned())
                    })
                }
                Some(b'\n') => return Ok(Some(String::from_utf8_lossy(&line).into_owned())),
                Some(b) => {
                    line.push(b);
                    std::thread::sleep(per_byte);
                }
            }
        }
    }
}

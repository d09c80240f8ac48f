//! A small well-behaved client for the `oscar-serve` protocol.
//!
//! Used by `oscar-batch --connect` and the integration suite. One
//! request per call: write a compact JSON line, read one reply line,
//! parse it. The misbehaving counterpart (partial writes, slow reads,
//! abrupt drops) lives in the `fault` module, behind the `fault` feature.

use crate::json::{self, Json};
use crate::proto::SubmitReq;
use std::io::{BufRead, BufReader, Error, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration;

enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    fn write_all_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.write_all(bytes),
            Stream::Tcp(s) => s.write_all(bytes),
        }
    }
}

/// A connected protocol client (one line-delimited JSON exchange per
/// [`Self::request`]).
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").finish_non_exhaustive()
    }
}

impl Client {
    /// Connects to a Unix socket daemon.
    pub fn connect_unix(path: impl AsRef<std::path::Path>) -> std::io::Result<Client> {
        Client::from_stream(Stream::Unix(UnixStream::connect(path)?))
    }

    /// Connects to a TCP daemon (`host:port`).
    pub fn connect_tcp(addr: &str) -> std::io::Result<Client> {
        Client::from_stream(Stream::Tcp(TcpStream::connect(addr)?))
    }

    /// Connects to `addr`, treating it as `host:port` when it parses
    /// as a socket address and as a Unix socket path otherwise.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        if addr.parse::<std::net::SocketAddr>().is_ok() {
            Client::connect_tcp(addr)
        } else {
            Client::connect_unix(addr)
        }
    }

    fn from_stream(stream: Stream) -> std::io::Result<Client> {
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Bounds how long [`Self::request`] waits for a reply line
    /// (`None` waits indefinitely, the default).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request and reads one reply line. A closed connection
    /// surfaces as [`ErrorKind::UnexpectedEof`]; an unparseable reply
    /// as [`ErrorKind::InvalidData`].
    pub fn request(&mut self, request: &Json) -> std::io::Result<Json> {
        let mut line = request.to_string_compact().into_bytes();
        line.push(b'\n');
        self.writer.write_all_bytes(&line)?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        json::parse(reply.trim())
            .map_err(|e| Error::new(ErrorKind::InvalidData, format!("bad reply: {e}")))
    }

    /// Submits a job; returns the raw reply (check `ok` / `job`).
    pub fn submit(&mut self, req: &SubmitReq) -> std::io::Result<Json> {
        self.request(&req.to_json())
    }

    /// Waits for `job` with an optional server-side timeout.
    pub fn wait(
        &mut self,
        job: u64,
        timeout_ms: Option<u64>,
        include_values: bool,
    ) -> std::io::Result<Json> {
        let mut fields = vec![
            ("verb".to_string(), Json::Str("wait".into())),
            ("job".to_string(), Json::Num(job as f64)),
        ];
        if let Some(ms) = timeout_ms {
            fields.push(("timeout_ms".to_string(), Json::Num(ms as f64)));
        }
        if include_values {
            fields.push(("include_values".to_string(), Json::Bool(true)));
        }
        self.request(&Json::Obj(fields))
    }

    /// Queries `job`'s status without blocking on it.
    pub fn status(&mut self, job: u64) -> std::io::Result<Json> {
        self.request(&Json::Obj(vec![
            ("verb".to_string(), Json::Str("status".into())),
            ("job".to_string(), Json::Num(job as f64)),
        ]))
    }

    /// Requests cancellation of `job`.
    pub fn cancel(&mut self, job: u64) -> std::io::Result<Json> {
        self.request(&Json::Obj(vec![
            ("verb".to_string(), Json::Str("cancel".into())),
            ("job".to_string(), Json::Num(job as f64)),
        ]))
    }

    /// Fetches daemon counters and latency percentiles.
    pub fn stats(&mut self) -> std::io::Result<Json> {
        self.request(&Json::Obj(vec![(
            "verb".to_string(),
            Json::Str("stats".into()),
        )]))
    }

    /// Fetches the full metrics registry snapshot (plus daemon-local
    /// admission metrics, and Prometheus text when the daemon was
    /// started with `--metrics-text`).
    pub fn metrics(&mut self) -> std::io::Result<Json> {
        self.request(&Json::Obj(vec![(
            "verb".to_string(),
            Json::Str("metrics".into()),
        )]))
    }

    /// Asks the daemon to drain and shut down; returns its final
    /// reply. The connection is unusable afterwards.
    pub fn drain(&mut self) -> std::io::Result<Json> {
        self.request(&Json::Obj(vec![(
            "verb".to_string(),
            Json::Str("drain".into()),
        )]))
    }
}

//! Transport abstraction: one [`Channel`] trait over TCP and Unix
//! sockets.
//!
//! The daemon, the client, and the test suite's fault injectors all
//! speak to a `Box<dyn Channel>`; whether bytes travel over `TcpStream`
//! or `UnixStream` is decided once, at [`Endpoint`] parse time, and
//! never leaks into protocol or server code. An [`Endpoint`] is written
//! `tcp:HOST:PORT` or `unix:PATH` (a bare string containing `/` is
//! taken as a Unix socket path — the common case for a local daemon).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Duration;

/// A bidirectional, timeout-capable byte stream.
///
/// Everything the protocol layer needs from a transport: blocking
/// read/write (inherited), deadline knobs, and a way to identify and
/// drop the peer. Implementations must be safe to hand to one serving
/// thread (`Send`).
pub trait Channel: Read + Write + Send {
    /// Bound the time a single read may block (`None` = forever).
    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()>;
    /// Bound the time a single write may block (`None` = forever) —
    /// the slow-client guard.
    fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()>;
    /// Human-readable peer description for logs.
    fn peer(&self) -> String;
    /// Shut the connection down in both directions.
    fn shutdown(&self) -> std::io::Result<()>;
}

impl Channel for TcpStream {
    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_read_timeout(self, d)
    }
    fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        TcpStream::set_write_timeout(self, d)
    }
    fn peer(&self) -> String {
        self.peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "tcp:?".into())
    }
    fn shutdown(&self) -> std::io::Result<()> {
        TcpStream::shutdown(self, std::net::Shutdown::Both)
    }
}

impl Channel for UnixStream {
    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        UnixStream::set_read_timeout(self, d)
    }
    fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        UnixStream::set_write_timeout(self, d)
    }
    fn peer(&self) -> String {
        "unix-peer".into()
    }
    fn shutdown(&self) -> std::io::Result<()> {
        UnixStream::shutdown(self, std::net::Shutdown::Both)
    }
}

/// Where a server listens / a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP `host:port`.
    Tcp(String),
    /// Unix-domain socket path.
    Unix(String),
}

impl Endpoint {
    /// Parse `tcp:HOST:PORT`, `unix:PATH`, a bare `/path` (Unix), or a
    /// bare `host:port` (TCP).
    pub fn parse(s: &str) -> Result<Endpoint, String> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            if rest.rsplit_once(':').is_none() {
                return Err(format!("tcp endpoint needs host:port, got '{rest}'"));
            }
            return Ok(Endpoint::Tcp(rest.to_string()));
        }
        if let Some(rest) = s.strip_prefix("unix:") {
            if rest.is_empty() {
                return Err("unix endpoint needs a path".into());
            }
            return Ok(Endpoint::Unix(rest.to_string()));
        }
        if s.contains('/') {
            return Ok(Endpoint::Unix(s.to_string()));
        }
        if s.rsplit_once(':').is_some() {
            return Ok(Endpoint::Tcp(s.to_string()));
        }
        Err(format!(
            "cannot parse endpoint '{s}' (want tcp:HOST:PORT or unix:PATH)"
        ))
    }

    /// Connect a client channel.
    pub fn connect(&self) -> std::io::Result<Box<dyn Channel>> {
        Ok(match self {
            Endpoint::Tcp(addr) => Box::new(TcpStream::connect(addr)?),
            Endpoint::Unix(path) => Box::new(UnixStream::connect(path)?),
        })
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
            Endpoint::Unix(p) => write!(f, "unix:{p}"),
        }
    }
}

/// A bound, non-blocking listener over either transport.
#[derive(Debug)]
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener (unlinks its socket file on drop).
    Unix(UnixListener, String),
}

impl Listener {
    /// Bind `endpoint` non-blocking (the accept loop polls so it can
    /// observe the shutdown flag). A stale Unix socket file from a
    /// previous crash is removed before binding.
    pub fn bind(endpoint: &Endpoint) -> std::io::Result<Listener> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Tcp(l))
            }
            Endpoint::Unix(path) => {
                // Only a socket can be "stale" — refuse to clobber a
                // regular file at the same path.
                if let Ok(meta) = std::fs::symlink_metadata(path) {
                    use std::os::unix::fs::FileTypeExt;
                    if meta.file_type().is_socket() {
                        let _ = std::fs::remove_file(path);
                    }
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Ok(Listener::Unix(l, path.clone()))
            }
        }
    }

    /// The endpoint actually bound (resolves TCP port 0).
    pub fn local_endpoint(&self) -> Endpoint {
        match self {
            Listener::Tcp(l) => Endpoint::Tcp(
                l.local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "?".into()),
            ),
            Listener::Unix(_, path) => Endpoint::Unix(path.clone()),
        }
    }

    /// Try to accept one connection; `Ok(None)` when none is pending.
    /// Accepted channels are switched back to blocking mode.
    pub fn accept(&self) -> std::io::Result<Option<Box<dyn Channel>>> {
        match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    Ok(Some(Box::new(s)))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
            Listener::Unix(l, _) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    Ok(Some(Box::new(s)))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parsing() {
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:7777").unwrap(),
            Endpoint::Tcp("127.0.0.1:7777".into())
        );
        assert_eq!(
            Endpoint::parse("unix:/tmp/qoz.sock").unwrap(),
            Endpoint::Unix("/tmp/qoz.sock".into())
        );
        assert_eq!(
            Endpoint::parse("/tmp/qoz.sock").unwrap(),
            Endpoint::Unix("/tmp/qoz.sock".into())
        );
        assert_eq!(
            Endpoint::parse("localhost:9000").unwrap(),
            Endpoint::Tcp("localhost:9000".into())
        );
        assert!(Endpoint::parse("nonsense").is_err());
        assert!(Endpoint::parse("unix:").is_err());
        assert!(Endpoint::parse("tcp:portless").is_err());
    }

    #[test]
    fn tcp_and_unix_channels_carry_bytes_identically() {
        // TCP on an ephemeral port.
        let tcp = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let ep = tcp.local_endpoint();
        let mut client = ep.connect().unwrap();
        let mut server = loop {
            if let Some(c) = tcp.accept().unwrap() {
                break c;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        client.write_all(b"hello over tcp").unwrap();
        client.flush().unwrap();
        let mut buf = [0u8; 14];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello over tcp");

        // Unix socket in a temp path.
        let path = std::env::temp_dir()
            .join(format!("qoz_serve_chan_{}.sock", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let unix = Listener::bind(&Endpoint::Unix(path.clone())).unwrap();
        let mut client = Endpoint::Unix(path.clone()).connect().unwrap();
        let mut server = loop {
            if let Some(c) = unix.accept().unwrap() {
                break c;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        client.write_all(b"hello over unix").unwrap();
        let mut buf = [0u8; 15];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello over unix");
        drop(unix);
        assert!(
            !std::path::Path::new(&path).exists(),
            "socket file unlinked on drop"
        );
    }

    #[test]
    fn bind_refuses_to_clobber_regular_file() {
        let path = std::env::temp_dir()
            .join(format!("qoz_serve_regular_{}", std::process::id()))
            .to_string_lossy()
            .into_owned();
        std::fs::write(&path, b"precious").unwrap();
        assert!(Listener::bind(&Endpoint::Unix(path.clone())).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"precious");
        std::fs::remove_file(&path).ok();
    }
}

//! The client half: one connection, bounded retries, jittered backoff.
//!
//! Retry policy in one sentence: transport failures (the connection
//! died, a response frame was damaged) reconnect and retry; server
//! errors retry only when the server itself marks them transient
//! ([`ErrorCode::is_transient`] — overloaded or draining); everything
//! else returns immediately. Retries are *bounded* and each waits an
//! exponentially growing, deterministically jittered backoff, so a
//! thousand shedding clients do not re-dogpile the daemon in lockstep.

use crate::channel::{Channel, Endpoint};
use crate::protocol::{
    read_frame, write_frame, ErrorCode, FrameError, Request, Response, StatsSnapshot, MAX_PAYLOAD,
};
use qoz_codec::stream::ErrorBound;
use qoz_codec::CodecError;
use qoz_tensor::{NdArray, Scalar, Shape};
use std::time::Duration;

/// Retry and timeout knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Server address.
    pub endpoint: Endpoint,
    /// Retries after the first attempt (so `max_retries = 4` means at
    /// most 5 attempts).
    pub max_retries: u32,
    /// First backoff; doubles per retry (jittered ±50%, capped at 2 s).
    pub base_backoff: Duration,
    /// Per-read/per-write transport timeout.
    pub io_timeout: Duration,
    /// Jitter seed — fixed so a test's retry schedule replays exactly.
    pub seed: u64,
}

impl ClientConfig {
    /// Defaults: 4 retries from 20 ms, 30 s I/O timeout.
    pub fn new(endpoint: Endpoint) -> Self {
        ClientConfig {
            endpoint,
            max_retries: 4,
            base_backoff: Duration::from_millis(20),
            io_timeout: Duration::from_secs(30),
            seed: 0x9E37_79B9,
        }
    }
}

/// Why a call failed for good (retries, if any were allowed, are
/// already spent when you see one of these).
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, send, or receive).
    Io(std::io::Error),
    /// The response frame was structurally damaged.
    Frame(FrameError),
    /// The response frame was sound but its payload did not parse.
    Protocol(CodecError),
    /// The server answered with a typed error.
    Server {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The server answered something structurally valid but of the
    /// wrong kind for the request.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Frame(e) => write!(f, "response frame: {e}"),
            ClientError::Protocol(e) => write!(f, "response payload: {e}"),
            ClientError::Server { code, message } => write!(f, "server {code:?}: {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A connection to a qoz-serve daemon (reconnects transparently).
pub struct Client {
    config: ClientConfig,
    conn: Option<Box<dyn Channel>>,
    rng: u64,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("endpoint", &self.config.endpoint)
            .field("connected", &self.conn.is_some())
            .finish()
    }
}

impl Client {
    /// Client with default retry policy.
    pub fn connect(endpoint: Endpoint) -> Client {
        Client::with_config(ClientConfig::new(endpoint))
    }

    /// Client with explicit knobs. The connection is opened lazily on
    /// the first call, so constructing a client never blocks.
    pub fn with_config(config: ClientConfig) -> Client {
        let rng = config.seed;
        Client {
            config,
            conn: None,
            rng,
        }
    }

    /// Send `req`, retrying per the config. Server `Error` responses
    /// come back as [`ClientError::Server`] (transient codes are
    /// retried first).
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let kind = req.kind();
        let payload = req.encode();
        let mut last: Option<ClientError> = None;
        for attempt in 0..=self.config.max_retries {
            if attempt > 0 {
                // Client-observed retries: every re-attempt after a
                // transient server error or transport failure.
                qoz_telemetry::global()
                    .counter("qoz_client_retries_total", &[])
                    .inc();
                self.backoff(attempt - 1);
            }
            match self.attempt_once(kind, &payload) {
                Ok(Response::Error { code, message }) => {
                    let err = ClientError::Server { code, message };
                    if !code.is_transient() {
                        return Err(err);
                    }
                    last = Some(err);
                }
                Ok(resp) => return Ok(resp),
                Err(e @ (ClientError::Io(_) | ClientError::Frame(_))) => {
                    // The stream state is unknowable — reconnect before
                    // the next attempt.
                    self.conn = None;
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("at least one attempt always runs"))
    }

    /// One attempt, no retries, on the current (or a fresh) connection.
    pub fn call_once(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.attempt_once(req.kind(), &req.encode())
    }

    fn attempt_once(&mut self, kind: u8, payload: &[u8]) -> Result<Response, ClientError> {
        if self.conn.is_none() {
            let chan = self.config.endpoint.connect().map_err(ClientError::Io)?;
            let _ = chan.set_read_timeout(Some(self.config.io_timeout));
            let _ = chan.set_write_timeout(Some(self.config.io_timeout));
            self.conn = Some(chan);
        }
        let chan = self.conn.as_mut().expect("connection just established");
        write_frame(chan, kind, payload).map_err(ClientError::Io)?;
        let (k, resp) = read_frame(chan, MAX_PAYLOAD).map_err(|e| match e {
            FrameError::Io(io) => ClientError::Io(io),
            other => ClientError::Frame(other),
        })?;
        Response::decode(k, &resp).map_err(ClientError::Protocol)
    }

    /// Next backoff for `attempt` (0-based): `base << attempt`,
    /// jittered to 50–150%, capped at 2 s.
    fn backoff(&mut self, attempt: u32) {
        std::thread::sleep(self.backoff_duration(attempt));
    }

    fn backoff_duration(&mut self, attempt: u32) -> Duration {
        let base_ms = self.config.base_backoff.as_millis() as u64;
        let exp_ms = base_ms.saturating_mul(1 << attempt.min(16));
        let jitter = 50 + splitmix64(&mut self.rng) % 101; // 50..=150
        Duration::from_millis((exp_ms * jitter / 100).min(2000))
    }

    // -- typed conveniences ------------------------------------------------

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::Unexpected("wanted Pong")),
        }
    }

    /// Server counters.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            _ => Err(ClientError::Unexpected("wanted Stats")),
        }
    }

    /// Ask the daemon to drain and stop.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownOk => Ok(()),
            _ => Err(ClientError::Unexpected("wanted ShutdownOk")),
        }
    }

    /// Compress one snapshot; returns `(plan outcome byte, blob)`. The
    /// outcome byte mirrors `PlanOutcome` (1 cold, 2 warm hit, 3 warm
    /// rescale, 4 retune).
    pub fn compress<T: Scalar>(
        &mut self,
        name: &str,
        data: &NdArray<T>,
        bound: ErrorBound,
        budget_ms: u64,
    ) -> Result<(u8, Vec<u8>), ClientError> {
        let req = Request::Compress {
            name: name.to_string(),
            scalar_tag: T::TYPE_TAG,
            dims: data.shape().dims().to_vec(),
            bound,
            budget_ms,
            raw: data.to_le_bytes(),
        };
        match self.call(&req)? {
            Response::Compressed { outcome, blob } => Ok((outcome, blob)),
            _ => Err(ClientError::Unexpected("wanted Compressed")),
        }
    }

    /// Decompress any workspace stream on the server.
    pub fn decompress<T: Scalar>(
        &mut self,
        blob: &[u8],
        budget_ms: u64,
    ) -> Result<NdArray<T>, ClientError> {
        let req = Request::Decompress {
            budget_ms,
            blob: blob.to_vec(),
        };
        match self.call(&req)? {
            Response::Decompressed {
                scalar_tag,
                dims,
                raw,
            } => decode_slab(scalar_tag, &dims, &raw),
            _ => Err(ClientError::Unexpected("wanted Decompressed")),
        }
    }

    /// Read a region of an archive the server can reach; returns the
    /// slab and the number of damaged chunks zero-filled into it (only
    /// ever non-zero with `tolerant`).
    pub fn region_read<T: Scalar>(
        &mut self,
        archive: &str,
        var: &str,
        origin: &[usize],
        size: &[usize],
        tolerant: bool,
        budget_ms: u64,
    ) -> Result<(NdArray<T>, u64), ClientError> {
        let req = Request::RegionRead {
            archive: archive.to_string(),
            var: var.to_string(),
            origin: origin.to_vec(),
            size: size.to_vec(),
            budget_ms,
            tolerant,
        };
        match self.call(&req)? {
            Response::Region {
                scalar_tag,
                dims,
                faults,
                raw,
            } => Ok((decode_slab(scalar_tag, &dims, &raw)?, faults)),
            _ => Err(ClientError::Unexpected("wanted Region")),
        }
    }
}

fn decode_slab<T: Scalar>(
    scalar_tag: u8,
    dims: &[usize],
    raw: &[u8],
) -> Result<NdArray<T>, ClientError> {
    if scalar_tag != T::TYPE_TAG {
        return Err(ClientError::Unexpected("scalar type mismatch"));
    }
    NdArray::from_le_bytes(Shape::new(dims), raw)
        .ok_or(ClientError::Unexpected("slab byte count disagrees"))
}

/// SplitMix64 step: the backoff jitter, which must replay exactly from
/// the configured seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Listener;
    use crate::protocol::kind;

    #[test]
    fn backoff_grows_is_jittered_and_replays_from_seed() {
        let ep = Endpoint::Unix("/tmp/unused.sock".into());
        let mut a = Client::with_config(ClientConfig::new(ep.clone()));
        let mut b = Client::with_config(ClientConfig::new(ep));
        let da: Vec<_> = (0..5).map(|i| a.backoff_duration(i)).collect();
        let db: Vec<_> = (0..5).map(|i| b.backoff_duration(i)).collect();
        assert_eq!(da, db, "same seed, same schedule");
        // Exponential shape survives the jitter: attempt 4 (16x base at
        // >=50% jitter) strictly exceeds attempt 0 (1x base at <=150%).
        assert!(da[4] > da[0]);
        for d in &da {
            assert!(*d <= Duration::from_secs(2), "cap holds");
        }
    }

    #[test]
    fn transient_errors_retry_and_then_succeed() {
        let path = std::env::temp_dir()
            .join(format!("qoz_client_retry_{}.sock", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let listener = Listener::bind(&Endpoint::Unix(path.clone())).unwrap();
        // A hand-rolled server: Overloaded twice, then Pong.
        let server = std::thread::spawn(move || {
            let mut chan = loop {
                if let Some(c) = listener.accept().unwrap() {
                    break c;
                }
                std::thread::sleep(Duration::from_millis(1));
            };
            for i in 0..3 {
                let (k, _) = read_frame(&mut chan, MAX_PAYLOAD).unwrap();
                assert_eq!(k, kind::PING);
                let resp = if i < 2 {
                    Response::Error {
                        code: ErrorCode::Overloaded,
                        message: "busy".into(),
                    }
                } else {
                    Response::Pong
                };
                write_frame(&mut chan, resp.kind(), &resp.encode()).unwrap();
            }
        });
        let mut config = ClientConfig::new(Endpoint::Unix(path));
        config.base_backoff = Duration::from_millis(1);
        let mut client = Client::with_config(config);
        client.ping().expect("third attempt succeeds");
        // Both re-attempts were observed on the retry counter (global:
        // other tests in this process can only push it higher).
        assert!(
            qoz_telemetry::global()
                .counter("qoz_client_retries_total", &[])
                .get()
                >= 2
        );
        server.join().unwrap();
    }

    #[test]
    fn non_transient_errors_do_not_retry() {
        let path = std::env::temp_dir()
            .join(format!("qoz_client_noretry_{}.sock", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let listener = Listener::bind(&Endpoint::Unix(path.clone())).unwrap();
        let server = std::thread::spawn(move || {
            let mut chan = loop {
                if let Some(c) = listener.accept().unwrap() {
                    break c;
                }
                std::thread::sleep(Duration::from_millis(1));
            };
            // Exactly one request must arrive; answering CorruptInput
            // must end the exchange.
            let (k, _) = read_frame(&mut chan, MAX_PAYLOAD).unwrap();
            assert_eq!(k, kind::PING);
            let resp = Response::Error {
                code: ErrorCode::CorruptInput,
                message: "nope".into(),
            };
            write_frame(&mut chan, resp.kind(), &resp.encode()).unwrap();
            // A second read should see EOF, not another attempt.
            assert!(read_frame(&mut chan, MAX_PAYLOAD).is_err());
        });
        let mut config = ClientConfig::new(Endpoint::Unix(path));
        config.base_backoff = Duration::from_millis(1);
        let mut client = Client::with_config(config);
        match client.ping() {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::CorruptInput),
            other => panic!("wanted Server(CorruptInput), got {other:?}"),
        }
        drop(client);
        server.join().unwrap();
    }
}

//! Deterministic transport fault injection for the fault-injection
//! suite.
//!
//! Robustness claims are only as good as the failures actually driven
//! through the system. [`ChaosChannel`] wraps the byte boundary the
//! daemon trusts least — a network [`Channel`] — with an injector that
//! reproduces the classic failure menagerie *deterministically from a
//! seed*: torn writes, short reads, stalls, and bit-flips. Determinism
//! matters more than realism here; a fault that cannot be replayed
//! cannot be debugged, so every fault is a pure function of the seed
//! and the byte position, never of wall clock or scheduling.
//!
//! The injector is a plain wrapper around a real connection, so the
//! suite exercises the *real* server, not a mock.

use qoz_datagen::noise::splitmix64;
use qoz_serve::Channel;
use std::io::{Read, Write};
use std::time::Duration;

/// One injectable fault at the transport layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Deliver only the first `after` outgoing bytes, then sever the
    /// connection — a mid-frame disconnect as the peer sees it.
    TornWrite {
        /// Outgoing bytes delivered before the cut.
        after: u64,
    },
    /// Deliver only the first `after` incoming bytes, then report EOF.
    ShortRead {
        /// Incoming bytes delivered before the EOF.
        after: u64,
    },
    /// Sleep before the first byte is read (a slow peer).
    Stall {
        /// Stall length in milliseconds.
        ms: u64,
    },
    /// Flip one bit of the `at`-th outgoing byte (checksum fodder).
    BitFlip {
        /// Zero-based index into the outgoing byte stream.
        at: u64,
        /// Bit index 0–7.
        bit: u8,
    },
}

impl Fault {
    /// Derive a fault from a seed: same seed, same fault, forever. The
    /// positions are kept small so they land inside a frame header or
    /// early payload, where they bite hardest.
    pub fn from_seed(seed: u64) -> Fault {
        // The first three outputs of a SplitMix64 stream seeded with
        // `seed`.
        let draw = |i: u64| splitmix64(seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let roll = draw(0);
        let pos = draw(1) % 32;
        let bit = (draw(2) % 8) as u8;
        match roll % 4 {
            0 => Fault::TornWrite { after: pos },
            1 => Fault::ShortRead { after: pos },
            2 => Fault::Stall { ms: 1 + pos % 10 },
            _ => Fault::BitFlip { at: pos, bit },
        }
    }
}

/// A [`Channel`] that injects one [`Fault`] into an inner channel.
pub struct ChaosChannel {
    inner: Box<dyn Channel>,
    fault: Fault,
    written: u64,
    read: u64,
    stalled: bool,
}

impl ChaosChannel {
    /// Wrap `inner`, injecting `fault`.
    pub fn new(inner: Box<dyn Channel>, fault: Fault) -> ChaosChannel {
        ChaosChannel {
            inner,
            fault,
            written: 0,
            read: 0,
            stalled: false,
        }
    }

    /// Wrap `inner` with the fault derived from `seed`.
    pub fn from_seed(inner: Box<dyn Channel>, seed: u64) -> ChaosChannel {
        ChaosChannel::new(inner, Fault::from_seed(seed))
    }
}

impl Write for ChaosChannel {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self.fault {
            Fault::TornWrite { after } => {
                if self.written >= after {
                    // The torn half is already on the wire; sever so the
                    // peer sees a mid-frame disconnect, not a stall.
                    let _ = self.inner.shutdown();
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::BrokenPipe,
                        "chaos: torn write",
                    ));
                }
                let allowed = ((after - self.written) as usize).min(buf.len());
                let n = self.inner.write(&buf[..allowed])?;
                self.written += n as u64;
                Ok(n)
            }
            Fault::BitFlip { at, bit } => {
                let start = self.written;
                let end = start + buf.len() as u64;
                let n = if (start..end).contains(&at) {
                    let mut copy = buf.to_vec();
                    copy[(at - start) as usize] ^= 1 << bit;
                    self.inner.write(&copy)?
                } else {
                    self.inner.write(buf)?
                };
                self.written += n as u64;
                Ok(n)
            }
            _ => {
                let n = self.inner.write(buf)?;
                self.written += n as u64;
                Ok(n)
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl Read for ChaosChannel {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Fault::Stall { ms } = self.fault {
            if !self.stalled {
                self.stalled = true;
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        if let Fault::ShortRead { after } = self.fault {
            if self.read >= after {
                return Ok(0); // injected EOF
            }
            let cap = ((after - self.read) as usize).min(buf.len());
            let n = self.inner.read(&mut buf[..cap])?;
            self.read += n as u64;
            return Ok(n);
        }
        let n = self.inner.read(buf)?;
        self.read += n as u64;
        Ok(n)
    }
}

impl Channel for ChaosChannel {
    fn set_read_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_read_timeout(d)
    }
    fn set_write_timeout(&self, d: Option<Duration>) -> std::io::Result<()> {
        self.inner.set_write_timeout(d)
    }
    fn peer(&self) -> String {
        format!("chaos({:?})<{}>", self.fault, self.inner.peer())
    }
    fn shutdown(&self) -> std::io::Result<()> {
        self.inner.shutdown()
    }
}

mod tests {
    use super::*;
    use qoz_serve::{Endpoint, Listener};

    fn unix_pair(tag: &str) -> (Box<dyn Channel>, Box<dyn Channel>) {
        let path = std::env::temp_dir()
            .join(format!("qoz_chaos_{tag}_{}.sock", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let listener = Listener::bind(&Endpoint::Unix(path.clone())).unwrap();
        let client = Endpoint::Unix(path).connect().unwrap();
        let server = loop {
            if let Some(c) = listener.accept().unwrap() {
                break c;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        (client, server)
    }

    #[test]
    fn faults_derive_deterministically_from_seeds() {
        for seed in 0..64u64 {
            assert_eq!(Fault::from_seed(seed), Fault::from_seed(seed));
        }
        // The menu is actually diverse across seeds.
        let kinds: std::collections::HashSet<u8> = (0..64u64)
            .map(|s| match Fault::from_seed(s) {
                Fault::TornWrite { .. } => 1,
                Fault::ShortRead { .. } => 2,
                Fault::Stall { .. } => 3,
                Fault::BitFlip { .. } => 4,
            })
            .collect();
        assert!(kinds.len() >= 3, "seeds cover several fault kinds");
    }

    #[test]
    fn torn_write_delivers_prefix_then_severs() {
        let (client, mut server) = unix_pair("torn");
        let mut chaos = ChaosChannel::new(client, Fault::TornWrite { after: 5 });
        let err = chaos.write_all(b"0123456789").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        let mut got = Vec::new();
        server.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"01234", "exactly the torn prefix arrives");
    }

    #[test]
    fn short_read_reports_eof_after_budget() {
        let (mut client, server) = unix_pair("short");
        client.write_all(b"abcdefgh").unwrap();
        let mut chaos = ChaosChannel::new(server, Fault::ShortRead { after: 3 });
        let mut buf = [0u8; 8];
        let mut total = 0;
        loop {
            let n = chaos.read(&mut buf[total..]).unwrap();
            if n == 0 {
                break;
            }
            total += n;
        }
        assert_eq!(&buf[..total], b"abc");
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let (client, mut server) = unix_pair("flip");
        let mut chaos = ChaosChannel::new(client, Fault::BitFlip { at: 2, bit: 7 });
        chaos.write_all(&[0u8; 6]).unwrap();
        chaos.flush().unwrap();
        drop(chaos);
        let mut got = Vec::new();
        server.read_to_end(&mut got).unwrap();
        assert_eq!(got, vec![0, 0, 0x80, 0, 0, 0]);
    }
}

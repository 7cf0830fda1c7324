//! Wire probe: the per-byte cost of each layer of the daemon's wire
//! path, through memory, without a socket or a codec.
//!
//! ```text
//! cargo run --release --example wire_probe [-- REPS]
//! ```
//!
//! For payloads of 4 KiB, 64 KiB and 1 MiB of seeded pseudo-random
//! bytes (compressed streams look random), each layer is timed over
//! enough passes to fill about 4 MiB, best of `REPS` (default 21)
//! rounds, and reported in ns per payload byte:
//!
//! - `frame write+read`: `write_frame` into a reused buffer, then
//!   `read_frame` from it (header checks, payload copy and the checksum
//!   on both sides);
//! - `request encode` / `request decode`: `Request::Decompress` carrying
//!   the payload as its blob, `Request::{encode, decode}`;
//! - `response encode` / `response decode`: `Response::Decompressed`
//!   carrying the payload as its raw bytes, `Response::{encode, decode}`;
//! - `request+response`: two frames and the four codings above, the
//!   wire work of one data-plane round trip on both ends.
//!
//! The probe calls only public items that predate it, so the same file
//! runs against older checkouts for a before/after comparison.

use qoz_suite::serve::protocol::{read_frame, write_frame, MAX_PAYLOAD};
use qoz_suite::serve::{Request, Response};
use qoz_suite::tensor::Scalar;
use std::hint::black_box;
use std::time::Instant;

/// Rounds of each layer; the fastest round is reported.
const DEFAULT_REPS: usize = 21;
/// Payload bytes one timed round covers, so small payloads run enough
/// passes for the clock.
const ROUND_BYTES: usize = 4 << 20;

/// Fastest of `reps` rounds of `passes` calls of `pass`, in ns per call.
fn best_ns(reps: usize, passes: usize, mut pass: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..passes {
                pass();
            }
            t.elapsed().as_nanos() as f64 / passes as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// `len` SplitMix64 bytes from `seed`.
fn payload(len: usize, mut seed: u64) -> Vec<u8> {
    (0..len)
        .map(|_| {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

fn main() {
    let reps = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("REPS must be a positive integer"))
        .unwrap_or(DEFAULT_REPS);
    println!("best of {reps} rounds of ~{} MiB each", ROUND_BYTES >> 20);
    println!("{:<8} {:<18} {:>10}", "payload", "layer", "ns/byte");
    for (label, len) in [("4 KiB", 4 << 10), ("64 KiB", 64 << 10), ("1 MiB", 1 << 20)] {
        let bytes = payload(len, len as u64);
        let passes = (ROUND_BYTES / len).max(1);

        let req = Request::Decompress {
            budget_ms: 0,
            blob: bytes.clone(),
        };
        let mut wire = Vec::with_capacity(len + 64);
        let frame = best_ns(reps, passes, || {
            wire.clear();
            write_frame(&mut wire, req.kind(), black_box(&bytes)).expect("memory takes writes");
            let (_, back) = read_frame(&mut wire.as_slice(), MAX_PAYLOAD).expect("sound frame");
            black_box(back);
        });

        let req_bytes = req.encode();
        let req_encode = best_ns(reps, passes, || {
            black_box(black_box(&req).encode());
        });
        let req_decode = best_ns(reps, passes, || {
            black_box(Request::decode(req.kind(), black_box(&req_bytes)).expect("sound request"));
        });

        let resp = Response::Decompressed {
            scalar_tag: <f32 as Scalar>::TYPE_TAG,
            dims: vec![len / 4],
            raw: bytes.clone(),
        };
        let resp_bytes = resp.encode();
        let resp_encode = best_ns(reps, passes, || {
            black_box(black_box(&resp).encode());
        });
        let resp_decode = best_ns(reps, passes, || {
            black_box(
                Response::decode(resp.kind(), black_box(&resp_bytes)).expect("sound response"),
            );
        });

        let total = 2.0 * frame + req_encode + req_decode + resp_encode + resp_decode;
        for (layer, ns) in [
            ("frame write+read", frame),
            ("request encode", req_encode),
            ("request decode", req_decode),
            ("response encode", resp_encode),
            ("response decode", resp_decode),
            ("request+response", total),
        ] {
            println!("{label:<8} {layer:<18} {:>10.4}", ns / len as f64);
        }
    }
}

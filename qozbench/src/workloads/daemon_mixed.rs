//! `daemon-mixed`: the serving path.
//!
//! An in-process `qoz_serve::Server` (default config: 2 workers, queue
//! 32) on a Unix socket, its archive root holding a Miranda QZAR. One
//! client runs a closed loop of seeded requests, in blocks of ten: four
//! `compress` (one for each of 4 names, each name stepping through an
//! 8-snapshot checkpoint series), four `decompress` (streams made at
//! set-up) and two `region_read`. The data are in the seed's
//! [`Variant`]. Writes and reads share the workers, so speeding one
//! kind at the other's cost shows. A second client would keep both
//! workers busy but, on a 2-core machine, doubled the run-to-run spread
//! without adding queue wait (each client found its own idle worker).

use super::{
    check_bound, closed_loop, guarded, hash_bytes, hash_values, layer_metrics, repeat_setup,
    report_failure, Config, OpRecord, Outcome, Rng, Variant,
};
use crate::trace;
use crate::workloads::region_reads::{write_archive, Archive};
use qoz_api::{BackendRegistry, Pipeline, Session};
use qoz_archive::{ArchiveReader, FileSource};
use qoz_codec::{ErrorBound, Scratch};
use qoz_serve::{Client, ClientConfig, Server, ServerConfig};
use qoz_tensor::{NdArray, Region, Shape};
use std::collections::HashMap;
use std::time::Instant;

const NAME: &str = "daemon-mixed";
const BOUND: ErrorBound = ErrorBound::Rel(1e-3);
const NAMES: [&str; 4] = ["rho", "vel", "temp", "pres"];
const SNAPSHOTS: usize = 8;
const KINDS: [&str; 3] = ["compress", "decompress", "region_read"];
/// One block of the request mix (see [`schedule`]).
const BLOCK: [Kind; 10] = {
    use Kind::*;
    [C, C, C, C, D, D, D, D, R, R]
};

#[derive(Debug, Clone, Copy)]
enum Kind {
    C,
    D,
    R,
}

/// Snapshot shape, archive variable shape and chunk side, region size.
fn dims(quick: bool) -> ([usize; 3], [usize; 3], usize, [usize; 3]) {
    if quick {
        ([8, 16, 16], [16, 24, 24], 16, [5, 8, 8])
    } else {
        ([16, 32, 32], [32, 64, 64], 32, [20, 30, 30])
    }
}

/// One request of the schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    /// Compress snapshot `t` of series `name`.
    Compress {
        /// Index into the series names.
        name: usize,
        /// Snapshot index.
        t: usize,
    },
    /// Decompress set-up stream `blob`.
    Decompress {
        /// Index into the set-up streams.
        blob: usize,
    },
    /// Read a region of the archive variable.
    Region {
        /// Region origin.
        origin: [usize; 3],
    },
}

/// The first `blocks` blocks of requests for `seed`. A block's compress
/// requests go one to each series, in a seeded order, and each series
/// steps through its snapshots in order, so every run compresses the
/// same snapshots.
pub fn schedule(seed: u64, blocks: usize, quick: bool) -> Vec<Req> {
    let (_, v, _, region) = dims(quick);
    let mut rng = Rng::new(seed, 0xD0);
    let names: Vec<usize> = (0..NAMES.len()).collect();
    let mut out = Vec::with_capacity(blocks * BLOCK.len());
    for b in 0..blocks {
        let kinds = rng.shuffled_blocks(&BLOCK, 1);
        let mut order = rng.shuffled_blocks(&names, 1).into_iter();
        for kind in kinds {
            out.push(match kind {
                Kind::C => Req::Compress {
                    name: order.next().expect("one compress per series a block"),
                    t: b % SNAPSHOTS,
                },
                Kind::D => Req::Decompress {
                    blob: rng.below(NAMES.len() * SNAPSHOTS),
                },
                Kind::R => Req::Region {
                    origin: std::array::from_fn(|d| rng.below(v[d] - region[d] + 1)),
                },
            });
        }
    }
    out
}

/// Everything the client needs, and the running server.
struct Fixture {
    archive: Archive,
    server: Option<Server>,
    /// `series[name][t]`.
    series: Vec<Vec<NdArray<f32>>>,
    /// Set-up streams and the hash of their decode.
    blobs: Vec<(Vec<u8>, u64)>,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            let _ = s.shutdown();
        }
    }
}

fn setup(cfg: &Config) -> Result<Fixture, String> {
    let (snap, v, side, _) = dims(cfg.quick);
    let archive = write_archive(NAME, cfg.seed, v, None, side)?;
    let mut rng = Rng::new(cfg.seed, 0x5E71E5);
    let [x, y, z] = snap;
    let series: Vec<Vec<NdArray<f32>>> = (0..NAMES.len() as u64)
        .map(|k| {
            let s = Variant::draw(&mut rng).apply(&qoz_datagen::time_series_like(
                Shape::new(&[SNAPSHOTS, x, y, z]),
                0xD0_5E7 + k,
            ));
            (0..SNAPSHOTS)
                .map(|t| {
                    let one = s.extract_region(&Region::new(&[t, 0, 0, 0], &[1, x, y, z]));
                    NdArray::from_vec(Shape::d3(x, y, z), one.into_vec())
                })
                .collect()
        })
        .collect();
    let session = session()?;
    let mut blobs = Vec::new();
    for snap in series.iter().flatten() {
        let blob = session.compress(snap).map_err(|e| e.to_string())?.blob;
        let recon: NdArray<f32> = session.decompress(&blob).map_err(|e| e.to_string())?;
        check_bound(snap, &recon, BOUND.absolute(snap))?;
        blobs.push((blob, hash_values(&recon)));
    }
    let mut config = ServerConfig::new(qoz_serve::Endpoint::Unix(archive.dir.file("d.sock")));
    config.archive_root = Some(archive.dir.0.clone());
    let server = Server::start(config).map_err(|e| format!("server start: {e}"))?;
    Ok(Fixture {
        archive,
        server: Some(server),
        series,
        blobs,
    })
}

fn session() -> Result<Session, String> {
    Session::builder()
        .bound(BOUND)
        .build()
        .map_err(|e| e.to_string())
}

/// The same operations on warm in-process state, for the traced run's
/// daemon-overhead metric.
struct Local {
    pipes: HashMap<usize, Pipeline<f32>>,
    scratch: Scratch<f32>,
    reader: ArchiveReader<FileSource>,
}

/// What the client's compress responses added up to.
#[derive(Default)]
struct Measured {
    raw: usize,
    stored: usize,
    psnr_sum: f64,
    compressed: usize,
}

/// Run the client's closed loop for `seconds` (ending on a block
/// boundary); returns the compress totals, the operations and the
/// window's wall time. Compress responses are checked against the bound
/// once per distinct stream; `checked` keeps their PSNR by stream hash.
fn client_loop(
    fx: &Fixture,
    cfg: &Config,
    seconds: f64,
    checked: &mut HashMap<u64, f64>,
    mut local: Option<&mut Local>,
) -> Result<(Measured, Vec<OpRecord>, f64), String> {
    let (_, _, _, region_size) = dims(cfg.quick);
    let server = fx
        .server
        .as_ref()
        .expect("server runs until the fixture drops");
    // No retries: a shed or failed request counts as failed.
    let mut client = Client::with_config(ClientConfig {
        max_retries: 0,
        ..ClientConfig::new(server.endpoint())
    });
    let reqs = schedule(cfg.seed, 1000, cfg.quick);
    let session = session()?;
    let full = fx.archive.full("v");
    let mut out = Measured::default();
    let (ops, wall_s) = closed_loop(seconds, BLOCK.len(), |i| {
        let req = &reqs[i % reqs.len()];
        let res = guarded(|| {
            let t0 = Instant::now();
            match req {
                Req::Compress { name, t } => {
                    let snap = &fx.series[*name][*t];
                    let (outcome, blob) = client
                        .compress(NAMES[*name], snap, BOUND, 0)
                        .map_err(|e| e.to_string())?;
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    let psnr = match checked.get(&hash_bytes(&blob)) {
                        Some(&p) => p,
                        None => {
                            let recon: NdArray<f32> =
                                session.decompress(&blob).map_err(|e| e.to_string())?;
                            check_bound(snap, &recon, BOUND.absolute(snap))?;
                            let p = qoz_metrics::psnr(snap, &recon);
                            checked.insert(hash_bytes(&blob), p);
                            p
                        }
                    };
                    out.raw += snap.len() * 4;
                    out.stored += blob.len();
                    out.psnr_sum += psnr;
                    out.compressed += 1;
                    if let Some(l) = local.as_deref_mut() {
                        trace::count("core.plans", 1.0);
                        if matches!(outcome, 2 | 3) {
                            trace::count("core.warm_plans", 1.0);
                        }
                        let pipe = l.pipes.entry(*name).or_insert_with(|| session.pipeline());
                        let t1 = Instant::now();
                        pipe.compress(snap).map_err(|e| e.to_string())?;
                        trace::count("serve.local_ns", t1.elapsed().as_nanos() as f64);
                    }
                    Ok((ms, snap.len() * 4))
                }
                Req::Decompress { blob } => {
                    let (bytes, want) = &fx.blobs[*blob];
                    let got: NdArray<f32> =
                        client.decompress(bytes, 0).map_err(|e| e.to_string())?;
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    if hash_values(&got) != *want {
                        return Err("decoded values differ from the local decode".into());
                    }
                    if let Some(l) = local.as_deref_mut() {
                        let mut dst = NdArray::zeros(got.shape());
                        let t1 = Instant::now();
                        BackendRegistry::new()
                            .decompress_into(bytes, &mut l.scratch, &mut dst)
                            .map_err(|e| e.to_string())?;
                        trace::count("serve.local_ns", t1.elapsed().as_nanos() as f64);
                    }
                    Ok((ms, got.len() * 4))
                }
                Req::Region { origin } => {
                    let (slab, faults) = client
                        .region_read::<f32>("data.qza", "v", origin, &region_size, false, 0)
                        .map_err(|e| e.to_string())?;
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    let region = Region::new(origin, &region_size);
                    if faults != 0 || slab.as_slice() != full.extract_region(&region).as_slice() {
                        return Err("slab differs from the same region of the full decode".into());
                    }
                    if let Some(l) = local.as_deref_mut() {
                        let t1 = Instant::now();
                        l.reader
                            .read_region_with::<f32>("v", &region, &mut l.scratch)
                            .map_err(|e| e.to_string())?;
                        trace::count("serve.local_ns", t1.elapsed().as_nanos() as f64);
                    }
                    Ok((ms, slab.len() * 4))
                }
            }
        });
        if let Err(err) = &res {
            report_failure(NAME, i, &format!("{req:?}: {err}"));
        }
        let (ms, bytes) = res.as_ref().map_or((0.0, 0), |&x| x);
        if local.is_some() && res.is_ok() {
            trace::count("serve.roundtrip_ns", ms * 1e6);
        }
        OpRecord {
            ms,
            raw_bytes: bytes as u64,
            ok: res.is_ok(),
            ..OpRecord::default()
        }
    });
    Ok((out, ops, wall_s))
}

/// Server-side latency sums (ns) of the data-plane request kinds.
fn service_ns(server: &Server) -> f64 {
    let Some(t) = server.stats().telemetry else {
        return 0.0;
    };
    KINDS
        .iter()
        .filter_map(|k| t.histogram("qoz_request_latency_ns", &[("kind", k)]))
        .map(|h| h.sum as f64)
        .sum()
}

/// Run the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let (fx, setup_s) = repeat_setup(cfg, || setup(cfg))?;
    let server = fx
        .server
        .as_ref()
        .expect("server runs until the fixture drops");
    let mut checked = HashMap::new();
    // Warm-up, unmeasured: every worker pipeline tunes once.
    client_loop(
        &fx,
        cfg,
        if cfg.quick { 0.0 } else { 0.5 },
        &mut checked,
        None,
    )?;
    let mut local = if cfg.trace {
        trace::install();
        Some(Local {
            pipes: HashMap::new(),
            scratch: Scratch::new(),
            reader: ArchiveReader::open(&fx.archive.path).map_err(|e| e.to_string())?,
        })
    } else {
        None
    };
    let service_before = service_ns(server);
    let (m, ops, wall_s) = client_loop(&fx, cfg, cfg.seconds, &mut checked, local.as_mut())?;
    let mut out = Outcome {
        setup_s,
        ops,
        round: BLOCK.len(),
        wall_s,
        compression_ratio: m.raw as f64 / m.stored.max(1) as f64,
        psnr_db: m.psnr_sum / m.compressed.max(1) as f64,
        quality_n: m.compressed,
        ..Outcome::default()
    };
    if cfg.trace {
        trace::count("serve.service_ns", service_ns(server) - service_before);
        let t = trace::take();
        out.layers = layer_metrics(&t, &Default::default());
        out.trace = Some(t);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_mixed_per_block() {
        assert_eq!(schedule(1, 50, false), schedule(1, 50, false));
        assert_ne!(schedule(1, 50, false), schedule(2, 50, false));
        for block in schedule(1, 50, false).chunks(BLOCK.len()) {
            let compress = block
                .iter()
                .filter(|r| matches!(r, Req::Compress { .. }))
                .count();
            let region = block
                .iter()
                .filter(|r| matches!(r, Req::Region { .. }))
                .count();
            assert_eq!((compress, region), (4, 2));
            let mut names: Vec<usize> = block
                .iter()
                .filter_map(|r| match r {
                    Req::Compress { name, .. } => Some(*name),
                    _ => None,
                })
                .collect();
            names.sort_unstable();
            assert_eq!(names, [0, 1, 2, 3], "one compress per series a block");
        }
    }
}

//! Command implementations.
//!
//! Every compression path goes through [`qoz_api::Session`]: the CLI
//! only parses flags, reads raw arrays, and reports what the session
//! did. Streams are written through the session's streaming sink
//! (`compress_into`), not via an intermediate whole-stream buffer.

use crate::args::{Command, USAGE};
use crate::rawio;
use crate::CliError;
use qoz_api::{PlanOutcome, Session, Target};
use qoz_archive::{ArchiveReader, ArchiveWriter};
use qoz_codec::stream::ErrorBound;
use qoz_metrics::QualityReport;
use qoz_tensor::{NdArray, Region, Scalar, Shape};

/// Compress one typed array through `session`, streaming the result to
/// `output`; returns the report line.
fn compress_one<T: Scalar>(
    session: &Session,
    data: &NdArray<T>,
    input: &str,
    output: &str,
) -> Result<String, CliError> {
    let raw_bytes = data.len() * T::BYTES;
    match session.target() {
        Target::Bound(_) => {
            let stats = write_atomically(output, |sink| Ok(session.compress_into(data, sink)?))?;
            Ok(format!(
                "{input} -> {output}: {} -> {} bytes (CR {:.2}x)",
                stats.raw_bytes,
                stats.compressed_bytes,
                stats.ratio()
            ))
        }
        target => {
            // Quality-first: the search produces the blob plus the bound
            // and metric it settled on — report all of it.
            let out = session.compress(data)?;
            write_atomically(output, |sink| {
                std::io::Write::write_all(sink, &out.blob)?;
                Ok(())
            })?;
            let (label, unit) = match target {
                Target::Psnr(_) => ("PSNR", " dB"),
                Target::Ssim(_) => ("SSIM", ""),
                _ => ("CR", "x"),
            };
            Ok(format!(
                "{input} -> {output}: {} -> {} bytes (CR {:.2}x, {label} {:.2}{unit} \
                 at rel bound {:.3e})",
                raw_bytes,
                out.blob.len(),
                out.stats.ratio(),
                out.achieved.unwrap_or(f64::NAN),
                out.rel_bound.unwrap_or(f64::NAN),
            ))
        }
    }
}

/// Compress a time series of same-shape raw files through one reused
/// pipeline (cached tuning plan + scratch arena), one `<name>.qz` per
/// input under `outdir`; returns per-snapshot report lines plus a
/// warm/cold summary. With `temporal`, each snapshot is delta-coded
/// against the prior reconstruction (auto keyframe fallback) and the
/// report tags every stream keyframe/delta/fallback.
fn compress_series<T: Scalar>(
    session: &Session,
    inputs: &[String],
    outdir: &str,
    shape: Shape,
    temporal: bool,
) -> Result<Vec<String>, CliError> {
    // Outputs are named by input basename; two inputs sharing one would
    // silently overwrite each other — reject that up front.
    let names: Vec<String> = inputs
        .iter()
        .map(|input| {
            std::path::Path::new(input)
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| input.clone())
        })
        .collect();
    for (i, name) in names.iter().enumerate() {
        if names[..i].contains(name) {
            return Err(CliError::usage(format!(
                "series inputs collide on output name '{name}.qz' \
                 (outputs are named by input file name)"
            )));
        }
    }
    std::fs::create_dir_all(outdir)
        .map_err(|e| CliError::runtime(format!("cannot create {outdir}: {e}")))?;
    let mut pipe = session.pipeline::<T>();
    let mut lines = Vec::with_capacity(inputs.len() + 1);
    for (input, name) in inputs.iter().zip(&names) {
        let data: NdArray<T> = rawio::read_raw(input, shape)?;
        let (out, tag) = if temporal {
            let (outcome, out) = pipe.compress_next(&data)?;
            (out, outcome.name())
        } else {
            let out = pipe.compress(&data)?;
            let tag = match pipe.last_outcome() {
                Some(PlanOutcome::ColdTuned) => "cold tune",
                Some(PlanOutcome::WarmHit) => "warm",
                Some(PlanOutcome::WarmRescaled) => "warm, rescaled",
                Some(PlanOutcome::Retuned) => "retuned",
                None => "untracked",
            };
            (out, tag)
        };
        let output = format!("{outdir}/{name}.qz");
        write_atomically(&output, |sink| {
            std::io::Write::write_all(sink, &out.blob)?;
            Ok(())
        })?;
        lines.push(format!(
            "{input} -> {output}: {} -> {} bytes (CR {:.2}x, {tag})",
            out.stats.raw_bytes,
            out.stats.compressed_bytes,
            out.stats.ratio()
        ));
    }
    let s = pipe.stats();
    if temporal {
        lines.push(format!(
            "series: {} snapshots, {} keyframes + {} deltas ({} estimator fallbacks)",
            inputs.len(),
            s.chain_keyframes + s.chain_fallbacks,
            s.chain_deltas,
            s.chain_fallbacks
        ));
    } else {
        lines.push(format!(
            "series: {} snapshots, {} warm, {} tuned ({} cold + {} drift retunes)",
            inputs.len(),
            s.warm(),
            s.cold_tunes + s.retunes,
            s.cold_tunes,
            s.retunes
        ));
    }
    Ok(lines)
}

/// Decode every stream in `indir` (natural order) into raw files under
/// `outdir`, resolving `--temporal` delta chains: each delta stream is
/// applied on top of the previous snapshot's reconstruction; keyframes
/// and plain streams restart the chain.
fn decompress_series(indir: &str, outdir: &str) -> Result<Vec<String>, CliError> {
    let files = crate::args::expand_dir(indir)?;
    std::fs::create_dir_all(outdir)
        .map_err(|e| CliError::runtime(format!("cannot create {outdir}: {e}")))?;
    // Scalar width comes from the first stream's header; the chain
    // decoder rejects members whose shape/type breaks the chain.
    let first = rawio::read_bytes(&files[0])?;
    if qoz_api::peek_header(&first)?.scalar_tag == f64::TYPE_TAG {
        decompress_series_typed::<f64>(&files, outdir)
    } else {
        decompress_series_typed::<f32>(&files, outdir)
    }
}

fn decompress_series_typed<T: Scalar>(
    files: &[String],
    outdir: &str,
) -> Result<Vec<String>, CliError> {
    let registry = qoz_api::BackendRegistry::new();
    let mut chain = qoz_temporal::TemporalSession::<T>::new();
    let mut lines = Vec::with_capacity(files.len());
    for input in files {
        let blob = rawio::read_bytes(input)?;
        let recon = chain.decompress_next(&blob, |inner| registry.decompress(inner))?;
        let name = std::path::Path::new(input)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| input.clone());
        let name = name.strip_suffix(".qz").unwrap_or(&name).to_string();
        let output = format!("{outdir}/{name}");
        write_atomically(&output, |sink| rawio::write_raw_into(sink, recon))?;
        lines.push(format!("{input} -> {output}"));
    }
    Ok(lines)
}

/// Map a daemon client failure onto the CLI's exit-code taxonomy, so
/// `qoz remote …` against a damaged stream exits 3 exactly like the
/// local commands would.
fn remote_err(e: qoz_serve::ClientError) -> CliError {
    use qoz_serve::ErrorCode;
    match e {
        qoz_serve::ClientError::Server { code, message } => match code {
            ErrorCode::CorruptInput => CliError::corrupt(message),
            ErrorCode::NewerFormat => CliError::newer_format(message),
            ErrorCode::BadRequest => CliError::usage(message),
            other => CliError::runtime(format!("server answered {other:?}: {message}")),
        },
        other => CliError::runtime(format!("remote call failed: {other}")),
    }
}

fn parse_endpoint(s: &str) -> Result<qoz_serve::Endpoint, CliError> {
    qoz_serve::Endpoint::parse(s).map_err(CliError::usage)
}

/// Plan-outcome byte from the wire, phrased like the local series
/// report.
fn outcome_tag(outcome: u8) -> &'static str {
    match outcome {
        1 => "cold tune",
        2 => "warm",
        3 => "warm, rescaled",
        4 => "retuned",
        _ => "untracked",
    }
}

/// Stream into a sibling temp file and rename over `output` on success,
/// so a mid-write failure never truncates an existing output.
fn write_atomically<R>(
    output: &str,
    write: impl FnOnce(&mut dyn std::io::Write) -> Result<R, CliError>,
) -> Result<R, CliError> {
    // Pid-unique temp name: concurrent writers to the same output must
    // not share (and interleave into) one temp file.
    let tmp = format!("{output}.{}.qztmp", std::process::id());
    let attempt = || -> Result<R, CliError> {
        let file = std::fs::File::create(&tmp)
            .map_err(|e| CliError::runtime(format!("cannot create {tmp}: {e}")))?;
        let mut sink = std::io::BufWriter::new(file);
        let result = write(&mut sink)?;
        std::io::Write::flush(&mut sink)?;
        std::fs::rename(&tmp, output)
            .map_err(|e| CliError::runtime(format!("cannot write {output}: {e}")))?;
        Ok(result)
    };
    match attempt() {
        Ok(result) => Ok(result),
        Err(e) => {
            std::fs::remove_file(&tmp).ok();
            Err(e)
        }
    }
}

/// Execute a parsed command; returns lines of stdout output.
pub fn run(cmd: Command) -> Result<Vec<String>, CliError> {
    match cmd {
        Command::Help => Ok(vec![USAGE.to_string()]),
        Command::Compress {
            inputs,
            output,
            dims,
            wide,
            target,
            codec,
            metric,
            temporal,
        } => {
            let shape = Shape::new(&dims);
            // Only force a tuning metric when the user asked for one;
            // otherwise the builder infers it from the target.
            let mut builder = Session::builder().backend(codec).target(target);
            if let Some(metric) = metric {
                builder = builder.metric(metric);
            }
            let session = builder.build()?;
            if inputs.len() > 1 || temporal {
                // Series mode: one pipeline, `output` is a directory.
                // `--temporal` always takes this path — even a one-file
                // series — so chained and plain outputs land the same way.
                return if wide {
                    compress_series::<f64>(&session, &inputs, &output, shape, temporal)
                } else {
                    compress_series::<f32>(&session, &inputs, &output, shape, temporal)
                };
            }
            let input = &inputs[0];
            let line = if wide {
                let data: NdArray<f64> = rawio::read_raw(input, shape)?;
                compress_one(&session, &data, input, &output)?
            } else {
                let data: NdArray<f32> = rawio::read_raw(input, shape)?;
                compress_one(&session, &data, input, &output)?
            };
            Ok(vec![line])
        }
        Command::Decompress { input, output } => {
            if std::path::Path::new(&input).is_dir() {
                // Series mode: decode the directory in natural order,
                // resolving temporal delta chains.
                return decompress_series(&input, &output);
            }
            let blob = rawio::read_bytes(&input)?;
            let header = qoz_api::peek_header(&blob)?;
            let registry = qoz_api::BackendRegistry::new();
            // Temp-file + rename, like compress: a decode that dies
            // mid-write must never leave a truncated output behind.
            if header.scalar_tag == f64::TYPE_TAG {
                let data: NdArray<f64> = registry.decompress(&blob)?;
                write_atomically(&output, |sink| rawio::write_raw_into(sink, &data))?;
            } else {
                let data: NdArray<f32> = registry.decompress(&blob)?;
                write_atomically(&output, |sink| rawio::write_raw_into(sink, &data))?;
            }
            Ok(vec![format!("{input} -> {output}")])
        }
        Command::Archive {
            input,
            output,
            dims,
            wide,
            relative,
            bound,
            codec,
            name,
            chunk,
        } => {
            let shape = Shape::new(&dims);
            let bound = if relative {
                ErrorBound::Rel(bound)
            } else {
                ErrorBound::Abs(bound)
            };
            let session = Session::builder().backend(codec).bound(bound).build()?;
            let mut w = ArchiveWriter::new().with_chunk_side(chunk);
            let (raw_bytes, chunks) = if wide {
                let data: NdArray<f64> = rawio::read_raw(&input, shape)?;
                w.add_variable(&name, &data, &*session.codec::<f64>(), bound)?;
                (data.len() * 8, w.toc().vars[0].chunks.len())
            } else {
                let data: NdArray<f32> = rawio::read_raw(&input, shape)?;
                w.add_variable(&name, &data, &*session.codec::<f32>(), bound)?;
                (data.len() * 4, w.toc().vars[0].chunks.len())
            };
            let written = w.write_to(&output)?;
            Ok(vec![format!(
                "{input} -> {output}: {raw_bytes} -> {written} bytes \
                 (CR {:.2}x, {chunks} chunks of side {chunk})",
                raw_bytes as f64 / written as f64
            )])
        }
        Command::Extract {
            input,
            output,
            var,
            origin,
            size,
        } => {
            let r = ArchiveReader::open(&input)?;
            let name = match var {
                Some(v) => v,
                None => {
                    let first = r
                        .toc()
                        .vars
                        .first()
                        .ok_or_else(|| CliError::runtime("archive holds no variables"))?;
                    first.name.clone()
                }
            };
            let meta = r.toc().var(&name)?.clone();
            let region = match (&origin, &size) {
                (Some(o), Some(s)) => {
                    if o.len() != s.len() {
                        return Err(CliError::usage("--origin and --size rank mismatch"));
                    }
                    Region::new(o, s)
                }
                _ => Region::full(meta.shape),
            };
            if meta.scalar_tag == f64::TYPE_TAG {
                let data: NdArray<f64> = r.read_region(&name, &region)?;
                write_atomically(&output, |sink| rawio::write_raw_into(sink, &data))?;
            } else {
                let data: NdArray<f32> = r.read_region(&name, &region)?;
                write_atomically(&output, |sink| rawio::write_raw_into(sink, &data))?;
            }
            Ok(vec![format!(
                "{input}[{name}] {:?}+{:?} -> {output} ({} of {} archive bytes read)",
                region.origin(),
                region.size(),
                r.bytes_read(),
                r.archive_len()
            )])
        }
        Command::Inspect { input, verify } => {
            let r = ArchiveReader::open(&input)?;
            let mut out = vec![
                format!("archive       : {input}"),
                format!("size          : {} bytes", r.archive_len()),
                format!("variables     : {}", r.toc().vars.len()),
            ];
            for line in qoz_archive::reader::describe(r.toc()) {
                out.push(format!("  {line}"));
            }
            if verify {
                let report = r.verify()?;
                if report.is_clean() {
                    out.push(format!(
                        "verify        : OK — {} chunks across {} variables, {} payload bytes",
                        report.chunks, report.vars, report.payload_bytes
                    ));
                } else {
                    // Emit the full damage map in the error, and fail
                    // with the corrupt exit code so supervisors can tell
                    // "archive damaged" from plain I/O trouble.
                    let mut msg = format!(
                        "archive {input} failed verification: {} of {} chunks damaged",
                        report.faults.len(),
                        report.chunks
                    );
                    for f in &report.faults {
                        msg.push_str(&format!(
                            "\n  var '{}' chunk {}: {}",
                            f.var,
                            f.chunk,
                            match f.kind {
                                qoz_archive::FaultKind::Truncated => "truncated",
                                qoz_archive::FaultKind::BitFlip => "checksum mismatch",
                            }
                        ));
                    }
                    return Err(CliError::corrupt(msg));
                }
            }
            Ok(out)
        }
        Command::Info { input } => {
            let blob = rawio::read_bytes(&input)?;
            let h = qoz_api::peek_header(&blob)?;
            Ok(vec![
                format!("compressor    : {}", h.compressor.name()),
                format!(
                    "scalar type   : {}",
                    if h.scalar_tag == f64::TYPE_TAG {
                        "f64"
                    } else {
                        "f32"
                    }
                ),
                format!("dimensions    : {:?}", h.shape.dims()),
                format!("points        : {}", h.shape.len()),
                format!("abs bound     : {:.6e}", h.abs_eb),
                format!("stream size   : {} bytes", blob.len()),
                format!(
                    "ratio         : {:.2}x",
                    (h.shape.len() * if h.scalar_tag == f64::TYPE_TAG { 8 } else { 4 }) as f64
                        / blob.len() as f64
                ),
            ])
        }
        Command::Eval {
            original,
            recon,
            dims,
            wide,
        } => {
            let shape = Shape::new(&dims);
            let report = if wide {
                let a: NdArray<f64> = rawio::read_raw(&original, shape)?;
                let b: NdArray<f64> = rawio::read_raw(&recon, shape)?;
                QualityReport::new(&a, &b)
            } else {
                let a: NdArray<f32> = rawio::read_raw(&original, shape)?;
                let b: NdArray<f32> = rawio::read_raw(&recon, shape)?;
                QualityReport::new(&a, &b)
            };
            Ok(vec![report.to_string()])
        }
        Command::Serve {
            listen,
            workers,
            queue,
            budget_ms,
            plan_file,
            archive_root,
        } => {
            let mut config = qoz_serve::ServerConfig::new(parse_endpoint(&listen)?);
            if let Some(n) = workers {
                config.workers = n;
            }
            if let Some(n) = queue {
                config.queue_depth = n;
            }
            if let Some(ms) = budget_ms {
                config.default_budget = std::time::Duration::from_millis(ms);
            }
            config.plan_path = plan_file.map(Into::into);
            config.archive_root = archive_root.map(Into::into);
            let server = qoz_serve::Server::start(config)
                .map_err(|e| CliError::runtime(format!("cannot start daemon: {e}")))?;
            // The listening line goes to stderr *now*; the stdout lines
            // this function returns only print after the drain.
            eprintln!("qoz serve: listening on {}", server.endpoint());
            qoz_serve::signals::install();
            loop {
                if qoz_serve::signals::stop_requested() {
                    server.begin_shutdown();
                }
                if server.is_draining() {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            let stats = server.stats();
            // The Prometheus-style dump at drain, for post-mortem
            // scraping.
            let exposition = server.metrics_text();
            let persisted = server
                .shutdown()
                .map_err(|e| CliError::runtime(format!("failed to persist plans: {e}")))?;
            let mut lines: Vec<String> = exposition.lines().map(str::to_string).collect();
            lines.push(format!(
                "serve: stopped cleanly; {persisted} tuned plan(s) persisted \
                 (served {}, shed {}, deadline-missed {}, panics {}, bad frames {})",
                stats.served,
                stats.shed,
                stats.deadline_missed,
                stats.worker_panics,
                stats.bad_frames
            ));
            Ok(lines)
        }
        Command::RemoteCompress {
            server,
            input,
            output,
            dims,
            wide,
            relative,
            bound,
            name,
            budget_ms,
        } => {
            let shape = Shape::new(&dims);
            let bound = if relative {
                ErrorBound::Rel(bound)
            } else {
                ErrorBound::Abs(bound)
            };
            let mut client = qoz_serve::Client::connect(parse_endpoint(&server)?);
            let (outcome, blob, raw_bytes) = if wide {
                let data: NdArray<f64> = rawio::read_raw(&input, shape)?;
                let (o, b) = client
                    .compress(&name, &data, bound, budget_ms)
                    .map_err(remote_err)?;
                (o, b, data.len() * 8)
            } else {
                let data: NdArray<f32> = rawio::read_raw(&input, shape)?;
                let (o, b) = client
                    .compress(&name, &data, bound, budget_ms)
                    .map_err(remote_err)?;
                (o, b, data.len() * 4)
            };
            write_atomically(&output, |sink| {
                std::io::Write::write_all(sink, &blob)?;
                Ok(())
            })?;
            Ok(vec![format!(
                "{input} -> {output} via {server}: {raw_bytes} -> {} bytes \
                 (CR {:.2}x, {})",
                blob.len(),
                raw_bytes as f64 / blob.len() as f64,
                outcome_tag(outcome)
            )])
        }
        Command::RemoteDecompress {
            server,
            input,
            output,
            budget_ms,
        } => {
            let blob = rawio::read_bytes(&input)?;
            // Scalar width comes from the (local) stream header; the
            // daemon re-validates it against the blob it receives.
            let header = qoz_api::peek_header(&blob)?;
            let mut client = qoz_serve::Client::connect(parse_endpoint(&server)?);
            if header.scalar_tag == f64::TYPE_TAG {
                let data: NdArray<f64> = client.decompress(&blob, budget_ms).map_err(remote_err)?;
                write_atomically(&output, |sink| rawio::write_raw_into(sink, &data))?;
            } else {
                let data: NdArray<f32> = client.decompress(&blob, budget_ms).map_err(remote_err)?;
                write_atomically(&output, |sink| rawio::write_raw_into(sink, &data))?;
            }
            Ok(vec![format!("{input} -> {output} via {server}")])
        }
        Command::RemoteStats { server, text } => {
            let mut client = qoz_serve::Client::connect(parse_endpoint(&server)?);
            let stats = client.stats().map_err(remote_err)?;
            if text {
                let snap = stats.telemetry.ok_or_else(|| {
                    CliError::runtime("server sent no telemetry extension (daemon predates --text)")
                })?;
                Ok(snap.render_text().lines().map(str::to_string).collect())
            } else {
                Ok(vec![format!(
                    "{server}: served {} | shed {} | deadline-missed {} | panics {} \
                     | bad frames {} | warm {} | cold {} | drain-rejects {}",
                    stats.served,
                    stats.shed,
                    stats.deadline_missed,
                    stats.worker_panics,
                    stats.bad_frames,
                    stats.warm_hits,
                    stats.cold_tunes,
                    stats.shutdown_rejects
                )])
            }
        }
        Command::Gen {
            dataset,
            size,
            output,
        } => {
            use qoz_datagen::{Dataset, SizeClass};
            let size = match size.to_ascii_lowercase().as_str() {
                "tiny" => SizeClass::Tiny,
                "small" => SizeClass::Small,
                "medium" => SizeClass::Medium,
                other => return Err(CliError::usage(format!("unknown size '{other}'"))),
            };
            // The `ts*` names emit a 4-snapshot evolving series (a time
            // axis prepended to the Miranda-like base shape), written
            // time-major so the file splits into per-snapshot chunks for
            // `compress --temporal`.
            let series_shape = |size: SizeClass| {
                let b = Dataset::Miranda.shape(size);
                Shape::new(&[4, b.dim(0), b.dim(1), b.dim(2)])
            };
            let (label, data) = match dataset.to_ascii_lowercase().as_str() {
                "ts" | "timeseries" => (
                    "TS",
                    qoz_datagen::time_series_like(series_shape(size), 0x51C0_FFEE),
                ),
                "ts-advect" => (
                    "TS-advect",
                    qoz_datagen::time_series_advect(series_shape(size), 0x51C0_FFEE),
                ),
                other => {
                    let ds = match other {
                        "cesm" | "cesm-atm" => Dataset::CesmAtm,
                        "miranda" => Dataset::Miranda,
                        "rtm" => Dataset::Rtm,
                        "nyx" => Dataset::Nyx,
                        "hurricane" => Dataset::Hurricane,
                        "letkf" | "scale-letkf" => Dataset::ScaleLetkf,
                        other => return Err(CliError::usage(format!("unknown dataset '{other}'"))),
                    };
                    (ds.name(), ds.generate(size, 0))
                }
            };
            rawio::write_raw(&output, &data)?;
            Ok(vec![format!(
                "{} {:?} -> {output} ({} bytes)",
                label,
                data.shape().dims(),
                data.len() * 4
            )])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("qoz_cli_cmd_{name}_{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn full_cli_pipeline() {
        let raw = tmp("pipe.f32");
        let qz = tmp("pipe.qz");
        let rec = tmp("pipe_rec.f32");

        // gen -> compress -> info -> decompress -> eval
        run(parse(&sv(&["gen", "-D", "cesm", "-s", "tiny", "-o", &raw])).unwrap()).unwrap();
        let out = run(parse(&sv(&[
            "compress", "-i", &raw, "-o", &qz, "-d", "64x128", "-e", "1e-3",
        ]))
        .unwrap())
        .unwrap();
        assert!(out[0].contains("CR"), "{out:?}");

        let info = run(parse(&sv(&["info", "-i", &qz])).unwrap()).unwrap();
        assert!(info.iter().any(|l| l.contains("QoZ")), "{info:?}");
        assert!(info.iter().any(|l| l.contains("[64, 128]")), "{info:?}");

        run(parse(&sv(&["decompress", "-i", &qz, "-o", &rec])).unwrap()).unwrap();
        let eval =
            run(parse(&sv(&["eval", "-i", &raw, "-r", &rec, "-d", "64x128"])).unwrap()).unwrap();
        assert!(eval[0].contains("PSNR"), "{eval:?}");

        for f in [&raw, &qz, &rec] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn all_codecs_through_cli() {
        let raw = tmp("codecs.f32");
        run(parse(&sv(&["gen", "-D", "miranda", "-s", "tiny", "-o", &raw])).unwrap()).unwrap();
        for codec in ["qoz", "sz3", "sz2", "zfp", "mgard"] {
            let qz = tmp(&format!("{codec}.qz"));
            let rec = tmp(&format!("{codec}_rec.f32"));
            run(parse(&sv(&[
                "compress", "-i", &raw, "-o", &qz, "-d", "24x32x32", "-e", "1e-2", "--codec", codec,
            ]))
            .unwrap())
            .unwrap();
            run(parse(&sv(&["decompress", "-i", &qz, "-o", &rec])).unwrap()).unwrap();
            std::fs::remove_file(&qz).ok();
            std::fs::remove_file(&rec).ok();
        }
        std::fs::remove_file(&raw).ok();
    }

    #[test]
    fn quality_target_through_cli() {
        let raw = tmp("target.f32");
        let qz = tmp("target.qz");
        let rec = tmp("target_rec.f32");
        run(parse(&sv(&["gen", "-D", "cesm", "-s", "tiny", "-o", &raw])).unwrap()).unwrap();
        let out = run(parse(&sv(&[
            "compress", "-i", &raw, "-o", &qz, "-d", "64x128", "--target", "psnr:50",
        ]))
        .unwrap())
        .unwrap();
        assert!(
            out[0].contains("PSNR") && out[0].contains("rel bound"),
            "{out:?}"
        );
        run(parse(&sv(&["decompress", "-i", &qz, "-o", &rec])).unwrap()).unwrap();
        let a: NdArray<f32> = rawio::read_raw(&raw, Shape::d2(64, 128)).unwrap();
        let b: NdArray<f32> = rawio::read_raw(&rec, Shape::d2(64, 128)).unwrap();
        assert!(qoz_metrics::psnr(&a, &b) >= 50.0);

        // An out-of-range target parses but is rejected centrally by the
        // session builder, surfacing as a usage error (exit 2).
        let err = run(parse(&sv(&[
            "compress", "-i", &raw, "-o", &qz, "-d", "64x128", "--target", "ssim:1.5",
        ]))
        .unwrap())
        .unwrap_err();
        assert_eq!(err.code, 2, "{err}");
        assert!(err.message.contains("SSIM"), "{err}");

        for f in [&raw, &qz, &rec] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn time_series_compress_reuses_one_pipeline() {
        // Three consecutive snapshots of an evolving 3D field.
        let field = qoz_datagen::time_series_like(qoz_tensor::Shape::new(&[3, 16, 16, 16]), 11);
        let step = 16 * 16 * 16;
        let mut paths = Vec::new();
        for t in 0..3 {
            let p = tmp(&format!("series_{t}.f32"));
            let slab = &field.as_slice()[t * step..(t + 1) * step];
            let bytes: Vec<u8> = slab.iter().flat_map(|v| v.to_le_bytes()).collect();
            std::fs::write(&p, bytes).unwrap();
            paths.push(p);
        }
        let outdir = tmp("series_out");
        let out = run(parse(&sv(&[
            "compress",
            "-i",
            &paths.join(","),
            "-o",
            &outdir,
            "-d",
            "16x16x16",
            "-e",
            "1e-3",
        ]))
        .unwrap())
        .unwrap();
        // One line per snapshot plus the summary; the pipeline must have
        // served at least one snapshot warm.
        assert_eq!(out.len(), 4, "{out:?}");
        let summary = out.last().unwrap();
        assert!(summary.contains("3 snapshots"), "{summary}");
        assert!(!summary.contains("0 warm"), "{summary}");

        // Every emitted stream decodes back to its snapshot within bound.
        for (t, p) in paths.iter().enumerate() {
            let name = std::path::Path::new(p)
                .file_name()
                .unwrap()
                .to_string_lossy();
            let qz = format!("{outdir}/{name}.qz");
            let blob = std::fs::read(&qz).unwrap();
            let recon: NdArray<f32> = qoz_api::BackendRegistry::new().decompress(&blob).unwrap();
            let slab = &field.as_slice()[t * step..(t + 1) * step];
            let orig = NdArray::from_vec(Shape::d3(16, 16, 16), slab.to_vec());
            let abs = ErrorBound::Rel(1e-3).absolute(&orig);
            assert!(
                orig.max_abs_diff(&recon) <= abs * (1.0 + 1e-9),
                "snapshot {t}"
            );
            std::fs::remove_file(&qz).ok();
            std::fs::remove_file(p).ok();
        }
        std::fs::remove_dir_all(&outdir).ok();
    }

    #[test]
    fn temporal_series_roundtrips_through_directories() {
        // Directory of snapshots -> --temporal compress -> directory
        // decompress; every reconstruction honors the bound against its
        // own raw snapshot, and deltas actually get used.
        let field = qoz_datagen::time_series_like(qoz_tensor::Shape::new(&[4, 12, 12, 12]), 77);
        let step = 12 * 12 * 12;
        let indir = tmp("tser_in");
        std::fs::create_dir_all(&indir).unwrap();
        for t in 0..4 {
            let slab = &field.as_slice()[t * step..(t + 1) * step];
            let bytes: Vec<u8> = slab.iter().flat_map(|v| v.to_le_bytes()).collect();
            std::fs::write(format!("{indir}/u{t}.f32"), bytes).unwrap();
        }
        let outdir = tmp("tser_qz");
        let recdir = tmp("tser_rec");
        let out = run(parse(&sv(&[
            "compress",
            "-i",
            &indir,
            "-o",
            &outdir,
            "-d",
            "12x12x12",
            "-e",
            "1e-3",
            "-m",
            "abs",
            "--temporal",
        ]))
        .unwrap())
        .unwrap();
        assert!(out[0].contains("keyframe"), "{out:?}");
        let summary = out.last().unwrap();
        assert!(summary.contains("deltas"), "{summary}");
        assert!(!summary.contains("0 deltas"), "{summary}");

        // A delta stream must refuse to decode standalone…
        let blob = std::fs::read(format!("{outdir}/u1.f32.qz")).unwrap();
        assert!(qoz_api::BackendRegistry::new()
            .decompress::<f32>(&blob)
            .is_err());

        // …but the chain decode serves every snapshot within bound.
        run(parse(&sv(&["decompress", "-i", &outdir, "-o", &recdir])).unwrap()).unwrap();
        for t in 0..4 {
            let recon: NdArray<f32> =
                rawio::read_raw(&format!("{recdir}/u{t}.f32"), Shape::d3(12, 12, 12)).unwrap();
            let slab = &field.as_slice()[t * step..(t + 1) * step];
            let orig = NdArray::from_vec(Shape::d3(12, 12, 12), slab.to_vec());
            assert!(
                orig.max_abs_diff(&recon) <= 1e-3 * (1.0 + 1e-9) + 4.0 * f32::EPSILON as f64,
                "snapshot {t}"
            );
        }
        for d in [&indir, &outdir, &recdir] {
            std::fs::remove_dir_all(d).ok();
        }
    }

    #[test]
    fn series_inputs_with_colliding_names_rejected() {
        // Same basename in two directories would overwrite one output.
        let err = run(Command::Compress {
            inputs: vec!["runA/x.f32".into(), "runB/x.f32".into()],
            output: tmp("collide_out"),
            dims: vec![8, 8],
            wide: false,
            target: Target::Bound(ErrorBound::Rel(1e-3)),
            codec: qoz_api::BackendId::Qoz,
            metric: None,
            temporal: false,
        })
        .unwrap_err();
        assert_eq!(err.code, 2, "{err}");
        assert!(err.message.contains("collide"), "{err}");
    }

    #[test]
    fn lossless_eval_is_perfect() {
        let raw = tmp("eval.f32");
        run(parse(&sv(&["gen", "-D", "nyx", "-s", "tiny", "-o", &raw])).unwrap()).unwrap();
        let eval =
            run(parse(&sv(&["eval", "-i", &raw, "-r", &raw, "-d", "32x32x32"])).unwrap()).unwrap();
        assert!(eval[0].contains("max |error|   : 0"), "{eval:?}");
        std::fs::remove_file(&raw).ok();
    }

    #[test]
    fn bad_dims_rejected_cleanly() {
        let raw = tmp("bad.f32");
        run(parse(&sv(&["gen", "-D", "cesm", "-s", "tiny", "-o", &raw])).unwrap()).unwrap();
        let r = run(parse(&sv(&[
            "compress",
            "-i",
            &raw,
            "-o",
            "/dev/null",
            "-d",
            "10x10",
            "-e",
            "1e-3",
        ]))
        .unwrap());
        assert!(r.is_err(), "size mismatch must be reported");
        std::fs::remove_file(&raw).ok();
    }

    #[test]
    fn help_contains_all_commands() {
        let out = run(Command::Help).unwrap();
        for c in [
            "compress",
            "decompress",
            "info",
            "eval",
            "gen",
            "archive",
            "extract",
            "inspect",
            "serve",
            "remote",
        ] {
            assert!(out[0].contains(c));
        }
    }

    #[test]
    fn remote_round_trip_through_a_foreground_daemon() {
        let sock = tmp("remote.sock");
        let raw = tmp("remote.f32");
        let qz = tmp("remote.qz");
        let rec = tmp("remote_rec.f32");
        run(parse(&sv(&["gen", "-D", "cesm", "-s", "tiny", "-o", &raw])).unwrap()).unwrap();

        // `qoz serve` blocks, so it runs on a thread; a client Shutdown
        // request ends it.
        let serve_cmd = parse(&sv(&["serve", "--listen", &sock])).unwrap();
        let daemon = std::thread::spawn(move || run(serve_cmd));
        let endpoint = qoz_serve::Endpoint::Unix(sock.clone());
        let mut probe = qoz_serve::Client::connect(endpoint.clone());
        probe.ping().expect("daemon comes up");

        let out = run(parse(&sv(&[
            "remote", "compress", "-s", &sock, "-i", &raw, "-o", &qz, "-d", "64x128", "-e", "1e-3",
            "--name", "t",
        ]))
        .unwrap())
        .unwrap();
        assert!(out[0].contains("cold tune"), "{out:?}");

        run(parse(&sv(&[
            "remote",
            "decompress",
            "-s",
            &sock,
            "-i",
            &qz,
            "-o",
            &rec,
        ]))
        .unwrap())
        .unwrap();
        // The remote stream decodes locally too, within bound.
        let orig: NdArray<f32> = rawio::read_raw(&raw, Shape::d2(64, 128)).unwrap();
        let recon: NdArray<f32> = rawio::read_raw(&rec, Shape::d2(64, 128)).unwrap();
        let abs = ErrorBound::Rel(1e-3).absolute(&orig);
        assert!(orig.max_abs_diff(&recon) <= abs * (1.0 + 1e-9));

        // Remote errors land on the CLI exit-code taxonomy: a damaged
        // stream is exit 3 (corrupt), same as the local commands.
        let broken = tmp("remote_broken.qz");
        let mut blob = std::fs::read(&qz).unwrap();
        blob.truncate(blob.len() / 2);
        std::fs::write(&broken, &blob).unwrap();
        let err = run(parse(&sv(&[
            "remote",
            "decompress",
            "-s",
            &sock,
            "-i",
            &broken,
            "-o",
            &rec,
        ]))
        .unwrap())
        .unwrap_err();
        assert_eq!(err.code, 3, "{err}");

        // Live scrape: the legacy summary and the text exposition.
        let out = run(parse(&sv(&["remote", "stats", "-s", &sock])).unwrap()).unwrap();
        assert!(out[0].contains("served"), "{out:?}");
        let text = run(parse(&sv(&["remote", "stats", "-s", &sock, "--text"])).unwrap()).unwrap();
        assert!(
            text.iter()
                .any(|l| l.starts_with("qoz_requests_total{kind=\"compress\"} ")),
            "{text:?}"
        );
        assert!(
            text.iter()
                .any(|l| l.contains("qoz_request_latency_ns_bucket") && l.contains("le=\"+Inf\"")),
            "{text:?}"
        );

        probe.shutdown().unwrap();
        let lines = daemon.join().unwrap().unwrap();
        // Drain output: the Prometheus-style dump, then the summary.
        assert!(
            lines.iter().any(|l| l.starts_with("qoz_responses_total ")),
            "{lines:?}"
        );
        let last = lines.last().unwrap();
        assert!(last.contains("stopped cleanly"), "{lines:?}");
        for f in [&raw, &qz, &rec, &broken] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn archive_pipeline_roundtrip() {
        let raw = tmp("arch.f32");
        let qza = tmp("arch.qza");
        let full = tmp("arch_full.f32");
        let slab = tmp("arch_slab.f32");

        run(parse(&sv(&["gen", "-D", "miranda", "-s", "tiny", "-o", &raw])).unwrap()).unwrap();
        let out = run(parse(&sv(&[
            "archive", "-i", &raw, "-o", &qza, "-d", "24x32x32", "-e", "1e-3", "--name", "v",
            "--chunk", "16",
        ]))
        .unwrap())
        .unwrap();
        assert!(out[0].contains("chunks"), "{out:?}");

        let info = run(parse(&sv(&["inspect", "-i", &qza, "--verify"])).unwrap()).unwrap();
        assert!(info.iter().any(|l| l.contains("v:")), "{info:?}");
        assert!(
            info.iter().any(|l| l.contains("verify        : OK")),
            "{info:?}"
        );

        // Full extraction, then a region; the region must equal the
        // corresponding slice of the full extraction.
        run(parse(&sv(&["extract", "-i", &qza, "-o", &full])).unwrap()).unwrap();
        run(parse(&sv(&[
            "extract", "-i", &qza, "-o", &slab, "--var", "v", "--origin", "4x8x8", "--size",
            "8x8x16",
        ]))
        .unwrap())
        .unwrap();
        let whole: NdArray<f32> = rawio::read_raw(&full, Shape::d3(24, 32, 32)).unwrap();
        let part: NdArray<f32> = rawio::read_raw(&slab, Shape::d3(8, 8, 16)).unwrap();
        let expect = whole.extract_region(&Region::new(&[4, 8, 8], &[8, 8, 16]));
        assert_eq!(part.as_slice(), expect.as_slice());

        // Original data must be within bound of the full extraction.
        let orig: NdArray<f32> = rawio::read_raw(&raw, Shape::d3(24, 32, 32)).unwrap();
        let abs = ErrorBound::Rel(1e-3).absolute(&orig);
        assert!(orig.max_abs_diff(&whole) <= abs * (1.0 + 1e-9));

        for f in [&raw, &qza, &full, &slab] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn inspect_rejects_non_archive() {
        let path = tmp("notqza");
        std::fs::write(&path, b"definitely not an archive").unwrap();
        let r = run(Command::Inspect {
            input: path.clone(),
            verify: false,
        });
        assert!(r.is_err());
        std::fs::remove_file(&path).ok();
    }
}

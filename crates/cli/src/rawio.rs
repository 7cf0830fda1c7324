//! Raw little-endian array file I/O (the SDRBench interchange format).

use crate::CliError;
use qoz_tensor::{NdArray, Scalar, Shape};
use std::io::{Read, Write};

/// Read a raw little-endian array; the file size must match
/// `shape.len() * T::BYTES` exactly.
pub fn read_raw<T: Scalar>(path: &str, shape: Shape) -> Result<NdArray<T>, CliError> {
    let mut f = std::fs::File::open(path)
        .map_err(|e| CliError::runtime(format!("cannot open {path}: {e}")))?;
    let expect = shape.len() * T::BYTES;
    let mut buf = Vec::with_capacity(expect);
    f.read_to_end(&mut buf)?;
    NdArray::from_le_bytes(shape, &buf).ok_or_else(|| {
        CliError::runtime(format!(
            "{path}: file is {} bytes but shape {:?} needs {expect}",
            buf.len(),
            shape.dims()
        ))
    })
}

/// Write a raw little-endian array.
pub fn write_raw<T: Scalar>(path: &str, data: &NdArray<T>) -> Result<(), CliError> {
    let mut f = std::fs::File::create(path)
        .map_err(|e| CliError::runtime(format!("cannot create {path}: {e}")))?;
    write_raw_into(&mut f, data)
}

/// Write a raw little-endian array into any byte sink (the atomic
/// temp-file writers hand their sink here).
pub fn write_raw_into<T: Scalar>(sink: &mut dyn Write, data: &NdArray<T>) -> Result<(), CliError> {
    sink.write_all(&data.to_le_bytes())?;
    Ok(())
}

/// Read a whole file as bytes.
pub fn read_bytes(path: &str) -> Result<Vec<u8>, CliError> {
    std::fs::read(path).map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("qoz_cli_rawio_{name}_{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn raw_roundtrip_f32() {
        let path = tmp("f32");
        let data = NdArray::from_fn(Shape::d2(7, 9), |i| (i[0] * 9 + i[1]) as f32 * 0.5);
        write_raw(&path, &data).unwrap();
        let back: NdArray<f32> = read_raw(&path, data.shape()).unwrap();
        assert_eq!(back.as_slice(), data.as_slice());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn raw_roundtrip_f64() {
        let path = tmp("f64");
        let data = NdArray::from_fn(Shape::d1(100), |i| (i[0] as f64).exp().fract());
        write_raw(&path, &data).unwrap();
        let back: NdArray<f64> = read_raw(&path, data.shape()).unwrap();
        assert_eq!(back.as_slice(), data.as_slice());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn size_mismatch_rejected() {
        let path = tmp("mismatch");
        std::fs::write(&path, vec![0u8; 10]).unwrap();
        let r: Result<NdArray<f32>, _> = read_raw(&path, Shape::d1(4));
        assert!(r.is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_rejected() {
        let r: Result<NdArray<f32>, _> = read_raw("/nonexistent/q.f32", Shape::d1(4));
        assert!(r.is_err());
    }
}

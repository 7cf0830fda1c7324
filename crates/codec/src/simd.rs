//! Kernel-path names kept for the `qozbench` benchmark.
//!
//! The engine has one scalar per-point loop per direction; nothing in
//! the workspace dispatches on these names. `qozbench` (a package of
//! its own, built against these crates) still calls every item below,
//! which is the only reason they stay.

/// The per-point loop the engine runs. Kept because `qozbench` names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPath {
    /// The portable scalar loop, the only one there is.
    Scalar,
}

impl KernelPath {
    /// Stable lowercase name (`qozbench` prints it in its run header).
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
        }
    }
}

/// The kernel path the engine runs: always [`KernelPath::Scalar`].
/// Kept because `qozbench` prints it in its run header.
pub fn selected() -> KernelPath {
    KernelPath::Scalar
}

/// Comma-separated list of the vector feature sets the running CPU
/// advertises. Kept because `qozbench` and `repro bench` record it in
/// their headers, so numbers from different machines can be told apart.
pub fn cpu_features() -> String {
    let mut feats: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        feats.push("sse2");
    }
    #[cfg(target_arch = "aarch64")]
    feats.push("neon");
    if feats.is_empty() {
        feats.push("none");
    }
    feats.join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(selected(), KernelPath::Scalar);
        assert_eq!(KernelPath::Scalar.name(), "scalar");
    }

    #[test]
    fn cpu_features_nonempty() {
        assert!(!cpu_features().is_empty());
    }
}

//! Runtime-dispatched distance backends.
//!
//! The associative scan is popcount-bound: every related hardware study
//! (the paper's D-HAM datapath, arXiv:1807.08583, arXiv:1906.01548) wins
//! by widening the XOR + popcount datapath. On a CPU the widening lever
//! is SIMD, but which instructions exist is a *runtime* property of the
//! host — so the kernel routes every distance through a
//! [`DistanceBackend`] object selected once per process:
//!
//! * selection (`select`) probes the host with `is_x86_feature_detected!` /
//!   `is_aarch64_feature_detected!` and picks the widest available
//!   datapath: AVX-512 `VPOPCNTDQ` ≻ AVX2 nibble-LUT ≻ NEON `CNT` ≻ the
//!   portable scalar carry-save kernel;
//! * the `HAM_KERNEL_BACKEND` environment variable (read once, at first
//!   use) forces any backend by name — `scalar`, `avx2`, `avx512`,
//!   `neon` — for A/B benchmarking and for CI legs that must pin the
//!   portable path. Forcing a backend the host cannot run is a
//!   configuration error and panics with the enabled alternatives.
//!
//! Every backend implements the same *bounded* contract (below), and the
//! proptest suite `tests/backend_equivalence.rs` holds all enabled
//! backends bit-identical to the scalar reference on random shapes.

use std::sync::OnceLock;

/// One XOR + popcount datapath.
///
/// # Contract
///
/// For equal-length word slices `a` and `b` (and `mask`), let `exact` be
/// the number of mismatching bits (restricted to `mask` for the masked
/// variant). An implementation must:
///
/// * return `Some(exact)` whenever `exact <= bound`;
/// * return either `Some(exact)` or `None` when `exact > bound` — `None`
///   means a lower bound on the distance was proven to strictly exceed
///   `bound`, so the caller may abandon the row. Abandonment is an
///   *option*, never an obligation: a backend that always returns
///   `Some(exact)` is correct.
///
/// Callers guarantee equal slice lengths; `bound == usize::MAX` can
/// never abandon (no distance exceeds it).
pub trait DistanceBackend: std::fmt::Debug + Send + Sync {
    /// Short stable name (`"scalar"`, `"avx2"`, `"avx512"`, `"neon"`) —
    /// what `HAM_KERNEL_BACKEND` matches and what telemetry records.
    fn name(&self) -> &'static str;

    /// Exact Hamming distance between `a` and `b`, or `None` once a
    /// lower bound on it strictly exceeds `bound`.
    fn bounded_distance(&self, a: &[u64], b: &[u64], bound: usize) -> Option<usize>;

    /// [`bounded_distance`](Self::bounded_distance) restricted to the
    /// positions set in `mask`.
    fn bounded_distance_masked(
        &self,
        a: &[u64],
        b: &[u64],
        mask: &[u64],
        bound: usize,
    ) -> Option<usize>;
}

/// The backend every kernel entry point dispatches through, selected on
/// first use and fixed for the process lifetime.
///
/// Selection order: `HAM_KERNEL_BACKEND` if set (panicking on an unknown
/// or unavailable name), otherwise the widest datapath the host reports.
pub fn active_backend() -> &'static dyn DistanceBackend {
    static ACTIVE: OnceLock<&'static dyn DistanceBackend> = OnceLock::new();
    *ACTIVE.get_or_init(select)
}

/// The name of the [`active_backend`] — recorded in serving telemetry so
/// a perf report always says which datapath produced it.
pub fn active_backend_name() -> &'static str {
    active_backend().name()
}

/// Every backend the *host* can actually run, scalar first — the set the
/// equivalence suite compares pairwise. Forced selection does not narrow
/// this list; it only changes [`active_backend`].
pub fn enabled_backends() -> Vec<&'static dyn DistanceBackend> {
    let mut backends: Vec<&'static dyn DistanceBackend> = vec![&super::scalar::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        if super::avx2::available() {
            backends.push(&super::avx2::Avx2);
        }
        if super::avx512::available() {
            backends.push(&super::avx512::Avx512);
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if super::neon::available() {
            backends.push(&super::neon::Neon);
        }
    }
    backends
}

/// Resolves a forced backend name against the enabled set.
///
/// Split from [`select`] so name handling is testable without touching
/// the process-global [`active_backend`] cell.
fn resolve(name: &str) -> Result<&'static dyn DistanceBackend, String> {
    let enabled = enabled_backends();
    match enabled.iter().find(|b| b.name() == name) {
        Some(backend) => Ok(*backend),
        None => {
            let known = ["scalar", "avx2", "avx512", "neon"];
            let enabled: Vec<&str> = enabled.iter().map(|b| b.name()).collect();
            if known.contains(&name) {
                Err(format!(
                    "HAM_KERNEL_BACKEND={name} is not available on this host \
                     (enabled: {enabled:?})"
                ))
            } else {
                Err(format!(
                    "unknown HAM_KERNEL_BACKEND={name:?} \
                     (known: {known:?}; enabled here: {enabled:?})"
                ))
            }
        }
    }
}

/// One-time selection: the forced name if any, else the widest detected
/// datapath.
fn select() -> &'static dyn DistanceBackend {
    match std::env::var("HAM_KERNEL_BACKEND") {
        Ok(name) if !name.is_empty() => match resolve(&name) {
            Ok(backend) => backend,
            Err(message) => panic!("{message}"),
        },
        _ => detect(),
    }
}

/// The widest backend the host supports, probed once.
fn detect() -> &'static dyn DistanceBackend {
    // Last (widest) enabled backend wins; `enabled_backends` builds the
    // list in ascending datapath width with scalar always first.
    *enabled_backends().last().expect("scalar is always enabled")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_enabled_and_first() {
        let backends = enabled_backends();
        assert_eq!(backends[0].name(), "scalar");
        assert!(!backends.is_empty());
    }

    #[test]
    fn resolve_finds_every_enabled_backend() {
        for backend in enabled_backends() {
            assert_eq!(resolve(backend.name()).unwrap().name(), backend.name());
        }
    }

    #[test]
    fn resolve_rejects_unknown_names_with_the_known_list() {
        let err = resolve("sse9").unwrap_err();
        assert!(err.contains("unknown"), "{err}");
        assert!(err.contains("scalar"), "{err}");
    }

    #[test]
    fn resolve_distinguishes_unavailable_from_unknown() {
        // At most one of avx512/neon can be missing-but-known everywhere;
        // probe both and only assert when one is actually unavailable.
        for name in ["avx2", "avx512", "neon"] {
            if !enabled_backends().iter().any(|b| b.name() == name) {
                let err = resolve(name).unwrap_err();
                assert!(err.contains("not available"), "{err}");
            }
        }
    }

    #[test]
    fn active_backend_is_enabled() {
        let active = active_backend().name();
        assert!(enabled_backends().iter().any(|b| b.name() == active));
        assert_eq!(active_backend_name(), active);
    }

    #[test]
    fn backends_are_debug_printable() {
        for backend in enabled_backends() {
            assert!(!format!("{backend:?}").is_empty());
        }
    }
}

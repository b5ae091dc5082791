//! Host fingerprint recorded with every result, so figures from different
//! machines are never compared silently.

use std::fmt::Write as _;

/// What a result depends on besides the code.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// CPU brand string.
    pub cpu_model: String,
    /// Widest SIMD extension the CPU reports.
    pub simd: &'static str,
    /// Threads the codec's pool resolves to (`PCC_THREADS`, else cores).
    pub codec_threads: usize,
}

impl Host {
    /// Probes the running machine.
    pub fn detect() -> Self {
        Host {
            cores: pcc_parallel::available().get(),
            cpu_model: cpu_model(),
            simd: simd_level(),
            codec_threads: pcc_parallel::resolve(None).get(),
        }
    }

    /// JSON object fields (no braces).
    pub fn json_fields(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "\"cores\":{},\"cpu_model\":\"{}\",\"simd\":\"{}\",\"codec_threads\":{}",
            self.cores,
            self.cpu_model.replace(['"', '\\'], "_"),
            self.simd,
            self.codec_threads
        );
        s
    }
}

#[cfg(target_arch = "x86_64")]
fn simd_level() -> &'static str {
    if std::arch::is_x86_feature_detected!("avx512f") {
        "avx512f"
    } else if std::arch::is_x86_feature_detected!("avx2") {
        "avx2"
    } else if std::arch::is_x86_feature_detected!("sse4.2") {
        "sse4.2"
    } else {
        "sse2"
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_level() -> &'static str {
    "unknown"
}

/// The CPUID brand string (leaves 0x8000_0002..=0x8000_0004).
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaf 0x8000_0000 reports the highest extended leaf, checked before
    // reading the brand.
    let max = __cpuid(0x8000_0000).eax;
    if max < 0x8000_0004 {
        return "unknown".to_owned();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_owned()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_owned()
}

/// A fixed load that depends on nothing in the program under test: an
/// unstable sort of the same pseudo-random keys every time.
///
/// A shared host's speed flips between a fast and a slow state (a busy
/// neighbour on the same cores), staying in each for tens of milliseconds
/// to seconds, and the share of slow time drifts over minutes; every
/// timing of the program moves with it, the tail latencies most. Timed
/// around every push and drain, the probe samples that speed, and the
/// benchmark reports times as a host would take them that sorts the
/// probe's keys in [`REFERENCE_PROBE_S`]: a frame taken while the probe
/// ran 20 % slow counts 20 % shorter.
pub struct SpeedProbe {
    keys: Vec<u64>,
    scratch: Vec<u64>,
}

/// Keys the probe sorts: 128 KiB, small enough to leave the codec's data
/// in the caches and quick enough (about a quarter of a millisecond) to
/// run between every two frames.
const PROBE_KEYS: usize = 1 << 14;

/// Probe time of the reference host the timing figures are scaled to.
pub const REFERENCE_PROBE_S: f64 = 0.25e-3;

impl SpeedProbe {
    /// The probe's keys, the same on every host and run, sorted once so
    /// the first timed sort finds its memory mapped.
    pub fn new() -> Self {
        let mut z = 0x2545_F491_4F6C_DD1Du64;
        let keys = (0..PROBE_KEYS)
            .map(|_| {
                z ^= z << 13;
                z ^= z >> 7;
                z ^= z << 17;
                z
            })
            .collect();
        let mut probe = SpeedProbe {
            keys,
            scratch: vec![0; PROBE_KEYS],
        };
        probe.time_once();
        probe
    }

    /// Runs `step`, then the probe. Returns the step's result and its
    /// seconds as measured and at the reference speed: divided by the
    /// slowness of the mean of the probe before it (`last`) and the one
    /// after it, which becomes `last`.
    pub fn time_step<T>(&mut self, last: &mut f64, step: impl FnOnce() -> T) -> (T, f64, f64) {
        let start = std::time::Instant::now();
        let out = step();
        let took = start.elapsed().as_secs_f64();
        let after = self.time_once();
        let scaled = took / slowness((*last + after) / 2.0);
        *last = after;
        (out, took, scaled)
    }

    /// Seconds one sort takes now.
    pub fn time_once(&mut self) -> f64 {
        self.scratch.copy_from_slice(&self.keys);
        let start = std::time::Instant::now();
        self.scratch.sort_unstable();
        let s = start.elapsed().as_secs_f64();
        std::hint::black_box(&self.scratch);
        s
    }
}

/// How much slower than the reference host the host ran while the probe
/// took `probe_s`: divide a time by it, multiply a rate by it.
pub fn slowness(probe_s: f64) -> f64 {
    probe_s / REFERENCE_PROBE_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_sorts_the_same_keys_every_time_and_slowness_is_relative() {
        let mut a = SpeedProbe::new();
        let b = SpeedProbe::new();
        assert_eq!(a.keys, b.keys);
        assert!(a.time_once() > 0.0);
        assert!(a.scratch.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(slowness(REFERENCE_PROBE_S), 1.0);
        assert_eq!(slowness(2.0 * REFERENCE_PROBE_S), 2.0);
    }
}

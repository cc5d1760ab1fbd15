//! Small helpers: order statistics, seeded mixing, host facts.

/// Median of `values` (mean of the middle two for an even count); NaN
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quantile `q` in (0, 1), estimated as the mean of the order statistics
/// between the `q - h` and `q + h` quantiles, `h = min(5 %, (1 - q) / 2)`.
/// Averaging about a tenth of the sample around the target rank (at
/// least the ten slowest requests around p99 of 1000) is far less
/// sensitive to gaps in a sparse sample than a single order statistic.
/// NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let n = v.len() as f64;
    let h = 0.05f64.min((1.0 - q) / 2.0);
    let lo = (((q - h) * n).floor() as usize).min(v.len() - 1);
    let hi = (((q + h) * n).ceil() as usize).clamp(lo + 1, v.len());
    mean(&v[lo..hi])
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// SplitMix64 finaliser: a well-mixed 64-bit value from any input.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A seeded generator for the benchmark's own inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(mix64(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Repetitions of the host-speed probe's task; a probe reads the fastest.
const PROBE_REPS: u64 = 8;
/// The host-speed probe's time at the reference host speed. On a shared
/// host the simulator's speed drifts by a third and more within
/// minutes, far past any useful bound, and the probe slows with it. So
/// CPU-bound timings are rescaled by this over the probes taken around
/// them: they read as host time at the speed where the probe takes
/// 15 us (about the quiet level of the baseline host, see METRICS.md).
/// The constant is fixed, so a change to the program moves them in full.
const REFERENCE_PROBE_S: f64 = 15e-6;

/// Host-speed probe: the fastest of a few runs of a small fixed task of
/// the benchmark's own (ordered-map inserts and short vectors, about
/// 15 us), in seconds. On a shared host the same code runs at two or
/// more speed levels, switching within seconds, and this task slows
/// with the simulator: its time over `REFERENCE_PROBE_S` estimates how
/// much slower than the reference the host is at that moment.
pub fn host_probe() -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..PROBE_REPS {
        let started = std::time::Instant::now();
        {
            let mut map = std::collections::BTreeMap::new();
            let mut vecs: Vec<Vec<u64>> = Vec::new();
            for i in 0..120 {
                let x = mix64(rep ^ i);
                map.insert(x, i);
                vecs.push((0..x % 24).map(|j| x ^ j).collect());
            }
            let sum: u64 = vecs.iter().flatten().fold(0, |a, &b| a.wrapping_add(b));
            std::hint::black_box((sum, map.len()));
        }
        best = best.min(started.elapsed().as_secs_f64());
    }
    best
}

/// Factor that rescales a timing to the reference host speed, from the
/// probes taken just before and just after it.
pub fn speed_scale(probe_before: f64, probe_after: f64) -> f64 {
    REFERENCE_PROBE_S * 2.0 / (probe_before + probe_after)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Whether one more pass, as long as the slowest so far, still ends
/// within `seconds` of `started`.
pub fn another_fits(
    started: std::time::Instant,
    pass_secs: impl Iterator<Item = f64>,
    seconds: f64,
) -> bool {
    let longest = pass_secs.fold(0.0, f64::max);
    started.elapsed().as_secs_f64() + longest <= seconds
}

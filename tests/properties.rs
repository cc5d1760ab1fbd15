//! Cross-crate randomized property tests on the invariants the
//! methodology relies on. Cases are generated with the in-tree
//! [`gsim_rng`] PRNG; the `ext-tests` feature multiplies the case count
//! for heavier offline soak runs.

use gpu_scale_model::core::{
    percent_error, LinearRegression, LogRegression, PowerLawRegression, Proportional,
    ScaleModelInputs, ScaleModelPredictor, ScalingPredictor, SizedMrc,
};
use gpu_scale_model::mem::mrc::{DistanceEngine, NaiveStack, TreeStack};
use gpu_scale_model::mem::{Cache, CacheGeometry};
use gpu_scale_model::sim::{GpuConfig, Simulator};
use gpu_scale_model::trace::{Kernel, MemScale, PatternKind, PatternSpec, Workload};
use gsim_rng::Rng64;

/// Per-property case count; `--features ext-tests` multiplies it 8x.
fn cases(default: usize) -> usize {
    if cfg!(feature = "ext-tests") {
        default * 8
    } else {
        default
    }
}

fn f64_in(rng: &mut Rng64, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

fn vec_u64(rng: &mut Rng64, max_value: u64, min_len: u64, max_len: u64) -> Vec<u64> {
    let len = rng.gen_range(min_len, max_len);
    (0..len).map(|_| rng.gen_range(0, max_value)).collect()
}

/// The tree-accelerated stack-distance engine is exactly equivalent to
/// the naive Mattson stack on arbitrary traces.
#[test]
fn tree_stack_equals_naive_stack() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0001);
    for _ in 0..cases(64) {
        let trace = vec_u64(&mut rng, 200, 1, 400);
        let caps = vec_u64(&mut rng, 300, 1, 8);
        let mut tree = TreeStack::with_capacity(16); // force compactions
        let mut naive = NaiveStack::new();
        tree.record_all(trace.iter().copied());
        naive.record_all(trace.iter().copied());
        let (ht, hn) = (tree.finish(), naive.finish());
        for c in caps {
            assert_eq!(ht.misses_at(c), hn.misses_at(c));
        }
    }
}

/// Misses are monotonically non-increasing in cache capacity.
#[test]
fn stack_distance_misses_are_monotone() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0002);
    for _ in 0..cases(64) {
        let trace = vec_u64(&mut rng, 500, 1, 500);
        let mut e = TreeStack::new();
        e.record_all(trace.iter().copied());
        let h = e.finish();
        let mut prev = f64::INFINITY;
        for c in [0u64, 1, 2, 4, 8, 16, 64, 256, 1024] {
            let m = h.misses_at(c);
            assert!(m <= prev);
            prev = m;
        }
    }
}

/// An LRU cache at least as large as the number of distinct lines takes
/// only cold misses.
#[test]
fn cache_with_capacity_for_everything_only_misses_cold() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0003);
    for _ in 0..cases(64) {
        let trace = vec_u64(&mut rng, 64, 1, 300);
        let distinct = trace.iter().collect::<std::collections::HashSet<_>>().len() as u64;
        let mut cache = Cache::new(CacheGeometry::from_sets(1, 64, 128));
        for &l in &trace {
            cache.access(l, false);
        }
        assert_eq!(cache.misses(), distinct);
    }
}

/// Proportional prediction and power-law prediction coincide when the
/// scale models scale exactly ideally.
#[test]
fn power_law_reduces_to_proportional_on_ideal_scaling() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0004);
    for _ in 0..cases(64) {
        let ipc = f64_in(&mut rng, 1.0, 10_000.0);
        let target = [32u32, 64, 128][rng.gen_range(0, 3) as usize];
        let prop_m = Proportional::fit(8, ipc, 16, 2.0 * ipc).unwrap();
        let power = PowerLawRegression::fit(8, ipc, 16, 2.0 * ipc).unwrap();
        let t = f64::from(target);
        assert!((prop_m.predict(t) - power.predict(t)).abs() / prop_m.predict(t) < 1e-9);
    }
}

/// With C = 1 and no cliff, the scale-model prediction equals
/// proportional scaling for any doubling target.
#[test]
fn scale_model_with_ideal_correction_is_proportional() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0005);
    for _ in 0..cases(64) {
        let ipc = f64_in(&mut rng, 1.0, 10_000.0);
        let steps = rng.gen_range(1, 4) as u32;
        let p = ScaleModelPredictor::new(ScaleModelInputs::new(8, ipc, 16, 2.0 * ipc)).unwrap();
        let target = 16u32 << steps;
        let expected = 2.0 * ipc * f64::from(target) / 16.0;
        assert!((p.predict(f64::from(target)) - expected).abs() < 1e-6);
    }
}

/// All two-point fits interpolate their own observations.
#[test]
fn fits_pass_through_observations() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0006);
    for _ in 0..cases(64) {
        let ipc_s = f64_in(&mut rng, 1.0, 1_000.0);
        let ratio = f64_in(&mut rng, 1.05, 2.5);
        let ipc_l = ipc_s * ratio;
        let lin = LinearRegression::fit(8, ipc_s, 16, ipc_l).unwrap();
        let pow = PowerLawRegression::fit(8, ipc_s, 16, ipc_l).unwrap();
        assert!((lin.predict(8.0) - ipc_s).abs() < 1e-6);
        assert!((lin.predict(16.0) - ipc_l).abs() < 1e-6);
        assert!((pow.predict(8.0) - ipc_s).abs() / ipc_s < 1e-9);
        assert!((pow.predict(16.0) - ipc_l).abs() / ipc_l < 1e-9);
        // Log regression is a one-parameter least-squares fit: it need not
        // interpolate, but it must stay between a half and the double of
        // the observations at those points.
        let log = LogRegression::fit(8, ipc_s, 16, ipc_l).unwrap();
        assert!(log.predict(8.0) > 0.25 * ipc_s && log.predict(8.0) < 2.0 * ipc_s);
    }
}

/// Percent error is symmetric in magnitude around the measurement and
/// zero only for exact predictions.
#[test]
fn percent_error_properties() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0007);
    for _ in 0..cases(64) {
        let real = f64_in(&mut rng, 0.001, 1e6);
        let delta = f64_in(&mut rng, 0.0, 2.0);
        assert_eq!(percent_error(real, real), 0.0);
        let e_hi = percent_error(real * (1.0 + delta), real);
        assert!((e_hi - delta * 100.0).abs() < 1e-6);
    }
}

/// A cliff is detected iff some doubling drops MPKI by more than 2x
/// (above the noise floor).
#[test]
fn cliff_detection_matches_definition() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0008);
    for _ in 0..cases(64) {
        let mpki: Vec<f64> = (0..5).map(|_| f64_in(&mut rng, 0.2, 20.0)).collect();
        let sizes = [8u32, 16, 32, 64, 128];
        let mrc = SizedMrc::new(sizes.iter().copied().zip(mpki.iter().copied()));
        let manual = mpki.windows(2).any(|w| w[1] < w[0] / 2.0);
        assert_eq!(gpu_scale_model::core::detect_cliff(&mrc).is_some(), manual);
    }
}

/// The simulator is deterministic: identical runs give identical
/// statistics (modulo wall-clock time).
#[test]
fn simulator_is_deterministic() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0009);
    // Timing simulations are slower; fewer cases.
    for _ in 0..cases(8) {
        let seed = rng.gen_range(0, 1000);
        let ctas = rng.gen_range(24, 96) as u32;
        let spec = PatternSpec::new(PatternKind::PointerChase, 2_000)
            .mem_ops_per_warp(16)
            .compute_per_mem(1.0);
        let wl = Workload::new("prop", seed, vec![Kernel::new("k", ctas, 256, spec)]);
        let cfg = GpuConfig::paper_target(8, MemScale::new(32));
        let a = Simulator::new(cfg.clone(), &wl).run();
        let b = Simulator::new(cfg, &wl).run();
        a.assert_deterministic_eq(&b);
    }
}

/// Every issued instruction is accounted: IPC x cycles equals the
/// instruction total, and stall + issue accounting covers all SM-cycles.
#[test]
fn instruction_and_cycle_accounting_is_exact() {
    let mut rng = Rng64::seed_from_u64(0x5eed_000a);
    for _ in 0..cases(8) {
        let seed = rng.gen_range(0, 1000);
        let spec =
            PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, 4_096).compute_per_mem(2.0);
        let wl = Workload::new("acct", seed, vec![Kernel::new("k", 48, 256, spec)]);
        let cfg = GpuConfig::paper_target(8, MemScale::new(32));
        let st = Simulator::new(cfg, &wl).run();
        assert_eq!(st.warp_instrs, wl.approx_warp_instrs());
        assert_eq!(st.thread_instrs, st.warp_instrs * 32);
        assert_eq!(st.total_sm_cycles, st.cycles * 8);
        assert!(st.mem_stall_sm_cycles + st.idle_sm_cycles <= st.total_sm_cycles);
    }
}

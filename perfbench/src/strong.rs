//! Workload `strong_suite`: the paper's Figure 4a pipeline, serial and
//! in-process, at the default 1/8 memory scale.
//!
//! Why: this is where the simulator spends its time. For each of the 21
//! suite benchmarks a pass runs `Simulator::run` at 8/16/32/64/128 SMs,
//! `collect_replay` over those five configs, then `Fit::new` on the
//! 8/16-SM observations and `forecast` at 32/64/128. Every engine change
//! shows here, and the serve layer is never touched. The 128-SM sims are
//! the ground truth the scale-model error is scored against.
//!
//! Inputs come in the variants `reference.json` covers (seeds 0-10):
//! `--seed` selects variant `seed` if the reference holds it, else
//! variant `seed mod count`, so every sim of every run is checked
//! against a committed digest. Variant 0 keeps the suite's own workload
//! seeds; any other variant rebuilds each workload with a seed derived
//! from (variant, name): held-out inputs of the same shape.

use std::time::Instant;

use gsim_core::plan::{collect_replay, Fit};
use gsim_core::{percent_error, Observation};
use gsim_sim::{GpuConfig, SimStats, Simulator};
use gsim_trace::suite::strong_suite;
use gsim_trace::{MemScale, Workload};

use crate::reference::{digest, Reference};
use crate::trace::{SpanId, Tracer};
use crate::util::{
    another_fits, fnv1a, host_probe, mean, median, mix64, peak_rss_mb, quantile, speed_scale,
};
use crate::{Args, Report};

/// The simulated size ladder; the first two are the scale models.
pub const SIZES: [u32; 5] = [8, 16, 32, 64, 128];
/// Forecast targets.
pub const TARGETS: [u32; 3] = [32, 64, 128];
/// Set-ups timed before each benchmark's pipeline (1995 a pass). One
/// set-up takes tens of microseconds and its cost flips between two
/// levels about a third apart with host state, within a run and between
/// runs. So the samples are spread over the whole run, each chunk is
/// rescaled to the reference host speed (`speed_scale`), and `setup_s`
/// is their 10th percentile, the cost on a quiet host.
const SETUP_CHUNK: usize = 95;

pub struct Bench {
    pub abbr: &'static str,
    pub workload: Workload,
}

/// The suite's workloads for input variant `seed` (see the module
/// docs). Every variant rebuilds each workload, so set-up does the same
/// work for all of them.
pub fn suite(seed: u64) -> Vec<Bench> {
    strong_suite(MemScale::default())
        .into_iter()
        .map(|b| {
            let w = b.workload;
            let workload_seed = if seed == 0 {
                w.seed()
            } else {
                mix64(seed ^ fnv1a(w.name().as_bytes()))
            };
            Bench {
                abbr: b.abbr,
                workload: Workload::new(w.name(), workload_seed, w.kernels().to_vec()),
            }
        })
        .collect()
}

/// The suite's benchmark abbreviations, in suite order.
pub fn abbrs() -> Vec<&'static str> {
    strong_suite(MemScale::default())
        .iter()
        .map(|b| b.abbr)
        .collect()
}

fn configs() -> Vec<GpuConfig> {
    SIZES
        .iter()
        .map(|&s| GpuConfig::paper_target(s, MemScale::default()))
        .collect()
}

/// One benchmark's pipeline outcome.
struct Outcome {
    stats: Vec<SimStats>,
    /// Host seconds of each stage: the sims in `SIZES` order, then
    /// `collect_replay`, then fit and forecast.
    stage_secs: Vec<f64>,
    /// Host-speed probes (`host_probe`) taken before each stage and
    /// after the last: stage `i` ran between probes `i` and `i + 1`.
    probes: Vec<f64>,
    /// Scale-model forecast at 128 SMs, or why there is none.
    forecast_128: Result<f64, String>,
}

fn pipeline(b: &Bench, cfgs: &[GpuConfig], tracer: &Tracer, parent: SpanId, idx: u64) -> Outcome {
    let span = tracer.open("perfbench.benchmark", parent, Some(idx));
    let mut stats = Vec::with_capacity(cfgs.len());
    let mut stage_secs = Vec::with_capacity(cfgs.len() + 2);
    let mut probes = vec![host_probe()];
    for cfg in cfgs {
        let sim = tracer.open("gsim-sim.run", span, Some(idx));
        let started = Instant::now();
        let s = Simulator::new(cfg.clone(), &b.workload).run();
        stage_secs.push(started.elapsed().as_secs_f64());
        tracer.close(
            sim,
            &[
                ("sms", f64::from(cfg.n_sms)),
                ("cycles", s.cycles as f64),
                ("warp_instrs", s.warp_instrs as f64),
                ("l1_misses", s.l1_misses as f64),
                ("llc_accesses", s.llc_accesses as f64),
                ("llc_misses", s.llc_misses as f64),
                ("dram_bytes", s.dram_bytes as f64),
                ("mem_stall_sm_cycles", s.mem_stall_sm_cycles as f64),
                ("idle_sm_cycles", s.idle_sm_cycles as f64),
                ("total_sm_cycles", s.total_sm_cycles as f64),
            ],
        );
        stats.push(s);
        probes.push(host_probe());
    }
    let collect = tracer.open("gsim-core.plan.collect_replay", span, Some(idx));
    let started = Instant::now();
    let collected = collect_replay(&b.workload, cfgs);
    stage_secs.push(started.elapsed().as_secs_f64());
    tracer.close(
        collect,
        &[("line_accesses", collected.stats.line_accesses as f64)],
    );
    probes.push(host_probe());
    let fit = tracer.open("gsim-core.plan.fit_forecast", span, Some(idx));
    let started = Instant::now();
    let small = Observation {
        size: SIZES[0],
        ipc: stats[0].sustained_ipc(),
        f_mem: 0.0,
    };
    let large = Observation {
        size: SIZES[1],
        ipc: stats[1].sustained_ipc(),
        f_mem: stats[1].f_mem(),
    };
    let forecast = Fit::new(small, large, Some(&collected.sized_mrc()))
        .and_then(|f| f.forecast(&TARGETS))
        .map_err(|e| e.to_string());
    stage_secs.push(started.elapsed().as_secs_f64());
    tracer.close(fit, &[]);
    probes.push(host_probe());
    tracer.close(span, &[]);
    let forecast_128 = forecast.and_then(|f| {
        f.targets
            .iter()
            .find(|t| t.target == 128)
            .and_then(|t| t.method("scale-model"))
            .filter(|ipc| ipc.is_finite() && *ipc > 0.0)
            .ok_or_else(|| "no finite positive scale-model forecast at 128 SMs".to_string())
    });
    Outcome {
        stats,
        stage_secs,
        probes,
        forecast_128,
    }
}

impl Outcome {
    /// Each stage's host seconds rescaled to the reference host speed
    /// by the probes just before and just after it.
    fn scaled_secs(&self) -> impl Iterator<Item = f64> + '_ {
        self.stage_secs
            .iter()
            .zip(self.probes.windows(2))
            .map(|(secs, around)| secs * speed_scale(around[0], around[1]))
    }
}

struct Pass {
    /// Host seconds, the sum of the pass's pipelines.
    wall_s: f64,
    outcomes: Vec<Outcome>,
}

impl Pass {
    /// The pass's stage time at the reference host speed.
    fn scaled_wall_s(&self) -> f64 {
        self.outcomes.iter().flat_map(Outcome::scaled_secs).sum()
    }
}

/// Times set-ups of one input variant: generating the suite's workloads
/// and the configs, as a run does before its first pass.
struct Setup {
    variant: u64,
    reps: usize,
    secs: Vec<f64>,
}

impl Setup {
    fn sample(&mut self, tracer: &Tracer) {
        let before = host_probe();
        let mut chunk = Vec::with_capacity(self.reps);
        for _ in 0..self.reps {
            let span = tracer.open("gsim-trace.generate", SpanId::NONE, None);
            let started = Instant::now();
            let built = (suite(self.variant), configs());
            chunk.push(started.elapsed().as_secs_f64());
            tracer.close(span, &[]);
            drop(built);
        }
        let scale = speed_scale(before, host_probe());
        self.secs.extend(chunk.iter().map(|s| s * scale));
    }
}

/// Runs every benchmark's pipeline once per tracing state in `modes`
/// and returns one pass per state; a pass's `wall_s` is the sum of its
/// pipelines. Set-ups are timed before each benchmark. With two states
/// (a traced run: `[false, true]`) each benchmark runs untraced and
/// traced back to back, alternating which goes first, so host drift
/// (consecutive whole passes differ by up to 13 %) cancels out of
/// `trace_overhead_pct`.
fn run_passes(
    suite: &[Bench],
    cfgs: &[GpuConfig],
    tracer: &Tracer,
    setup: &mut Setup,
    modes: &[bool],
) -> Vec<Pass> {
    let mut passes: Vec<Pass> = modes
        .iter()
        .map(|_| Pass {
            wall_s: 0.0,
            outcomes: Vec::new(),
        })
        .collect();
    for (i, b) in suite.iter().enumerate() {
        tracer.set_on(modes.contains(&true));
        setup.sample(tracer);
        for k in 0..modes.len() {
            let k = if i % 2 == 0 { k } else { modes.len() - 1 - k };
            tracer.set_on(modes[k]);
            let started = Instant::now();
            let outcome = pipeline(b, cfgs, tracer, SpanId::NONE, i as u64);
            passes[k].wall_s += started.elapsed().as_secs_f64();
            passes[k].outcomes.push(outcome);
        }
    }
    tracer.set_on(false);
    passes
}

/// Checks that hold for any seed: the workload is the same at every
/// size, so instruction, CTA and kernel counts must agree across sizes.
fn invariant_violation(stats: &[SimStats]) -> Option<String> {
    let first = &stats[0];
    for (s, &sms) in stats.iter().zip(&SIZES) {
        if s.cycles == 0 || s.thread_instrs != s.warp_instrs * 32 {
            return Some(format!(
                "{sms} SMs: cycle or instruction count inconsistent"
            ));
        }
        if s.total_sm_cycles != s.cycles * u64::from(sms) {
            return Some(format!("{sms} SMs: total_sm_cycles != cycles x SMs"));
        }
        if (s.warp_instrs, s.ctas_executed, s.kernels_executed)
            != (
                first.warp_instrs,
                first.ctas_executed,
                first.kernels_executed,
            )
        {
            return Some(format!("{sms} SMs: work differs from the 8-SM run"));
        }
    }
    None
}

/// Checks every sim of every pass against the digests of `variant`;
/// returns the number that failed.
fn check_passes(passes: &[Pass], suite: &[Bench], variant: u64, reference: &Reference) -> u64 {
    let mut failed = 0;
    for (p, pass) in passes.iter().enumerate() {
        for (b, o) in suite.iter().zip(&pass.outcomes) {
            let want = reference.digests.get(&(variant, b.abbr.to_string()));
            for (i, s) in o.stats.iter().enumerate() {
                let d = digest(s);
                if want.map(|w| w[i]) != Some(d) {
                    eprintln!(
                        "perfbench: pass {p} {} at {} SMs: SimStats digest {d:016x} differs",
                        b.abbr, SIZES[i]
                    );
                    failed += 1;
                }
            }
            if let Some(why) = invariant_violation(&o.stats) {
                eprintln!("perfbench: pass {p} {}: {why}", b.abbr);
                failed += o.stats.len() as u64;
            }
            if let Err(why) = &o.forecast_128 {
                eprintln!("perfbench: pass {p} {}: {why}", b.abbr);
                failed += 1;
            }
        }
    }
    failed
}

/// Scale-model error at 128 SMs against the real 128-SM sim, per
/// benchmark.
fn errors(pass: &Pass) -> Vec<f64> {
    pass.outcomes
        .iter()
        .filter_map(|o| {
            let real = o.stats[SIZES.len() - 1].sustained_ipc();
            o.forecast_128
                .as_ref()
                .ok()
                .map(|&p| percent_error(p, real))
        })
        .collect()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let reference = Reference::load()?;
    let variant = reference.variant(args.seed)?;
    let tracer = Tracer::new(false);
    let (suite, cfgs) = (suite(variant), configs());
    let mut setup = Setup {
        variant,
        reps: SETUP_CHUNK,
        secs: Vec::new(),
    };
    let passes = if args.trace {
        run_passes(&suite, &cfgs, &tracer, &mut setup, &[false, true])
    } else {
        let started = Instant::now();
        let mut passes = run_passes(&suite, &cfgs, &tracer, &mut setup, &[false]);
        while another_fits(started, passes.iter().map(|p| p.wall_s), args.seconds) {
            passes.extend(run_passes(&suite, &cfgs, &tracer, &mut setup, &[false]));
        }
        passes
    };
    let failed = check_passes(&passes, &suite, variant, &reference);
    let attempted = passes
        .iter()
        .map(|p| {
            p.outcomes
                .iter()
                .map(|o| o.stats.len() as u64 + 1)
                .sum::<u64>()
        })
        .sum();
    let errs = errors(&passes[0]);
    let consistent = passes.iter().all(|p| errors(p) == errs);
    if !consistent {
        eprintln!("perfbench: passes disagree on the scale-model errors");
    }
    let correct = failed == 0 && consistent && errs.len() == suite.len();

    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| metrics.push((name.to_string(), v));
    if args.trace {
        let untraced = passes[0].scaled_wall_s();
        let traced = passes[1].scaled_wall_s();
        put("trace_overhead_pct", (traced - untraced) / untraced * 100.0);
        layer_metrics(&tracer, &suite, &mut put);
        tracer.write("strong_suite", args.seed)?;
    } else {
        let probes: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.outcomes.iter().flat_map(|o| o.probes.iter().copied()))
            .collect();
        let sim_ms: Vec<f64> = passes
            .iter()
            .flat_map(|p| {
                p.outcomes
                    .iter()
                    .flat_map(|o| o.scaled_secs().take(SIZES.len()))
            })
            .map(|s| s * 1e3)
            .collect();
        let walls: Vec<f64> = passes.iter().map(Pass::scaled_wall_s).collect();
        put("setup_s", quantile(&setup.secs, 0.10));
        put("peak_rss_mb", peak_rss_mb().ok_or("cannot read VmHWM")?);
        put("wall_s", median(&walls));
        put("p50_ms", quantile(&sim_ms, 0.50));
        put("tail_ms", quantile(&sim_ms, 0.90));
        put("scale_model_err_avg_pct", mean(&errs));
        put(
            "scale_model_err_max_pct",
            errs.iter().copied().fold(f64::NAN, f64::max),
        );
        eprintln!(
            "perfbench: strong_suite seed {} (variant {variant}): {} pass(es), {} sims, \
             {:.2} host s a pass, probe median {:.2} us",
            args.seed,
            passes.len(),
            sim_ms.len(),
            median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
            median(&probes) * 1e6
        );
    }
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
        missing: Vec::new(),
    })
}

/// Per-layer metrics from the traced pass's spans.
fn layer_metrics(tracer: &Tracer, suite: &[Bench], put: &mut impl FnMut(&str, f64)) {
    let spans = tracer.finished();
    let named = |n: &'static str| spans.iter().filter(move |s| s.name == n);
    let generate: Vec<f64> = named("gsim-trace.generate").map(|s| s.secs).collect();
    put("gsim-trace.generate_s", median(&generate));
    let sims: Vec<_> = named("gsim-sim.run").collect();
    let sum = |f: &dyn Fn(&crate::trace::SpanView) -> f64| sims.iter().map(|s| f(s)).sum::<f64>();
    let run_s = sum(&|s| s.secs);
    put("gsim-sim.run_s", run_s);
    for sms in SIZES {
        let n = f64::from(sms);
        put(
            &format!("gsim-sim.sm{sms}.run_s"),
            sum(&|s| if s.counter("sms") == n { s.secs } else { 0.0 }),
        );
    }
    for (i, b) in suite.iter().enumerate() {
        let mine: Vec<_> = sims
            .iter()
            .filter(|s| s.request == Some(i as u64))
            .collect();
        put(
            &format!("gsim-sim.{}.run_s", b.abbr),
            mine.iter().map(|s| s.secs).sum(),
        );
        let stalled: f64 = mine
            .iter()
            .map(|s| s.counter("mem_stall_sm_cycles") + s.counter("idle_sm_cycles"))
            .sum();
        let total: f64 = mine.iter().map(|s| s.counter("total_sm_cycles")).sum();
        put(
            &format!("gsim-sim.{}.stalled_sm_cycle_frac", b.abbr),
            stalled / total,
        );
    }
    let total_sm_cycles = sum(&|s| s.counter("total_sm_cycles"));
    put(
        "gsim-sim.minstr_per_s",
        sum(&|s| s.counter("warp_instrs")) / run_s / 1e6,
    );
    put("gsim-sim.ns_per_sm_cycle", run_s * 1e9 / total_sm_cycles);
    put(
        "gsim-sim.stalled_sm_cycle_frac",
        sum(&|s| s.counter("mem_stall_sm_cycles") + s.counter("idle_sm_cycles")) / total_sm_cycles,
    );
    for count in [
        "cycles",
        "warp_instrs",
        "l1_misses",
        "llc_accesses",
        "llc_misses",
        "mem_stall_sm_cycles",
        "idle_sm_cycles",
        "dram_bytes",
    ] {
        put(&format!("gsim-sim.{count}"), sum(&|s| s.counter(count)));
    }
    put(
        "gsim-core.plan.collect_replay_s",
        named("gsim-core.plan.collect_replay").map(|s| s.secs).sum(),
    );
    put(
        "gsim-core.plan.replay_line_accesses",
        named("gsim-core.plan.collect_replay")
            .map(|s| s.counter("line_accesses"))
            .sum(),
    );
    put(
        "gsim-core.plan.fit_forecast_us",
        named("gsim-core.plan.fit_forecast")
            .map(|s| s.secs)
            .sum::<f64>()
            * 1e6,
    );
    for (layer, t) in tracer.layer_times() {
        put(&format!("{layer}.self_s"), t.self_s);
    }
}

/// `--write-reference`: runs one pass per seed and rewrites the committed
/// reference with those seeds' digests (and seed 0's target IPCs).
pub fn write_reference(seeds: &[u64]) -> Result<(), String> {
    let mut reference = Reference::default();
    let cfgs = configs();
    for &seed in seeds {
        let suite = suite(seed);
        let mut setup = Setup {
            variant: seed,
            reps: 0,
            secs: Vec::new(),
        };
        let pass = run_passes(&suite, &cfgs, &Tracer::new(false), &mut setup, &[false]).remove(0);
        for (b, o) in suite.iter().zip(&pass.outcomes) {
            if let Some(why) = invariant_violation(&o.stats) {
                return Err(format!("seed {seed} {}: {why}", b.abbr));
            }
            reference.digests.insert(
                (seed, b.abbr.to_string()),
                o.stats.iter().map(digest).collect(),
            );
            if seed == 0 {
                let ipcs = o.stats[SIZES.len() - TARGETS.len()..]
                    .iter()
                    .map(SimStats::sustained_ipc)
                    .collect();
                reference.target_ipc.insert(b.abbr.to_string(), ipcs);
            }
        }
        let errs = errors(&pass);
        eprintln!(
            "perfbench: seed {seed}: pass {:.1} s, scale-model error avg {:.2} % max {:.2} %",
            pass.wall_s,
            mean(&errs),
            errs.iter().copied().fold(f64::NAN, f64::max)
        );
    }
    if reference.target_ipc.is_empty() {
        return Err("the reference needs seed 0 (its target IPCs score served answers)".into());
    }
    reference.save()
}

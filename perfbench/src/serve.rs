//! Workloads `serve_cold` and `serve_hot`: an in-process gsim-serve with
//! the `gsim serve` defaults and an empty cache directory, driven over
//! loopback HTTP with one fresh connection per request.
//!
//! `serve_cold` — why: this is the predict latency users see. One
//! closed-loop client (an architect waiting on each answer) first asks
//! for the 21 named suite workloads, then for seeded inline patterns,
//! each with a unique seed so it misses the result cache and the stage
//! caches alike. The patterns span every pattern kind, footprints below
//! and above the 128-SM LLC, and memory- and compute-bound intensities,
//! so both gate outcomes occur. Each pass starts a fresh service. The
//! work is in sampled MRC collection (fast path) and the 8/16-SM sims
//! (full path), never in 32-128-SM sims.
//!
//! `serve_hot` — why: it uses the serve layer for reads rather than
//! computes, and shows costs that nothing else measures, such as the
//! accept loop's polling. Set-up warms the service with the 21 named
//! workloads x 4 target lists (84 cache entries). An open loop of at
//! most `nproc` sender threads then plays a seeded Poisson arrival
//! schedule at one fixed rate: about 90 % repeat predicts (cache hits)
//! and 10 % catalog and metrics reads. Latency is timed from each
//! request's due time.

use std::collections::{BTreeMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::reference::Reference;
use crate::strong::abbrs;
use crate::trace::{SpanId, Tracer};
use crate::util::{
    another_fits, host_probe, mean, median, nproc, peak_rss_mb, quantile, speed_scale, Rng,
};
use crate::{Args, Report, OUT_DIR};
use gsim_json::Json;
use gsim_serve::{
    Handler, PredictService, Request, ServeConfig, Server, ServerConfig, ShutdownFlag,
};

/// Header carrying the benchmark's request id, so the server-side span
/// of a request joins its client-side span.
const REQUEST_ID_HEADER: &str = "x-perfbench-request";
/// Service start-ups before each `serve_cold` pass; `setup_s` is their
/// median over the run. A start-up ends when the service has answered
/// `GET /healthz`. One takes well under a millisecond and its cost
/// drifts with host load, so the samples are many, spread over the
/// whole run instead of taken at its start, and each pass's samples
/// are rescaled to the reference host speed (`speed_scale`).
const COLD_STARTUPS_PER_PASS: usize = 25;
/// Patterns per `serve_cold` pass: 5 kinds x 2 footprints x 2 intensities.
const PATTERN_REPS: usize = 2;
/// Warm-ups per `serve_hot` run; `setup_s` is their median.
const HOT_SETUP_REPS: usize = 3;
/// Closed-loop sweeps over the 84 warm entries; `wall_s` is their median.
const HOT_SWEEPS: usize = 3;
/// Offered rate of the open loop, requests per second: low enough that
/// two sender threads keep up with the accept loop's polling.
const HOT_RATE: f64 = 40.0;
/// Target lists of the warm set (x 21 workloads = 84 cache entries).
const HOT_TARGET_LISTS: [&str; 4] = ["[32,64,128]", "[128]", "[64,128]", "[32,64]"];

static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// A running in-process service.
struct Service {
    addr: SocketAddr,
    shutdown: ShutdownFlag,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    dir: PathBuf,
}

impl Service {
    /// Starts a service whose cache directory `dir` is emptied first.
    /// The handler records a `gsim-serve.handle` span per request when
    /// tracing is on.
    fn start(dir: PathBuf, tracer: &Arc<Tracer>) -> Result<Self, String> {
        let err = |e: std::io::Error| format!("{}: {e}", dir.display());
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(err)?;
        }
        std::fs::create_dir_all(&dir).map_err(err)?;
        let shutdown = ShutdownFlag::new();
        let service = PredictService::new(
            ServeConfig {
                cache_dir: Some(dir.clone()),
                ..ServeConfig::default()
            },
            shutdown.clone(),
        )
        .map_err(err)?;
        let server = Server::bind("127.0.0.1:0", ServerConfig::default(), shutdown.clone())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| format!("bind: {e}"))?;
        let tracer = Arc::clone(tracer);
        let handler: Arc<Handler> = Arc::new(move |req: &Request| {
            if !tracer.on() {
                return service.handle(req);
            }
            let started = Instant::now();
            let resp = service.handle(req);
            if let Some(id) = req.header(REQUEST_ID_HEADER).and_then(|v| v.parse().ok()) {
                tracer.record(
                    "gsim-serve.handle",
                    started,
                    Instant::now(),
                    Some(id),
                    vec![("status", f64::from(resp.status))],
                );
            }
            resp
        });
        let thread = std::thread::spawn(move || server.serve(handler));
        Ok(Self {
            addr,
            shutdown,
            thread: Some(thread),
            dir,
        })
    }

    /// Shuts the service down, waits for its server thread and removes
    /// its cache directory.
    fn stop(mut self) -> Result<(), String> {
        self.halt()
    }

    fn halt(&mut self) -> Result<(), String> {
        self.shutdown.trigger();
        if let Some(thread) = self.thread.take() {
            thread
                .join()
                .map_err(|_| "server thread panicked".to_string())?
                .map_err(|e| format!("server: {e}"))?;
        }
        if self.dir.exists() {
            std::fs::remove_dir_all(&self.dir)
                .map_err(|e| format!("{}: {e}", self.dir.display()))?;
        }
        Ok(())
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body parsed with gsim-json.
    fn json(&self) -> Option<Json> {
        gsim_json::parse(std::str::from_utf8(&self.body).ok()?).ok()
    }
}

/// One request on a fresh connection (`Connection: close`), tagged with
/// request id `id` unless it is `None`.
fn send(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    id: Option<u64>,
) -> Result<Reply, String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let tag = id.map_or(String::new(), |id| format!("{REQUEST_ID_HEADER}: {id}\r\n"));
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n{tag}\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(io)?;
    stream.write_all(body.as_bytes()).map_err(io)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(io)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: truncated response"))?;
    let head = String::from_utf8_lossy(&raw[..split]).into_owned();
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    let body = raw[split + 4..].to_vec();
    let reply = Reply {
        status,
        headers,
        body,
    };
    match reply
        .header("content-length")
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n == reply.body.len() => Ok(reply),
        _ => Err(format!("{method} {path}: body length mismatch")),
    }
}

/// A request with its client-side span and latency.
struct Exchange {
    id: u64,
    reply: Result<Reply, String>,
    latency_ms: f64,
}

fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    tracer: &Tracer,
    parent: SpanId,
) -> Exchange {
    let id = NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed);
    let span = tracer.open("perfbench.request", parent, Some(id));
    let started = Instant::now();
    let reply = send(addr, method, path, body, Some(id));
    let latency_ms = started.elapsed().as_secs_f64() * 1e3;
    tracer.close(span, &[]);
    Exchange {
        id,
        reply,
        latency_ms,
    }
}

/// Whether a reply is a well-formed success: status 200, a body that
/// parses with gsim-json and, for a predict, every forecast finite and
/// positive. Prints why not.
fn valid(reply: &Result<Reply, String>, predict: bool) -> bool {
    let why = match reply {
        Err(e) => e.clone(),
        Ok(r) if r.status != 200 => format!("status {}", r.status),
        Ok(r) => match r.json() {
            None => "body does not parse".to_string(),
            Some(doc) if predict && !forecasts_ok(&doc) => {
                "a forecast is not finite and positive".to_string()
            }
            Some(_) => return true,
        },
    };
    eprintln!("perfbench: request failed: {why}");
    false
}

fn forecasts_ok(doc: &Json) -> bool {
    let Some(rows) = doc.get("predictions").and_then(Json::as_arr) else {
        return false;
    };
    !rows.is_empty()
        && rows.iter().all(|row| {
            row.get("ipc_by_method")
                .and_then(Json::as_obj)
                .is_some_and(|methods| {
                    !methods.is_empty()
                        && methods
                            .iter()
                            .all(|(_, v)| v.as_f64().is_some_and(|x| x.is_finite() && x > 0.0))
                })
        })
}

/// The served scale-model forecast at `target` SMs.
fn scale_model_at(body: &[u8], target: u32) -> Option<f64> {
    let doc = gsim_json::parse(std::str::from_utf8(body).ok()?).ok()?;
    doc.get("predictions")?
        .as_arr()?
        .iter()
        .find(|row| row.get("target").and_then(Json::as_u64) == Some(u64::from(target)))?
        .get("ipc_by_method")?
        .get("scale-model")?
        .as_f64()
}

/// Scale-model error at 128 SMs of each named answer against the
/// reference 128-SM sim: `(avg, max)`.
fn answer_errors(
    bodies: &BTreeMap<String, Vec<u8>>,
    reference: &Reference,
) -> Result<(f64, f64), String> {
    let mut errs = Vec::new();
    for (abbr, body) in bodies {
        let served =
            scale_model_at(body, 128).ok_or_else(|| format!("{abbr}: no 128-SM forecast"))?;
        let real = reference
            .ipc_at(abbr, 128)
            .ok_or_else(|| format!("{abbr}: not in {}", crate::reference::PATH))?;
        errs.push(gsim_core::percent_error(served, real));
    }
    Ok((mean(&errs), errs.iter().copied().fold(f64::NAN, f64::max)))
}

fn named_body(abbr: &str, targets: &str) -> String {
    format!("{{\"workload\":\"{abbr}\",\"targets\":{targets}}}")
}

/// A pass's inline pattern predicts: every kind, at a footprint below
/// (12-28 MB) and above (48-96 MB) the 128-SM LLC, memory-bound
/// (1 compute op per memory op) and compute-bound (12), in seeded order
/// with a unique pattern seed each.
fn pattern_bodies(rng: &mut Rng, used: &mut HashSet<u64>) -> Vec<String> {
    let kinds = [
        "\"kind\":\"global_sweep\",\"passes\":2",
        "\"kind\":\"streaming\"",
        "\"kind\":\"pointer_chase\"",
        "\"kind\":\"tiled\",\"tile_lines\":256,\"reuses\":4",
        "\"kind\":\"working_set_mix\",\"levels\":[[0.5,0.1],[0.5,1.0]]",
    ];
    let mut bodies = Vec::new();
    for kind in kinds {
        for (lo, hi) in [(12, 28), (48, 96)] {
            for compute_per_mem in [1, 12] {
                for _ in 0..PATTERN_REPS {
                    let footprint = rng.range(lo, hi);
                    let seed = loop {
                        let s = rng.next_u64() & 0xffff_ffff;
                        if used.insert(s) {
                            break s;
                        }
                    };
                    bodies.push(format!(
                        "{{\"pattern\":{{{kind},\"footprint_mb\":{footprint},\
                         \"compute_per_mem\":{compute_per_mem},\"ctas\":256,\"seed\":{seed}}},\
                         \"targets\":[32,64,128]}}"
                    ));
                }
            }
        }
    }
    for i in (1..bodies.len()).rev() {
        let j = rng.range(0, i as u64) as usize;
        bodies.swap(i, j);
    }
    bodies
}

/// `/metrics` counters the per-layer table reports, by metric name.
const COUNTERS: [(&str, &[&str]); 5] = [
    (
        "gsim-core.plan.stage_collect_us.mean",
        &["stage_collect_us", "mean"],
    ),
    ("gsim-core.plan.collects_started", &["collects_started"]),
    ("gsim-runner.timing_sims_started", &["timing_sims_started"]),
    ("gsim-runner.runner_jobs_started", &["runner_jobs_started"]),
    (
        "gsim-serve.predict.computations",
        &["predict", "computations"],
    ),
];

/// The service's `/metrics` document (fetched outside any timed span).
fn metrics_doc(addr: SocketAddr) -> Result<Json, String> {
    let reply = send(addr, "GET", "/metrics", "", None)?;
    if reply.status != 200 {
        return Err(format!("GET /metrics: status {}", reply.status));
    }
    reply
        .json()
        .ok_or_else(|| "GET /metrics: body does not parse".to_string())
}

fn lookup(doc: &Json, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(doc, |d, k| d.get(k))?.as_f64()
}

/// Where a run keeps its service cache directories.
fn scratch_dir(workload: &str) -> PathBuf {
    PathBuf::from(OUT_DIR).join(format!("{workload}-{}", std::process::id()))
}

/// Per-layer metrics common to both serve workloads, from the spans of
/// the requests `ids` and the client's view of each request.
fn serve_layer_metrics(
    tracer: &Tracer,
    ids: &HashSet<u64>,
    paths: &[(String, f64)],
    overhead_pct: f64,
    put: &mut impl FnMut(&str, f64),
) {
    tracer.link_requests("perfbench.request");
    let spans = tracer.finished();
    let handle: BTreeMap<u64, f64> = spans
        .iter()
        .filter(|s| s.name == "gsim-serve.handle")
        .filter_map(|s| Some((s.request?, s.secs)))
        .filter(|(id, _)| ids.contains(id))
        .collect();
    let handle_ms: Vec<f64> = handle.values().map(|s| s * 1e3).collect();
    let http_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "perfbench.request")
        .filter_map(|s| Some((s.secs - handle.get(&s.request?)?) * 1e3))
        .collect();
    put("trace_overhead_pct", overhead_pct);
    put("gsim-serve.handle_ms.p50", median(&handle_ms));
    put("gsim-serve.handle_ms.mean", mean(&handle_ms));
    put("gsim-serve.handle_ms.p99", quantile(&handle_ms, 0.99));
    put("gsim-serve.http_ms.p50", median(&http_ms));
    let by_path = |want: &str| -> Vec<f64> {
        paths
            .iter()
            .filter(|(p, _)| p == want)
            .map(|(_, ms)| *ms)
            .collect()
    };
    let (fast, full) = (by_path("fast"), by_path("full"));
    if !paths.is_empty() {
        put(
            "gsim-core.plan.fast_share",
            fast.len() as f64 / paths.len() as f64,
        );
    }
    if !fast.is_empty() {
        put("gsim-core.plan.fast.p50_ms", median(&fast));
    }
    if !full.is_empty() {
        put("gsim-core.plan.full.p50_ms", median(&full));
    }
    for (layer, t) in tracer.layer_times() {
        put(&format!("{layer}.self_s"), t.self_s);
    }
}

/// Counter deltas between two `/metrics` documents; counters the
/// service no longer exports are listed in `missing`.
fn counter_metrics(
    before: &Json,
    after: &Json,
    missing: &mut Vec<String>,
    put: &mut impl FnMut(&str, f64),
) {
    for (name, path) in COUNTERS {
        match (lookup(after, path), lookup(before, path)) {
            // A histogram mean is a level, not a running count.
            (Some(a), Some(_)) if name.ends_with(".mean") => put(name, a),
            (Some(a), Some(b)) => put(name, a - b),
            _ => missing.push(name.to_string()),
        }
    }
}

/// One cold pass against a fresh service.
struct ColdPass {
    wall_s: f64,
    latencies: Vec<f64>,
    /// `(X-Gsim-Path, latency ms)` per predict.
    paths: Vec<(String, f64)>,
    ids: Vec<u64>,
    named: BTreeMap<String, Vec<u8>>,
    attempted: u64,
    failed: u64,
    metrics: Json,
}

fn cold_pass(
    dir: PathBuf,
    tracer: &Arc<Tracer>,
    bodies: &[(Option<&'static str>, String)],
) -> Result<ColdPass, String> {
    let service = Service::start(dir, tracer)?;
    let span = tracer.open("perfbench.pass", SpanId::NONE, None);
    let started = Instant::now();
    let mut pass = ColdPass {
        wall_s: 0.0,
        latencies: Vec::new(),
        paths: Vec::new(),
        ids: Vec::new(),
        named: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        metrics: Json::Null,
    };
    for (abbr, body) in bodies {
        let ex = exchange(service.addr, "POST", "/v1/predict", body, tracer, span);
        pass.attempted += 1;
        pass.ids.push(ex.id);
        if !valid(&ex.reply, true) {
            pass.failed += 1;
            continue;
        }
        let reply = ex.reply.expect("checked by valid");
        pass.latencies.push(ex.latency_ms);
        let path = reply
            .header("x-gsim-path")
            .unwrap_or("unlabelled")
            .to_string();
        pass.paths.push((path, ex.latency_ms));
        if let Some(abbr) = abbr {
            pass.named.insert(abbr.to_string(), reply.body);
        }
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    tracer.close(span, &[]);
    pass.metrics = metrics_doc(service.addr)?;
    service.stop()?;
    Ok(pass)
}

pub fn run_cold(args: &Args) -> Result<Report, String> {
    let reference = Reference::load()?;
    let tracer = Arc::new(Tracer::new(false));
    let root = scratch_dir("serve_cold");
    let mut setup = Vec::new();
    let mut time_startups = |tracer: &Arc<Tracer>| -> Result<(), String> {
        let before = host_probe();
        let mut chunk = Vec::with_capacity(COLD_STARTUPS_PER_PASS);
        for _ in 0..COLD_STARTUPS_PER_PASS {
            let started = Instant::now();
            let service = Service::start(root.join("startup"), tracer)?;
            let ready = send(service.addr, "GET", "/healthz", "", None)?;
            if ready.status != 200 {
                return Err(format!("GET /healthz: status {}", ready.status));
            }
            chunk.push(started.elapsed().as_secs_f64());
            service.stop()?;
        }
        let scale = speed_scale(before, host_probe());
        setup.extend(chunk.iter().map(|s| s * scale));
        Ok(())
    };
    let named: Vec<(Option<&'static str>, String)> = abbrs()
        .into_iter()
        .map(|a| (Some(a), named_body(a, "[32,64,128]")))
        .collect();
    let mut rng = Rng::new(args.seed);
    let mut used = HashSet::new();
    let mut next_bodies = || {
        let mut bodies = named.clone();
        bodies.extend(
            pattern_bodies(&mut rng, &mut used)
                .into_iter()
                .map(|b| (None, b)),
        );
        bodies
    };

    // A traced run alternates untraced and traced passes, so host drift
    // cancels out of the tracing overhead; only traced passes feed the
    // per-layer metrics.
    let started = Instant::now();
    let mut passes: Vec<ColdPass> = Vec::new();
    let mut untraced: Vec<ColdPass> = Vec::new();
    while passes.is_empty()
        || another_fits(
            started,
            passes.iter().chain(&untraced).map(|p| p.wall_s),
            args.seconds,
        )
    {
        let i = passes.len();
        time_startups(&tracer)?;
        if args.trace {
            tracer.set_on(false);
            untraced.push(cold_pass(
                root.join(format!("untraced{i}")),
                &tracer,
                &next_bodies(),
            )?);
            tracer.set_on(true);
        }
        passes.push(cold_pass(
            root.join(format!("pass{i}")),
            &tracer,
            &next_bodies(),
        )?);
    }
    tracer.set_on(false);
    let _ = std::fs::remove_dir_all(&root);

    let every = || passes.iter().chain(&untraced);
    let attempted = every().map(|p| p.attempted).sum();
    let mut failed: u64 = every().map(|p| p.failed).sum();
    // Named answers are deterministic: every pass must serve the same bytes.
    let first = &passes[0].named;
    for (i, p) in every().enumerate().skip(1) {
        for (abbr, body) in &p.named {
            if first.get(abbr) != Some(body) {
                eprintln!("perfbench: pass {i}: {abbr} answer differs from pass 0");
                failed += 1;
            }
        }
    }
    let complete = every().all(|p| p.named.len() == named.len());
    let (err_avg, err_max) = answer_errors(first, &reference)?;
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies.iter().copied())
        .collect();
    let paths: Vec<(String, f64)> = passes
        .iter()
        .flat_map(|p| p.paths.iter().cloned())
        .collect();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    eprintln!(
        "perfbench: serve_cold seed {}: {} pass(es), {} requests, {} fast / {} full",
        args.seed,
        passes.len(),
        attempted,
        paths.iter().filter(|(p, _)| p == "fast").count(),
        paths.iter().filter(|(p, _)| p == "full").count(),
    );

    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut missing = Vec::new();
    let mut put = |name: &str, v: f64| metrics.push((name.to_string(), v));
    if args.trace {
        let untraced: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
        let overhead = (median(&walls) - median(&untraced)) / median(&untraced) * 100.0;
        let ids = passes.iter().flat_map(|p| p.ids.iter().copied()).collect();
        serve_layer_metrics(&tracer, &ids, &paths, overhead, &mut put);
        for (name, path) in COUNTERS {
            let values: Vec<f64> = passes
                .iter()
                .filter_map(|p| lookup(&p.metrics, path))
                .collect();
            if values.len() == passes.len() {
                put(name, mean(&values));
            } else {
                missing.push(name.to_string());
            }
        }
        let hit_ratio: Vec<f64> = passes
            .iter()
            .filter_map(|p| {
                let hits = lookup(&p.metrics, &["predict", "cache_hits"])?;
                let misses = lookup(&p.metrics, &["predict", "cache_misses"])?;
                Some(hits / (hits + misses))
            })
            .collect();
        put("gsim-serve.cache_hit_ratio", mean(&hit_ratio));
        tracer.write("serve_cold", args.seed)?;
    } else {
        put("setup_s", median(&setup));
        put("peak_rss_mb", peak_rss_mb().ok_or("cannot read VmHWM")?);
        put("wall_s", median(&walls));
        put("p50_ms", quantile(&latencies, 0.50));
        put("tail_ms", quantile(&latencies, 0.90));
        put("scale_model_err_avg_pct", err_avg);
        put("scale_model_err_max_pct", err_max);
    }
    Ok(Report {
        correct: failed == 0 && complete,
        attempted,
        failed,
        metrics,
        missing,
    })
}

/// A warmed service and the bodies it served during warm-up, keyed by
/// request body.
struct Warm {
    service: Service,
    bodies: BTreeMap<String, Vec<u8>>,
    attempted: u64,
    failed: u64,
}

fn warm(dir: PathBuf, tracer: &Arc<Tracer>) -> Result<Warm, String> {
    let service = Service::start(dir, tracer)?;
    let mut warm = Warm {
        service,
        bodies: BTreeMap::new(),
        attempted: 0,
        failed: 0,
    };
    for targets in HOT_TARGET_LISTS {
        for abbr in abbrs() {
            let body = named_body(abbr, targets);
            let ex = exchange(
                warm.service.addr,
                "POST",
                "/v1/predict",
                &body,
                tracer,
                SpanId::NONE,
            );
            warm.attempted += 1;
            if valid(&ex.reply, true) {
                warm.bodies
                    .insert(body, ex.reply.expect("checked by valid").body);
            } else {
                warm.failed += 1;
            }
        }
    }
    Ok(warm)
}

/// One closed-loop sweep re-reading every warm entry: `(seconds, failed)`.
fn sweep(warm: &Warm, tracer: &Tracer) -> (f64, u64) {
    let span = tracer.open("perfbench.sweep", SpanId::NONE, None);
    let started = Instant::now();
    let mut failed = 0;
    for (body, want) in &warm.bodies {
        let ex = exchange(warm.service.addr, "POST", "/v1/predict", body, tracer, span);
        let hit = ex
            .reply
            .as_ref()
            .is_ok_and(|r| r.header("x-gsim-cache") == Some("hit") && &r.body == want);
        if !valid(&ex.reply, true) || !hit {
            eprintln!("perfbench: sweep: {body} was not a byte-identical cache hit");
            failed += 1;
        }
    }
    let secs = started.elapsed().as_secs_f64();
    tracer.close(span, &[]);
    (secs, failed)
}

/// One scheduled open-loop request.
struct Due {
    at: Duration,
    method: &'static str,
    path: &'static str,
    body: Option<String>,
}

/// One completed open-loop request.
struct Sent {
    id: u64,
    lateness_ms: f64,
    latency_ms: f64,
    path_label: Option<String>,
    ok: bool,
}

fn schedule(seed: u64, seconds: f64, predicts: &[&String]) -> Vec<Due> {
    let mut rng = Rng::new(seed);
    let n = (HOT_RATE * seconds).ceil() as usize;
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / HOT_RATE;
            let at = Duration::from_secs_f64(t);
            match rng.range(0, 19) {
                0 => Due {
                    at,
                    method: "GET",
                    path: "/v1/workloads",
                    body: None,
                },
                1 => Due {
                    at,
                    method: "GET",
                    path: "/metrics",
                    body: None,
                },
                _ => Due {
                    at,
                    method: "POST",
                    path: "/v1/predict",
                    body: Some(predicts[rng.range(0, predicts.len() as u64 - 1) as usize].clone()),
                },
            }
        })
        .collect()
}

fn open_loop(warm: &Warm, plan: &[Due], tracer: &Tracer) -> Vec<Sent> {
    let next = AtomicUsize::new(0);
    let senders = nproc();
    let start = Instant::now();
    let span = tracer.open("perfbench.open_loop", SpanId::NONE, None);
    let sent = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..senders)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(due) = plan.get(i) else { break };
                        let due_at = start + due.at;
                        if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let lateness_ms = Instant::now().duration_since(due_at).as_secs_f64() * 1e3;
                        let body = due.body.as_deref().unwrap_or("");
                        let ex =
                            exchange(warm.service.addr, due.method, due.path, body, tracer, span);
                        let latency_ms = Instant::now().duration_since(due_at).as_secs_f64() * 1e3;
                        let ok = valid(&ex.reply, due.body.is_some())
                            && due.body.as_ref().is_none_or(|b| {
                                ex.reply
                                    .as_ref()
                                    .is_ok_and(|r| Some(&r.body) == warm.bodies.get(b))
                            });
                        let path_label = due.body.as_ref().and_then(|_| {
                            ex.reply
                                .as_ref()
                                .ok()?
                                .header("x-gsim-path")
                                .map(str::to_string)
                        });
                        mine.push((
                            i,
                            Sent {
                                id: ex.id,
                                lateness_ms,
                                latency_ms,
                                path_label,
                                ok,
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        let mut all: Vec<(usize, Sent)> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("sender thread panicked"))
            .collect();
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, s)| s).collect::<Vec<_>>()
    });
    tracer.close(span, &[]);
    sent
}

/// Whether lateness grows over the run: the last quarter's mean lateness
/// exceeds both 20 ms and twice the first quarter's.
fn backlog(sent: &[Sent]) -> bool {
    let q = sent.len() / 4;
    if q == 0 {
        return false;
    }
    let late = |s: &[Sent]| mean(&s.iter().map(|x| x.lateness_ms).collect::<Vec<_>>());
    let (first, last) = (late(&sent[..q]), late(&sent[sent.len() - q..]));
    last > 20.0 && last > 2.0 * first
}

pub fn run_hot(args: &Args) -> Result<Report, String> {
    let reference = Reference::load()?;
    let tracer = Arc::new(Tracer::new(false));
    let root = scratch_dir("serve_hot");
    let mut setup = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut warmed: Option<Warm> = None;
    for i in 0..HOT_SETUP_REPS {
        let started = Instant::now();
        let w = warm(root.join(format!("setup{i}")), &tracer)?;
        setup.push(started.elapsed().as_secs_f64());
        attempted += w.attempted;
        failed += w.failed;
        if let Some(prev) = warmed.take() {
            // Independent services must serve the same bytes.
            if prev.bodies != w.bodies {
                eprintln!(
                    "perfbench: warm-up {i} served different bodies than warm-up {}",
                    i - 1
                );
                failed += 1;
            }
            prev.service.stop()?;
        }
        warmed = Some(w);
    }
    let warm = warmed.expect("at least one warm-up");

    // A traced run alternates untraced and traced sweeps, so host drift
    // cancels out of the tracing overhead.
    let mut untraced_sweeps = Vec::new();
    let mut traced_sweeps = Vec::new();
    let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    for _ in 0..HOT_SWEEPS {
        for &traced in modes {
            tracer.set_on(traced);
            let (secs, bad) = sweep(&warm, &tracer);
            attempted += warm.bodies.len() as u64;
            failed += bad;
            if traced {
                traced_sweeps.push(secs);
            } else {
                untraced_sweeps.push(secs);
            }
        }
    }
    tracer.set_on(args.trace);

    let predicts: Vec<&String> = warm.bodies.keys().collect();
    let plan = schedule(args.seed, args.seconds, &predicts);
    let before = metrics_doc(warm.service.addr)?;
    let sent = open_loop(&warm, &plan, &tracer);
    tracer.set_on(false);
    let after = metrics_doc(warm.service.addr)?;
    attempted += sent.len() as u64;
    failed += sent.iter().filter(|s| !s.ok).count() as u64;

    let hits = lookup(&after, &["predict", "cache_hits"]).unwrap_or(0.0)
        - lookup(&before, &["predict", "cache_hits"]).unwrap_or(0.0);
    let misses = lookup(&after, &["predict", "cache_misses"]).unwrap_or(0.0)
        - lookup(&before, &["predict", "cache_misses"]).unwrap_or(0.0);
    let hit_ratio = hits / (hits + misses);
    if hit_ratio != 1.0 {
        eprintln!("perfbench: open-loop cache hit ratio {hit_ratio}, expected 1.0");
    }
    let lateness: Vec<f64> = sent.iter().map(|s| s.lateness_ms).collect();
    let latencies: Vec<f64> = sent.iter().map(|s| s.latency_ms).collect();
    let invalid = backlog(&sent);
    eprintln!(
        "perfbench: serve_hot seed {}: {} requests at {HOT_RATE}/s from {} senders, \
         lateness p50 {:.3} ms max {:.3} ms{}",
        args.seed,
        sent.len(),
        nproc(),
        median(&lateness),
        lateness.iter().copied().fold(0.0, f64::max),
        if invalid {
            ": backlog grows, run invalid"
        } else {
            ""
        }
    );
    let named: BTreeMap<String, Vec<u8>> = abbrs()
        .into_iter()
        .filter_map(|a| {
            let body = warm.bodies.get(&named_body(a, HOT_TARGET_LISTS[0]))?;
            Some((a.to_string(), body.clone()))
        })
        .collect();
    let (err_avg, err_max) = answer_errors(&named, &reference)?;

    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut missing = Vec::new();
    let mut put = |name: &str, v: f64| metrics.push((name.to_string(), v));
    if args.trace {
        let overhead =
            (median(&traced_sweeps) - median(&untraced_sweeps)) / median(&untraced_sweeps) * 100.0;
        let paths: Vec<(String, f64)> = sent
            .iter()
            .filter_map(|s| Some((s.path_label.clone()?, s.latency_ms)))
            .collect();
        let ids = sent.iter().map(|s| s.id).collect();
        serve_layer_metrics(&tracer, &ids, &paths, overhead, &mut put);
        counter_metrics(&before, &after, &mut missing, &mut put);
        put("gsim-serve.cache_hit_ratio", hit_ratio);
        put("perfbench.lateness_ms.p50", median(&lateness));
        put(
            "perfbench.lateness_ms.max",
            lateness.iter().copied().fold(0.0, f64::max),
        );
        tracer.write("serve_hot", args.seed)?;
    } else {
        put("setup_s", median(&setup));
        put("peak_rss_mb", peak_rss_mb().ok_or("cannot read VmHWM")?);
        put("wall_s", median(&untraced_sweeps));
        put("p50_ms", quantile(&latencies, 0.50));
        put("tail_ms", quantile(&latencies, 0.99));
        put("scale_model_err_avg_pct", err_avg);
        put("scale_model_err_max_pct", err_max);
    }
    warm.service.stop()?;
    let _ = std::fs::remove_dir_all(&root);
    Ok(Report {
        correct: failed == 0 && hit_ratio == 1.0 && !invalid && named.len() == abbrs().len(),
        attempted,
        failed,
        metrics,
        missing,
    })
}

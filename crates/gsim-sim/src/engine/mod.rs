//! The cycle-level simulation engine.
//!
//! One engine serves both monolithic GPUs and multi-chiplet (MCM) GPUs: a
//! monolithic GPU is a single chip(let) whose memory system is divided
//! into fixed partitions (slice groups + their memory controllers); an MCM
//! GPU has those partitions per chiplet plus an inter-chiplet network and
//! first-touch page placement.
//!
//! Every cycle has two halves (DESIGN.md §10):
//!
//! * **Phase A** runs on every SM: each drains its wake heap, picks a warp
//!   and issues, staging any shared-memory work and completed CTAs in its
//!   per-cycle output. It finishes on all SMs before the flush, because a
//!   CTA completion at a kernel boundary dispatches onto every SM.
//! * **The flush** walks the SMs in ascending order. For each SM it
//!   handles CTA completions and dispatch, then sends each staged line
//!   through its owner partition (first-touch page placement for MCM),
//!   charges the inter-chiplet legs, registers MSHR fills and pushes the
//!   warp's wake-up. It ends by deciding whether to advance one cycle,
//!   jump to the next wake-up, or finish.

mod memsys;
mod sm;

use std::cmp::Reverse;
use std::collections::HashMap;
use std::time::Instant;

use gsim_mem::MshrOutcome;
use gsim_noc::ChipletInterconnect;
use gsim_trace::{Workload, WorkloadModel};

use crate::chiplet::ChipletConfig;
use crate::config::GpuConfig;
use crate::stats::SimStats;
use memsys::{build_partitions, MemPartition, MemReq, PartitionMap, ReqKind};
use sm::{LineKind, LineReq, Sm, WarpCtx};

/// The flush's verdict on how the simulation proceeds.
enum CycleOutcome {
    /// Continue at this cycle (the next one, or a jump target).
    Advance(u64),
    /// The simulation is over; the final cycle count is attached.
    Done(u64),
}

/// The GPU timing simulator.
///
/// Create one per (configuration, workload) pair and call
/// [`Simulator::run`]; the simulator is deterministic for a given workload
/// seed.
pub struct Simulator<'wl, W: WorkloadModel = Workload> {
    cfg: GpuConfig,
    wl: &'wl W,
    sms: Vec<Sm<W::Stream>>,
    mem: Vec<MemPartition>,
    map: PartitionMap,
    n_chiplets: u32,
    icn: Option<ChipletInterconnect>,
    page_owner: HashMap<u64, u32>,
    page_shift: u32,
    // kernel sequencing
    kernel_idx: usize,
    next_cta: u32,
    ctas_in_flight: u32,
    dispatch_age: u64,
    /// Instruction milestones bounding the sustained-IPC window.
    milestone_10: u64,
    milestone_90: u64,
    /// Cycle at which the current kernel started (for per-kernel cycles).
    kernel_start_cycle: u64,
    stats: SimStats,
}

impl<'wl, W: WorkloadModel> Simulator<'wl, W> {
    /// Creates a monolithic-GPU simulation of `wl` on `cfg`. `wl` may be
    /// a synthetic [`Workload`] or a recorded
    /// [`TracedWorkload`](gsim_trace::TracedWorkload).
    pub fn new(cfg: GpuConfig, wl: &'wl W) -> Self {
        let sms = (0..cfg.n_sms).map(|_| Sm::new(&cfg, 0)).collect();
        let (map, mem) = build_partitions(&cfg, 1, 0.0);
        Self::assemble(cfg, wl, sms, mem, map, None, 5)
    }

    /// Creates a multi-chiplet simulation of `wl` on `mcm` (Section VII.D):
    /// per-chiplet memory partitions, first-touch page placement, and a
    /// bandwidth-limited inter-chiplet network for remote accesses.
    pub fn new_mcm(mcm: &ChipletConfig, wl: &'wl W) -> Self {
        let per = &mcm.chiplet;
        let n_chiplets = mcm.n_chiplets;
        let total_sms = per.n_sms * n_chiplets;
        let sms = (0..total_sms)
            .map(|i| Sm::new(per, i / per.n_sms))
            .collect();
        let icn = ChipletInterconnect::from_gbs(
            n_chiplets,
            mcm.interchiplet_gbs_per_chiplet,
            per.sm_clock_ghz,
            mcm.interchiplet_latency,
        );
        let (map, mem) = build_partitions(per, n_chiplets, f64::from(icn.crossing_latency()));
        let mut cfg = per.clone();
        cfg.n_sms = total_sms;
        let page_shift = mcm.page_lines.trailing_zeros();
        Self::assemble(cfg, wl, sms, mem, map, Some(icn), page_shift)
    }

    fn assemble(
        cfg: GpuConfig,
        wl: &'wl W,
        sms: Vec<Sm<W::Stream>>,
        mem: Vec<MemPartition>,
        map: PartitionMap,
        icn: Option<ChipletInterconnect>,
        page_shift: u32,
    ) -> Self {
        Self {
            cfg,
            wl,
            sms,
            mem,
            map,
            n_chiplets: icn.as_ref().map_or(1, ChipletInterconnect::n_chiplets),
            icn,
            page_owner: HashMap::new(),
            page_shift,
            kernel_idx: 0,
            next_cta: 0,
            ctas_in_flight: 0,
            dispatch_age: 0,
            milestone_10: wl.approx_warp_instrs() / 10,
            milestone_90: wl.approx_warp_instrs() * 9 / 10,
            kernel_start_cycle: 0,
            stats: SimStats::default(),
        }
    }

    /// The effective configuration (for MCM runs, the per-chiplet config
    /// with `n_sms` set to the system total).
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Runs the workload to completion and returns the statistics.
    pub fn run(mut self) -> SimStats {
        let wall = Instant::now();
        let l1_latency = u64::from(self.cfg.l1_latency);
        self.dispatch_round_robin();
        let mut now = 0u64;
        let end = loop {
            // Phase A on every SM; the per-cycle counters stay in locals.
            let (mut issued, mut stalled, mut idle) = (0u64, 0u64, 0u64);
            let (mut l1_accesses, mut l1_misses) = (0u64, 0u64);
            for sm in &mut self.sms {
                sm.phase_a(now, l1_latency);
                l1_accesses += sm.out.l1_accesses;
                l1_misses += sm.out.l1_misses;
                if sm.out.issued {
                    issued += 1;
                } else if sm.out.live {
                    stalled += 1;
                } else {
                    idle += 1;
                }
                if let Some(mi) = sm.out.mem {
                    // Non-blocking issuers (stores) continue immediately.
                    if !mi.blocks {
                        sm.insert_ready(mi.warp);
                    }
                }
            }
            // At most one instruction issues per SM per cycle.
            self.stats.warp_instrs += issued;
            self.stats.mem_stall_sm_cycles += stalled;
            self.stats.idle_sm_cycles += idle;
            self.stats.l1_accesses += l1_accesses;
            self.stats.l1_misses += l1_misses;
            if self.stats.cycle_at_10pct == 0 && self.stats.warp_instrs >= self.milestone_10 {
                self.stats.cycle_at_10pct = now + 1;
            }
            if self.stats.cycle_at_90pct == 0 && self.stats.warp_instrs >= self.milestone_90 {
                self.stats.cycle_at_90pct = now + 1;
                self.stats.warp_instrs_window = self.stats.warp_instrs - self.milestone_10;
            }
            match self.flush(now, issued > 0) {
                CycleOutcome::Advance(t) => now = t,
                CycleOutcome::Done(t) => break t,
            }
        };
        let mut stats = self.finish(end);
        stats.sim_wall_seconds = wall.elapsed().as_secs_f64();
        stats
    }

    /// `(n_ctas, threads_per_cta)` of the kernel currently dispatching.
    fn cur_grid(&self) -> (u32, u32) {
        self.wl.grid(self.kernel_idx)
    }

    /// Dispatches CTAs of the current kernel round-robin across all SMs
    /// (Table III: round-robin CTA scheduling), used at kernel launch.
    fn dispatch_round_robin(&mut self) {
        loop {
            let mut progress = false;
            for i in 0..self.sms.len() {
                if self.try_dispatch_one(i) {
                    progress = true;
                }
            }
            if !progress {
                return;
            }
        }
    }

    /// Dispatches at most one CTA of the current kernel onto `sm_idx`;
    /// returns whether one was placed.
    fn try_dispatch_one(&mut self, sm_idx: usize) -> bool {
        let kernel_idx = self.kernel_idx;
        if kernel_idx >= self.wl.n_kernels() {
            return false;
        }
        let (n_ctas, threads_per_cta) = self.cur_grid();
        let warps_per_cta = self.wl.warps_per_cta(kernel_idx);
        let max_ctas = self.cfg.ctas_per_sm(threads_per_cta);
        if self.next_cta >= n_ctas {
            return false;
        }
        let sm = &self.sms[sm_idx];
        if sm.cta_remaining.len() >= max_ctas as usize
            || (sm.free_slots.len() as u32) < warps_per_cta
        {
            return false;
        }
        let cta = self.next_cta;
        self.next_cta += 1;
        self.ctas_in_flight += 1;
        for w in 0..warps_per_cta {
            let stream = self.wl.warp_stream(kernel_idx, cta, w);
            self.dispatch_age += 1;
            let age = self.dispatch_age;
            let sm = &mut self.sms[sm_idx];
            let slot = sm.free_slots.pop().expect("checked free slots");
            sm.warps[slot as usize] = Some(WarpCtx {
                stream,
                pending_compute: 0,
                cta,
                age,
            });
            sm.live_warps += 1;
            sm.insert_ready(slot);
        }
        self.sms[sm_idx].cta_remaining.insert(cta, warps_per_cta);
        true
    }

    /// Global bookkeeping for one CTA that completed on `sm_idx` at
    /// `now`: backfill dispatch, and advance the kernel sequence when the
    /// grid has drained.
    fn on_cta_completed(&mut self, sm_idx: usize, now: u64) {
        self.ctas_in_flight -= 1;
        self.stats.ctas_executed += 1;
        self.try_dispatch_one(sm_idx);
        if self.ctas_in_flight == 0 && self.next_cta >= self.cur_grid().0 {
            // Kernel barrier reached: move to the next kernel.
            self.stats.kernels_executed += 1;
            self.stats.kernel_cycles.push(now - self.kernel_start_cycle);
            self.kernel_start_cycle = now;
            self.kernel_idx += 1;
            self.next_cta = 0;
            if self.kernel_idx < self.wl.n_kernels() {
                self.dispatch_round_robin();
            }
        }
    }

    /// Chiplet owning `line` (first-touch page placement for MCM; always
    /// 0 for monolithic GPUs).
    fn owner_of(&mut self, line: u64, toucher: u32) -> u32 {
        if self.n_chiplets == 1 {
            return 0;
        }
        let page = line >> self.page_shift;
        *self.page_owner.entry(page).or_insert(toucher)
    }

    /// The flush half of cycle `now`: walks the SMs in ascending order,
    /// resolving each one's completed CTAs and staged memory instruction,
    /// then decides how the simulation proceeds. `any_issued` reports
    /// whether any SM issued during phase A.
    fn flush(&mut self, now: u64, any_issued: bool) -> CycleOutcome {
        for i in 0..self.sms.len() {
            for _ in 0..self.sms[i].out.completed_ctas {
                self.on_cta_completed(i, now);
            }
            if let Some(mi) = self.sms[i].out.mem {
                let reqs = std::mem::take(&mut self.sms[i].out.reqs);
                let wake = self.send_reqs(i, now, mi.base_wake, &reqs);
                let sm = &mut self.sms[i];
                sm.out.reqs = reqs;
                if mi.blocks {
                    sm.blocked.push(Reverse((wake, mi.warp)));
                }
            }
        }
        let end = now + 1;
        if self.kernel_idx >= self.wl.n_kernels() {
            // The kernel sequence drained at this cycle.
            return CycleOutcome::Done(end);
        }
        if any_issued {
            return CycleOutcome::Advance(end);
        }
        // Nothing issued this cycle: jump to the next wake-up unless a
        // flush-time dispatch made warps ready.
        let mut next_wake: Option<u64> = None;
        let mut any_ready = false;
        for sm in &self.sms {
            if let Some(&Reverse((t, _))) = sm.blocked.peek() {
                next_wake = Some(next_wake.map_or(t, |m| m.min(t)));
            }
            if sm.has_ready() {
                any_ready = true;
            }
        }
        if any_ready {
            // A kernel boundary in this flush made warps ready on SMs that
            // had already made their issue attempt; give them the next
            // cycle.
            return CycleOutcome::Advance(end);
        }
        let Some(next_wake) = next_wake else {
            // No ready warps, no blocked warps, nothing issued: completion.
            return CycleOutcome::Done(now);
        };
        let target = next_wake.max(end);
        let dt = target - end;
        if dt > 0 {
            for sm in &self.sms {
                if sm.live_warps > 0 {
                    self.stats.mem_stall_sm_cycles += dt;
                } else {
                    self.stats.idle_sm_cycles += dt;
                }
            }
        }
        CycleOutcome::Advance(target)
    }

    /// Sends the line requests of the memory instruction SM `sm_idx`
    /// staged at `now` through their owner partitions, in program order:
    /// the inter-chiplet legs of remote requests are charged, and load
    /// misses register their fills with the SM's MSHR file. Returns the
    /// issuing warp's wake cycle, starting from `wake`.
    fn send_reqs(&mut self, sm_idx: usize, now: u64, mut wake: u64, reqs: &[LineReq]) -> u64 {
        let l1_lat = u64::from(self.cfg.l1_latency);
        let sm_chiplet = self.sms[sm_idx].chiplet;
        for req in reqs {
            let (t0, kind) = match req.kind {
                LineKind::MissLoad => (now + l1_lat, ReqKind::Load),
                LineKind::Store => (now + l1_lat, ReqKind::Store),
                LineKind::Direct(kind) => (now, kind),
            };
            let owner = self.owner_of(req.line, sm_chiplet);
            let (sub, local_slice) = self.map.route(req.line);
            let remote = owner != sm_chiplet;
            let r = self.mem[(owner * self.map.per_chiplet + sub) as usize].access(&MemReq {
                t0,
                line: req.line,
                local_slice,
                kind,
                remote,
            });
            let mut done = r.local_done;
            if remote {
                // Egress of the owner, ingress of the requester.
                let icn = self.icn.as_mut().expect("remote access implies MCM");
                done = done.max(icn.traverse(r.data_at_llc, owner, sm_chiplet, r.payload));
            }
            let done = (done.ceil() as u64).max(t0 + 1);
            let sm = &mut self.sms[sm_idx];
            match req.kind {
                LineKind::MissLoad => {
                    if sm.mshr.is_full() {
                        sm.mshr.complete_up_to(now);
                    }
                    match sm.mshr.register(req.line, done) {
                        MshrOutcome::Allocated | MshrOutcome::Full => {
                            wake = wake.max(done);
                        }
                        MshrOutcome::Merged(f) => {
                            // A merge cannot be slower than a re-fetch.
                            wake = wake.max(f.min(done));
                        }
                    }
                }
                // Stores are fire-and-forget: the request was charged
                // (including the inter-chiplet legs), the warp was already
                // re-queued in phase A.
                LineKind::Store => {}
                LineKind::Direct(_) => {
                    wake = wake.max(done);
                }
            }
        }
        wake
    }

    /// Seals the statistics once the last cycle has run, harvesting the
    /// per-partition counters.
    fn finish(mut self, now: u64) -> SimStats {
        for p in &self.mem {
            self.stats.llc_accesses += p.llc_accesses;
            self.stats.llc_misses += p.llc_misses;
            self.stats.dram_bytes += p.dram_bytes;
        }
        self.stats.cycles = now;
        self.stats.total_sm_cycles = now * self.sms.len() as u64;
        self.stats.thread_instrs = self.stats.warp_instrs * 32;
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsim_trace::{Kernel, MemScale, PatternKind, PatternSpec};

    fn small_cfg(n_sms: u32) -> GpuConfig {
        GpuConfig::paper_target(n_sms, MemScale::default())
    }

    fn sweep_workload(footprint_lines: u64, passes: u32, ctas: u32) -> Workload {
        let spec = PatternSpec::new(PatternKind::GlobalSweep { passes }, footprint_lines)
            .compute_per_mem(1.5);
        Workload::new("t", 9, vec![Kernel::new("k", ctas, 256, spec)])
    }

    #[test]
    fn compute_only_workload_reaches_full_issue_rate() {
        let spec = PatternSpec::new(PatternKind::Streaming, 1)
            .compute_per_mem(0.0)
            .tail_compute(5_000);
        let wl = Workload::new("c", 1, vec![Kernel::new("k", 96, 256, spec)]);
        let stats = Simulator::new(small_cfg(8), &wl).run();
        // 8 SMs x 1 warp instr/cycle = up to 256 thread IPC.
        assert!(
            stats.ipc() > 0.9 * 256.0,
            "compute-bound IPC {} should approach 256",
            stats.ipc()
        );
        assert!(stats.f_mem() < 0.05);
    }

    #[test]
    fn memory_bound_workload_stalls() {
        let wl = sweep_workload(200_000, 2, 96);
        let stats = Simulator::new(small_cfg(8), &wl).run();
        assert!(stats.f_mem() > 0.2, "f_mem {} too low", stats.f_mem());
        assert!(stats.mpki() > 1.0, "MPKI {}", stats.mpki());
        assert!(stats.ipc() < 200.0);
    }

    #[test]
    fn deterministic_across_runs() {
        // One memory partition at 8 SMs, eight at 64.
        for (sms, wl) in [
            (8, sweep_workload(20_000, 2, 48)),
            (64, sweep_workload(60_000, 1, 256)),
        ] {
            let a = Simulator::new(small_cfg(sms), &wl).run();
            let b = Simulator::new(small_cfg(sms), &wl).run();
            a.assert_deterministic_eq(&b);
        }
    }

    #[test]
    fn all_instructions_are_executed() {
        let wl = sweep_workload(10_000, 2, 48);
        let stats = Simulator::new(small_cfg(8), &wl).run();
        assert_eq!(stats.warp_instrs, wl.approx_warp_instrs());
        assert_eq!(stats.ctas_executed, 48);
        assert_eq!(stats.kernels_executed, 1);
    }

    #[test]
    fn fitting_working_set_is_faster_than_thrashing() {
        // Same instruction volume; one footprint fits the 8-SM LLC
        // (2.125 MB / 8 = 2176 lines), one does not.
        let fits = sweep_workload(1_500, 8, 48);
        let thrash = sweep_workload(60_000, 8, 48);
        let f = Simulator::new(small_cfg(8), &fits).run();
        let t = Simulator::new(small_cfg(8), &thrash).run();
        assert!(
            f.ipc() > 1.5 * t.ipc() * (f.warp_instrs as f64 / t.warp_instrs as f64).min(1.0),
            "fitting {} vs thrashing {}",
            f.ipc(),
            t.ipc()
        );
        assert!(f.mpki() < t.mpki() / 2.0);
    }

    #[test]
    fn more_sms_with_proportional_resources_scale_throughput() {
        let wl = sweep_workload(60_000, 3, 768);
        let s8 = Simulator::new(small_cfg(8), &wl).run();
        let s16 = Simulator::new(small_cfg(16), &wl).run();
        let speedup = s16.ipc() / s8.ipc();
        assert!(
            (1.5..2.5).contains(&speedup),
            "8->16 SM speedup {speedup} should be ~2 for a pre-cliff sweep"
        );
    }

    #[test]
    fn too_few_ctas_leave_sms_idle() {
        // 4 CTAs round-robin onto an 8-SM machine: half the SMs idle.
        let wl = sweep_workload(20_000, 4, 4);
        let stats = Simulator::new(small_cfg(8), &wl).run();
        assert!(stats.f_idle() > 0.3, "f_idle {}", stats.f_idle());
    }

    #[test]
    fn round_robin_spreads_small_grids() {
        // 8 CTAs on 8 SMs: one per SM, so no SM sits idle.
        let wl = sweep_workload(20_000, 4, 8);
        let stats = Simulator::new(small_cfg(8), &wl).run();
        assert!(stats.f_idle() < 0.15, "f_idle {}", stats.f_idle());
    }

    #[test]
    fn tiny_mid_kernel_does_not_end_the_run() {
        // Regression: a kernel smaller than one SM's slot budget used to
        // strand its freshly dispatched warps when the previous kernel's
        // last warp retired mid-issue-phase, ending the simulation early.
        let spec = || PatternSpec::new(PatternKind::Streaming, 5_000).compute_per_mem(1.0);
        let wl = Workload::new(
            "seq",
            3,
            vec![
                Kernel::new("big1", 96, 256, spec()),
                Kernel::new("tiny", 4, 256, spec()),
                Kernel::new("big2", 96, 256, spec()),
            ],
        );
        let stats = Simulator::new(small_cfg(8), &wl).run();
        assert_eq!(stats.kernels_executed, 3);
        assert_eq!(stats.ctas_executed, 196);
        assert_eq!(stats.warp_instrs, wl.approx_warp_instrs());
    }

    #[test]
    fn trace_replay_is_cycle_identical_to_execution_driven() {
        // The trace-driven front-end (Accel-Sim's mode of operation) must
        // reproduce the execution-driven run exactly.
        let wl = sweep_workload(10_000, 2, 48);
        let mut bytes = Vec::new();
        gsim_trace::write_trace(&wl, &mut bytes).expect("trace serialises");
        let traced = gsim_trace::TracedWorkload::read(&bytes[..]).expect("trace loads");
        let a = Simulator::new(small_cfg(8), &wl).run();
        let b = Simulator::new(small_cfg(8), &traced).run();
        a.assert_deterministic_eq(&b);
    }

    #[test]
    fn banked_dram_punishes_random_traffic_more_than_streams() {
        let mut banked_cfg = small_cfg(8);
        banked_cfg.dram_banks_per_mc = 16;
        let stream = sweep_workload(60_000, 2, 96);
        let random = {
            let spec = PatternSpec::new(PatternKind::PointerChase, 60_000)
                .mem_ops_per_warp(40)
                .compute_per_mem(1.5);
            Workload::new("rnd", 5, vec![Kernel::new("k", 96, 256, spec)])
        };
        let slowdown = |wl: &Workload| {
            let flat = Simulator::new(small_cfg(8), wl).run().ipc();
            let banked = Simulator::new(banked_cfg.clone(), wl).run().ipc();
            flat / banked
        };
        let s_stream = slowdown(&stream);
        let s_random = slowdown(&random);
        assert!(
            s_random > s_stream,
            "row-buffer locality must matter: stream x{s_stream:.2} vs random x{s_random:.2}"
        );
    }

    #[test]
    fn mcm_simulation_runs_and_scales_with_chiplets() {
        use crate::chiplet::ChipletConfig;
        let spec =
            PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, 60_000).compute_per_mem(2.0);
        let kernel = Kernel::new("k", 1536, 256, spec);
        let wl2 = Workload::new("m2", 11, vec![kernel.clone()]);
        let mcm2 = ChipletConfig::paper_mcm(2, MemScale::default());
        let mcm4 = ChipletConfig::paper_mcm(4, MemScale::default());
        let s2 = Simulator::new_mcm(&mcm2, &wl2).run();
        let s4 = Simulator::new_mcm(&mcm4, &wl2).run();
        assert_eq!(s2.warp_instrs, wl2.approx_warp_instrs());
        assert!(
            s4.ipc() > 1.3 * s2.ipc(),
            "more chiplets must help: {} -> {}",
            s2.ipc(),
            s4.ipc()
        );
    }

    #[test]
    fn mcm_is_deterministic() {
        use crate::chiplet::ChipletConfig;
        let chase = PatternSpec::new(PatternKind::PointerChase, 20_000)
            .mem_ops_per_warp(10)
            .compute_per_mem(1.0);
        // Kernel boundaries mid-run exercise dispatch and first-touch
        // placement across kernels.
        let sweep = || {
            PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, 30_000).compute_per_mem(1.0)
        };
        let workloads = [
            Workload::new("m", 12, vec![Kernel::new("k", 512, 256, chase)]),
            Workload::new(
                "m-seq",
                14,
                vec![
                    Kernel::new("k0", 384, 256, sweep()),
                    Kernel::new("k1", 8, 256, sweep()),
                    Kernel::new("k2", 384, 256, sweep()),
                ],
            ),
        ];
        let mcm = ChipletConfig::paper_mcm(2, MemScale::default());
        for wl in &workloads {
            let a = Simulator::new_mcm(&mcm, wl).run();
            let b = Simulator::new_mcm(&mcm, wl).run();
            a.assert_deterministic_eq(&b);
        }
    }

    #[test]
    fn monolithic_beats_equal_size_mcm_on_shared_data() {
        // Remote first-touch traffic through the 900 GB/s inter-chiplet
        // links must cost something relative to a monolithic chip with
        // the same SM count and aggregate resources.
        use crate::chiplet::ChipletConfig;
        let spec =
            PatternSpec::new(PatternKind::GlobalSweep { passes: 1 }, 120_000).compute_per_mem(1.0);
        let kernel = Kernel::new("k", 1536, 256, spec);
        let wl = Workload::new("mono-vs-mcm", 13, vec![kernel.clone(), kernel]);
        let mcm = ChipletConfig::paper_mcm(2, MemScale::default());
        let mono = GpuConfig {
            n_sms: 128,
            sm_clock_ghz: mcm.chiplet.sm_clock_ghz,
            llc_bytes_total: mcm.chiplet.llc_bytes_total * 2,
            llc_slices: mcm.chiplet.llc_slices * 2,
            noc_gbs: mcm.chiplet.noc_gbs * 2.0,
            n_mcs: mcm.chiplet.n_mcs * 2,
            ..GpuConfig::paper_target(128, MemScale::default())
        };
        let s_mcm = Simulator::new_mcm(&mcm, &wl).run();
        let s_mono = Simulator::new(mono, &wl).run();
        assert!(
            s_mono.ipc() > s_mcm.ipc(),
            "inter-chiplet crossing must cost: mono {} vs mcm {}",
            s_mono.ipc(),
            s_mcm.ipc()
        );
    }

    #[test]
    fn kernels_execute_sequentially() {
        let spec = || PatternSpec::new(PatternKind::Streaming, 5_000).compute_per_mem(1.0);
        let wl = Workload::new(
            "seq",
            3,
            vec![
                Kernel::new("k0", 48, 256, spec()),
                Kernel::new("k1", 48, 256, spec()),
            ],
        );
        let stats = Simulator::new(small_cfg(8), &wl).run();
        assert_eq!(stats.kernels_executed, 2);
        assert_eq!(stats.ctas_executed, 96);
    }
}

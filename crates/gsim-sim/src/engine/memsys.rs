//! The partitioned memory system of a chip(let) and the request path
//! into it.
//!
//! The shared memory system of every chip(let) is divided into
//! `min(8, llc_slices, n_mcs)` fixed *partitions* ([`MemPartition`]),
//! each owning a slice group (global slice `g` belongs to partition
//! `g % K`), the memory controllers interleaved onto it, its own in-flight
//! fill tracker and a proportional share of the crossbar bisection — the
//! memory-partition structure of real GPUs (DESIGN.md §10). The
//! partitioning is part of the simulated machine: it fixes the
//! line-to-partition interleaving the results depend on.

use gsim_mem::{slice_for_line, BankedDramModel, DramModel, DramTiming, FillTracker, SlicedLlc};
use gsim_noc::Crossbar;

use crate::config::GpuConfig;

/// Cycles an LLC slice port is occupied by a normal access (slices are
/// dual-banked: two accesses per cycle).
const SLICE_OCCUPANCY: f64 = 0.5;
/// Cycles an LLC slice port is occupied by an atomic read-modify-write:
/// the read-modify-write turnaround serialises at the slice, which is what
/// makes hot shared lines camp (Zhao et al.'s memory-side camping [65]).
const ATOMIC_OCCUPANCY: f64 = 8.0;
/// Effective fraction of a transfer charged against the bisection
/// bandwidth: under uniform traffic only ~half of the transfers cross the
/// bisection, and requests/responses ride separate physical networks, so a
/// 128 B data response consumes ~a quarter of its size in bisection
/// capacity. This keeps an LLC-resident working set serviceable at near
/// full issue rate — the property behind the paper's post-cliff
/// "no longer stalled waiting for memory" assumption (Section V.C.2).
const BISECTION_FRACTION: f64 = 0.25;
/// Response payload of an atomic (a word, not a line).
const ATOMIC_BYTES: u32 = 32;
/// Memory partitions per chip(let), before clamping to the slice and
/// memory-controller counts.
const MEM_PARTITIONS: u32 = 8;

/// What kind of request enters the shared memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ReqKind {
    Load,
    Store,
    Atomic,
}

/// The DRAM backend: flat bandwidth server (default) or the banked
/// row-buffer model (`GpuConfig::dram_banks_per_mc > 0`).
pub(super) enum Dram {
    Flat(DramModel),
    Banked(BankedDramModel),
}

impl Dram {
    fn read(&mut self, now: u64, line: u64, bytes: u32) -> u64 {
        match self {
            Dram::Flat(d) => d.read(now, line, bytes),
            Dram::Banked(d) => d.read(now, line, bytes),
        }
    }

    fn write_back(&mut self, now: u64, line: u64, bytes: u32) {
        match self {
            Dram::Flat(d) => d.write_back(now, line, bytes),
            Dram::Banked(d) => d.write_back(now, line, bytes),
        }
    }
}

/// The fixed partitioning of a chip(let)'s memory system. Identical for
/// every chiplet of an MCM (they share one per-chiplet configuration);
/// global partition id = `chiplet * per_chiplet + sub_partition`.
#[derive(Debug, Clone, Copy)]
pub(super) struct PartitionMap {
    /// Partitions per chip(let): `min(MEM_PARTITIONS, llc_slices, n_mcs)`.
    pub per_chiplet: u32,
    /// Global LLC slices per chip(let) (the hash domain).
    pub llc_slices: u32,
}

impl PartitionMap {
    fn new(cfg: &GpuConfig) -> Self {
        Self {
            per_chiplet: MEM_PARTITIONS.min(cfg.llc_slices).min(cfg.n_mcs),
            llc_slices: cfg.llc_slices,
        }
    }

    /// `(sub_partition, local_slice)` of `line` within its owner
    /// chip(let). The *global* slice hash is unchanged from the
    /// unpartitioned model; partition `k` owns global slices
    /// `{k, k + K, k + 2K, ...}`.
    #[inline]
    pub(super) fn route(&self, line: u64) -> (u32, u32) {
        let g = slice_for_line(line, self.llc_slices);
        (g % self.per_chiplet, g / self.per_chiplet)
    }
}

/// One request into a partition. `t0` is the cycle the request enters the
/// memory system.
pub(super) struct MemReq {
    pub t0: u64,
    pub line: u64,
    pub local_slice: u32,
    pub kind: ReqKind,
    /// Requester chiplet differs from the owner chiplet (MCM remote).
    pub remote: bool,
}

/// A partition's answer to one request. `local_done` is the response
/// arrival over the partition's crossbar share; `data_at_llc` is when the
/// data left the LLC (the departure time of the inter-chiplet leg, which
/// the engine charges for remote requests).
#[derive(Debug, Clone, Copy)]
pub(super) struct MemResp {
    pub local_done: f64,
    pub data_at_llc: f64,
    pub payload: u32,
}

/// One memory partition: a slice group of the LLC, the memory controllers
/// interleaved onto it, a proportional share of the crossbar bisection,
/// and its own in-flight fill tracker.
pub(super) struct MemPartition {
    pub noc: Crossbar,
    pub llc: SlicedLlc,
    pub slice_free: Vec<f64>,
    pub dram: Dram,
    /// In-flight LLC fills (line -> completion cycle), for miss merging.
    pub pending: FillTracker,
    // Statistics, harvested once at the end of the run.
    pub llc_accesses: u64,
    pub llc_misses: u64,
    pub dram_bytes: u64,
    llc_latency: f64,
    line_bytes: u32,
    /// Chiplet-crossing latency of a remote request (0 when monolithic).
    crossing_latency: f64,
}

impl MemPartition {
    /// Builds sub-partition `k` (of `map.per_chiplet`) of one chip(let).
    fn new(cfg: &GpuConfig, map: PartitionMap, k: u32, crossing_latency: f64) -> Self {
        let kk = map.per_chiplet;
        debug_assert!(k < kk);
        // Slice group {k, k+K, ...}: same per-slice capacity as the
        // unpartitioned LLC, local index g / K.
        let n_slices = (map.llc_slices - k).div_ceil(kk);
        let slice_bytes = cfg.llc_bytes_total / u64::from(cfg.llc_slices);
        let llc = SlicedLlc::partition(
            slice_bytes,
            n_slices,
            cfg.llc_ways,
            cfg.line_bytes,
            cfg.llc_policy,
        );
        // Memory controllers interleaved round-robin across partitions;
        // within the partition, lines re-hash over the owned controllers
        // (the partition is the unit that pairs slices with channels).
        let n_mcs = (cfg.n_mcs - k).div_ceil(kk);
        let dram = if cfg.dram_banks_per_mc > 0 {
            Dram::Banked(BankedDramModel::new(
                n_mcs,
                cfg.dram_banks_per_mc,
                cfg.dram_gbs_per_mc,
                cfg.sm_clock_ghz,
                DramTiming::default(),
            ))
        } else {
            Dram::Flat(DramModel::new(
                n_mcs,
                cfg.dram_gbs_per_mc,
                cfg.sm_clock_ghz,
                cfg.dram_latency,
            ))
        };
        Self {
            noc: Crossbar::from_gbs(
                cfg.noc_gbs / f64::from(kk),
                cfg.sm_clock_ghz,
                cfg.noc_hop_latency,
            ),
            slice_free: vec![0.0; n_slices as usize],
            llc,
            dram,
            pending: FillTracker::new(),
            llc_accesses: 0,
            llc_misses: 0,
            dram_bytes: 0,
            llc_latency: f64::from(cfg.llc_latency),
            line_bytes: cfg.line_bytes,
            crossing_latency,
        }
    }

    /// Serves one request against this partition's state.
    pub(super) fn access(&mut self, e: &MemReq) -> MemResp {
        // Request travel: crossbar hop (+ chiplet crossing if remote).
        let mut t = e.t0 as f64 + f64::from(self.noc.hop_latency());
        if e.remote {
            t += self.crossing_latency;
        }
        // Slice port (camping point).
        let occupancy = if e.kind == ReqKind::Atomic {
            ATOMIC_OCCUPANCY
        } else {
            SLICE_OCCUPANCY
        };
        let start = self.slice_free[e.local_slice as usize].max(t);
        self.slice_free[e.local_slice as usize] = start + occupancy;
        let tag_done = start + self.llc_latency;

        // Tag lookup; eager fill with an in-flight merge map for
        // timing.
        let is_write = e.kind == ReqKind::Store;
        let result = self.llc.access_in_slice(e.local_slice, e.line, is_write);
        self.llc_accesses += 1;
        let data_at_llc = if result.is_hit() {
            match self.pending.fill_after(e.line, e.t0) {
                Some(fill) => fill as f64,
                None => tag_done,
            }
        } else {
            self.llc_misses += 1;
            if let Some(victim) = result.evicted() {
                if victim.dirty {
                    self.dram
                        .write_back(tag_done as u64, victim.line_addr, self.line_bytes);
                    self.dram_bytes += u64::from(self.line_bytes);
                }
            }
            let fill = self.dram.read(tag_done as u64, e.line, self.line_bytes);
            self.dram_bytes += u64::from(self.line_bytes);
            self.pending.insert(e.line, fill, e.t0);
            fill as f64
        };

        // Response travel over this partition's bisection share.
        let payload = if e.kind == ReqKind::Atomic {
            ATOMIC_BYTES
        } else {
            self.line_bytes
        };
        let eff = ((f64::from(payload) * BISECTION_FRACTION) as u32).max(1);
        let local_done = self.noc.traverse(data_at_llc, eff);
        MemResp {
            local_done,
            data_at_llc,
            payload,
        }
    }
}

/// Builds the partitioning of a system's chip(let)s and its full
/// partition set: `n_chiplets * map.per_chiplet` partitions,
/// chiplet-major. `crossing_latency` is the chiplet-crossing latency of
/// remote requests (0 for a monolithic GPU).
pub(super) fn build_partitions(
    cfg: &GpuConfig,
    n_chiplets: u32,
    crossing_latency: f64,
) -> (PartitionMap, Vec<MemPartition>) {
    let map = PartitionMap::new(cfg);
    let parts = (0..n_chiplets)
        .flat_map(|_| {
            (0..map.per_chiplet).map(|k| MemPartition::new(cfg, map, k, crossing_latency))
        })
        .collect();
    (map, parts)
}

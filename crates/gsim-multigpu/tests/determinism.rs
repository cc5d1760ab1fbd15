//! The multi-GPU determinism contract (DESIGN.md §16): aggregate
//! `SimStats` must be bit-identical across repeated runs for every
//! topology × placement combination, the same contract the single-package
//! engine honours (§10).

use gsim_multigpu::{Placement, SystemConfig, SystemSim, Tenant, Topology};
use gsim_trace::{DagParams, MemScale};

fn tenants() -> Vec<Tenant> {
    let params = DagParams {
        n_kernels: 4,
        max_ctas: 24,
        min_footprint_lines: 1 << 10,
        max_footprint_lines: 1 << 12,
        ..DagParams::default()
    };
    (0..2)
        .map(|i| Tenant::generate(format!("tenant{i}"), 7 + i, &params))
        .collect()
}

fn run(cfg: &SystemConfig, tenants: &[Tenant]) -> gsim_sim::SimStats {
    SystemSim::new(cfg.clone(), tenants).run().stats
}

#[test]
fn repeated_runs_are_bit_identical() {
    let ts = tenants();
    let mut cfgs = Vec::new();
    for topology in [Topology::Ring, Topology::FullyConnected] {
        for placement in [Placement::FirstTouch, Placement::Interleave] {
            let mut cfg = SystemConfig::paper_node(2, 8, MemScale::default());
            cfg.topology = topology;
            cfg.placement = placement;
            cfgs.push(cfg);
        }
    }
    // Four GPUs with two kernel slots each, under read replication.
    let mut cfg = SystemConfig::paper_node(4, 8, MemScale::default());
    cfg.sharing = 2;
    cfg.placement = Placement::ReadReplicate;
    cfgs.push(cfg);
    for cfg in &cfgs {
        let a = run(cfg, &ts);
        let b = run(cfg, &ts);
        a.assert_deterministic_eq(&b);
        assert!(a.cycles > 0);
    }
}

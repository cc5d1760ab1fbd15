//! The committed `SimStats` reference (`perfbench/reference.json`).
//!
//! For each seed it lists, it holds a digest of every `SimStats` field
//! except the wall-clock `sim_wall_seconds`, per benchmark and SM count,
//! plus the 32/64/128-SM sustained IPCs against which served answers are
//! scored. The file changes only through `--write-reference`; a run never
//! rewrites it.

use std::collections::BTreeMap;

use gsim_json::{obj, Json};
use gsim_sim::SimStats;
use gsim_trace::MemScale;

use crate::strong::{SIZES, TARGETS};
use crate::util::fnv1a;

pub const PATH: &str = "perfbench/reference.json";
const SCHEMA: &str = "perfbench-simstats-reference-v1";

/// FNV-1a over the little-endian bytes of every simulated field.
pub fn digest(s: &SimStats) -> u64 {
    let mut words = vec![
        s.cycles,
        s.warp_instrs,
        s.thread_instrs,
        s.llc_accesses,
        s.llc_misses,
        s.l1_accesses,
        s.l1_misses,
        s.dram_bytes,
        s.mem_stall_sm_cycles,
        s.idle_sm_cycles,
        s.total_sm_cycles,
        s.ctas_executed,
        s.kernels_executed,
        s.cycle_at_10pct,
        s.cycle_at_90pct,
        s.warp_instrs_window,
        s.kernel_cycles.len() as u64,
    ];
    words.extend_from_slice(&s.kernel_cycles);
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a(&bytes)
}

#[derive(Default)]
pub struct Reference {
    /// `(seed, benchmark)` → one digest per size of [`SIZES`].
    pub digests: BTreeMap<(u64, String), Vec<u64>>,
    /// Seed-0 benchmark → sustained IPC at each of [`TARGETS`].
    pub target_ipc: BTreeMap<String, Vec<f64>>,
}

impl Reference {
    pub fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string(PATH).map_err(|e| format!("{PATH}: {e}"))?;
        let doc = gsim_json::parse(&text).map_err(|e| format!("{PATH}: {e}"))?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("{PATH}: schema is not {SCHEMA}"));
        }
        let bad = |what: &str| format!("{PATH}: malformed {what}");
        let mut reference = Reference::default();
        for entry in doc
            .get("seeds")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("seeds"))?
        {
            let seed = entry
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("seed"))?;
            let table = entry
                .get("digests")
                .and_then(Json::as_obj)
                .ok_or_else(|| bad("digests"))?;
            for (abbr, list) in table {
                let digests = list
                    .as_arr()
                    .ok_or_else(|| bad("digest list"))?
                    .iter()
                    .map(|d| d.as_str().and_then(|h| u64::from_str_radix(h, 16).ok()))
                    .collect::<Option<Vec<u64>>>()
                    .filter(|d| d.len() == SIZES.len())
                    .ok_or_else(|| bad("digest list"))?;
                reference.digests.insert((seed, abbr.clone()), digests);
            }
        }
        for (abbr, list) in doc
            .get("target_ipc")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("target_ipc"))?
        {
            let ipcs = list
                .as_arr()
                .ok_or_else(|| bad("target_ipc list"))?
                .iter()
                .map(Json::as_f64)
                .collect::<Option<Vec<f64>>>()
                .filter(|v| v.len() == TARGETS.len())
                .ok_or_else(|| bad("target_ipc list"))?;
            reference.target_ipc.insert(abbr.clone(), ipcs);
        }
        Ok(reference)
    }

    /// The input variant `--seed` selects: `seed` itself if the
    /// reference covers it, else the `seed mod count`-th covered seed.
    pub fn variant(&self, seed: u64) -> Result<u64, String> {
        let mut seeds: Vec<u64> = self.digests.keys().map(|(s, _)| *s).collect();
        seeds.dedup();
        if seeds.is_empty() {
            return Err(format!("{PATH}: no seeds"));
        }
        Ok(if seeds.contains(&seed) {
            seed
        } else {
            seeds[(seed % seeds.len() as u64) as usize]
        })
    }

    /// The seed-0 sustained IPC of `abbr` at `target` SMs.
    pub fn ipc_at(&self, abbr: &str, target: u32) -> Option<f64> {
        let i = TARGETS.iter().position(|&t| t == target)?;
        self.target_ipc.get(abbr).map(|v| v[i])
    }

    pub fn save(&self) -> Result<(), String> {
        let seeds: Vec<u64> = {
            let mut s: Vec<u64> = self.digests.keys().map(|(s, _)| *s).collect();
            s.dedup();
            s
        };
        let seed_json = seeds
            .iter()
            .map(|&seed| {
                let table = self
                    .digests
                    .iter()
                    .filter(|((s, _), _)| *s == seed)
                    .map(|((_, abbr), d)| {
                        let hex = d.iter().map(|x| Json::from(format!("{x:016x}"))).collect();
                        (abbr.clone(), Json::Arr(hex))
                    })
                    .collect();
                obj([("seed", Json::from(seed)), ("digests", Json::Obj(table))])
            })
            .collect();
        let ipc_json = self
            .target_ipc
            .iter()
            .map(|(abbr, v)| {
                (
                    abbr.clone(),
                    Json::Arr(v.iter().map(|&x| Json::from(x)).collect()),
                )
            })
            .collect();
        let doc = obj([
            ("schema", Json::from(SCHEMA)),
            ("mem_scale", Json::from(MemScale::default().divisor())),
            (
                "sizes",
                Json::Arr(SIZES.iter().map(|&s| Json::from(s)).collect()),
            ),
            ("seeds", Json::Arr(seed_json)),
            ("target_ipc", Json::Obj(ipc_json)),
        ]);
        // One seed per line keeps diffs of the file readable.
        let text = doc.render().replace("},{\"seed\"", "},\n{\"seed\"") + "\n";
        std::fs::write(PATH, text).map_err(|e| format!("{PATH}: {e}"))
    }
}

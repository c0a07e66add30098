//! The three workloads, each generated as scenario TOML from a seed.
//!
//! The program sees only the generated [`ScenarioSpec`]: the seed picks the
//! synthetic combustion field (and with it every stage's data), while the
//! shape of each workload — dataset, textures, stage mix, cache size,
//! session schedule — is fixed, so two seeds exercise the same layers with
//! the same amount of work.  `README.md` in this directory records why each
//! workload exists and which layer it loads.

use visapult::core::ScenarioSpec;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Combustion Corridor playback: overlapped, render-bound, warm cache.
    CorridorRender,
    /// Serial playback through a block cache far smaller than the scan.
    CacheChurn,
    /// The async fan-out plane serving thousands of sessions.
    ExhibitFanout,
}

/// 64 KB logical DPSS blocks in one 128×128×64 float timestep.
const BLOCKS_PER_TIMESTEP: usize = 128 * 128 * 64 * 4 / (64 * 1024);

/// Timesteps each corridor stage plays back (warm-up and playbacks alike).
const CORRIDOR_STEPS: usize = 4;
/// Corridor stages: one warm-up, then equal playback passes.
const CORRIDOR_STAGES: usize = 4;
/// Timesteps the cache-churn scan covers per pass.
const CHURN_STEPS: usize = 16;
/// Cache-churn passes, each a full sequential scan.
const CHURN_PASSES: usize = 4;
/// Exhibit frames per stage (floor and churn alike).
const EXHIBIT_STEPS: usize = 32;
/// Sessions on the exhibit floor.
const EXHIBIT_FLOOR_SESSIONS: usize = 4096;

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [Workload::CorridorRender, Workload::CacheChurn, Workload::ExhibitFanout];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CorridorRender => "corridor_render",
            Workload::CacheChurn => "cache_churn",
            Workload::ExhibitFanout => "exhibit_fanout",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario seed a benchmark seed maps to (a bijective mix, so
    /// neighbouring benchmark seeds give unrelated data fields).
    pub fn scenario_seed(seed: u64) -> u64 {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The generated scenario TOML.  `telemetry` turns the program's own
    /// metrics plane on (traced rounds) or off (measured rounds); it never
    /// changes the replay fingerprint.
    pub fn spec_toml(self, seed: u64, telemetry: bool) -> String {
        let seed = Workload::scenario_seed(seed);
        let body = match self {
            Workload::CorridorRender => corridor_render(),
            Workload::CacheChurn => cache_churn(),
            Workload::ExhibitFanout => exhibit_fanout(),
        };
        format!(
            "[scenario]\nname = \"bench-{name}\"\nseed = {seed}\npath = \"real\"\n\n{body}\n\
             [telemetry]\nenable = {telemetry}\nsample_every = 1\n",
            name = self.name().replace('_', "-"),
        )
    }

    /// The generated spec, parsed exactly as a scenario file would be.
    pub fn spec(self, seed: u64, telemetry: bool) -> Result<ScenarioSpec, String> {
        ScenarioSpec::from_toml_str(&self.spec_toml(seed, telemetry)).map_err(|e| e.to_string())
    }
}

/// `[[stages]]` tables from (name, timesteps) pairs, as shares of the total.
fn stages(steps: &[(String, usize)]) -> String {
    let total: usize = steps.iter().map(|(_, n)| n).sum();
    steps
        .iter()
        .map(|(name, n)| {
            let share = 100.0 * *n as f64 / total as f64;
            format!("[[stages]]\nname = \"{name}\"\nshare = {share:?}\n\n")
        })
        .collect()
}

fn corridor_render() -> String {
    let mut names = vec![("warm-up".to_string(), CORRIDOR_STEPS)];
    names.extend((1..CORRIDOR_STAGES).map(|i| (format!("playback-{i}"), CORRIDOR_STEPS)));
    // The cache holds the whole working set plus slack: every read after
    // the warm-up stage is a hit.
    let capacity = CORRIDOR_STEPS * BLOCKS_PER_TIMESTEP + BLOCKS_PER_TIMESTEP;
    format!(
        "[testbed]\nkind = \"nton-cplant\"\n\n\
         [pipeline]\npes = 2\ntimesteps = {steps}\nexecution = \"overlapped\"\nstreams_per_pe = 2\n\n\
         [dataset]\ndims = [128, 128, 64]\n\n[render]\nimage = [256, 256]\n\n[real]\nuse_dpss = true\n\n\
         [cache]\ncapacity_blocks = {capacity}\nshards = 4\n\n{stages}",
        steps = CORRIDOR_STEPS * CORRIDOR_STAGES,
        stages = stages(&names),
    )
}

fn cache_churn() -> String {
    let names: Vec<(String, usize)> = (1..=CHURN_PASSES).map(|i| (format!("scan-{i}"), CHURN_STEPS)).collect();
    // One sixteenth of the scanned working set: the sequential scan's reuse
    // distance is the whole series, so LRU misses and evicts every block.
    let capacity = CHURN_STEPS * BLOCKS_PER_TIMESTEP / 16;
    format!(
        "[testbed]\nkind = \"lan-smp\"\n\n\
         [pipeline]\npes = 2\ntimesteps = {steps}\nexecution = \"serial\"\nstreams_per_pe = 2\n\n\
         [dataset]\ndims = [128, 128, 64]\n\n[render]\nimage = [32, 32]\n\n[real]\nuse_dpss = true\n\n\
         [cache]\ncapacity_blocks = {capacity}\nshards = 4\n\n{stages}",
        steps = CHURN_STEPS * CHURN_PASSES,
        stages = stages(&names),
    )
}

fn exhibit_fanout() -> String {
    // Sessions share the farm's TCP tuning and stripe count, so their
    // modeled last mile equals the farm egress and no pacer binds
    // (`flow_limited_sessions = 0`).  Capacities are sized so every
    // session is admitted whichever shard its viewpoint hashes to.  The
    // shallow link queue keeps a few frames in flight per PE, so frame
    // latency is the plane's service time, not a buffer's fill level.
    format!(
        "[testbed]\nkind = \"lan-smp\"\n\n\
         [pipeline]\npes = 2\ntimesteps = {steps}\nexecution = \"overlapped\"\nstreams_per_pe = 2\n\n\
         [dataset]\ndims = [32, 32, 32]\n\n[render]\nimage = [32, 32]\n\n[real]\nuse_dpss = true\n\n\
         [transport]\nstripes = 4\nchunk_kb = 2\nqueue_depth = 4\ntcp = \"wan-tuned\"\n\n\
         [service]\nmax_sessions = 8192\nlink_capacity_units = 32768\nrender_slots = 16\nqueue_depth = 64\n\
         plane = \"async\"\nworkers = 2\nshards = 2\n\n\
         [[service.arrivals]]\nstage = \"floor\"\nsessions = {floor}\nviewpoints = 8\ntier = \"standard\"\n\n\
         [[service.arrivals]]\nstage = \"churn\"\nsessions = {steady}\nviewpoints = 8\ntier = \"standard\"\n\n\
         [[service.arrivals]]\nstage = \"churn\"\nsessions = 256\nviewpoints = 4\ntier = \"preview\"\n\
         join_spread_percent = 75.0\ndwell_frames = 4\n\n{stages}",
        steps = 2 * EXHIBIT_STEPS,
        floor = EXHIBIT_FLOOR_SESSIONS,
        steady = EXHIBIT_FLOOR_SESSIONS / 4,
        stages = stages(&[
            ("floor".to_string(), EXHIBIT_STEPS),
            ("churn".to_string(), EXHIBIT_STEPS)
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_spec_resolves() {
        for w in Workload::ALL {
            for telemetry in [false, true] {
                let spec = w.spec(1, telemetry).expect("spec parses");
                spec.resolve().expect("spec resolves");
            }
        }
    }

    #[test]
    fn the_seed_changes_only_the_scenario_seed() {
        for w in Workload::ALL {
            let a = w.spec_toml(1, false);
            let b = w.spec_toml(2, false);
            assert_ne!(a, b);
            let strip = |s: &str| {
                s.lines()
                    .filter(|l| !l.starts_with("seed ="))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(strip(&a), strip(&b));
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}

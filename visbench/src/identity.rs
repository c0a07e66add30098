//! Run identity: what produced a result, printed beside every result.

use crate::output::json_string;

/// The seed a run uses when none is given, and the seed held out for
/// confirming a later claim (never used while tuning a change).
pub const DEFAULT_SEED: u64 = 1;
/// See [`DEFAULT_SEED`].
pub const HELD_OUT_SEED: u64 = 2027;

/// 64-bit FNV-1a, for the generated spec's fingerprint.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The machine, build and input a result came from.
pub struct Identity {
    /// Workload name.
    pub workload: &'static str,
    /// Benchmark seed.
    pub seed: u64,
    /// FNV-1a of the generated scenario TOML.
    pub spec_hash: u64,
}

impl Identity {
    /// One JSON object with every identity field.
    pub fn to_json(&self) -> String {
        let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
        let fields = [
            ("workload", json_string(self.workload)),
            ("seed", self.seed.to_string()),
            ("spec_fnv1a64", json_string(&format!("{:016x}", self.spec_hash))),
            ("nproc", nproc.to_string()),
            ("cpu_model", json_string(&cpu_model())),
            ("build_profile", json_string(env!("VISBENCH_PROFILE"))),
            ("git_commit", json_string(env!("VISBENCH_COMMIT"))),
            ("rustc", json_string(env!("VISBENCH_RUSTC"))),
            ("default_seed", DEFAULT_SEED.to_string()),
            ("held_out_seed", HELD_OUT_SEED.to_string()),
        ];
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", json_string(k))).collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The CPU model from `/proc/cpuinfo` (`unknown` elsewhere).
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process in MB (`VmHWM`), if the kernel
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

//! `visbench` — the Visapult end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path visbench/Cargo.toml -- \
//!     --workload corridor_render --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One invocation generates one workload's scenario from `--seed`, replays
//! it once on the virtual-time twin (the correctness oracle and the
//! calibration model), then runs it on the real path through
//! `Pipeline::builder(spec).build()?.run()` round after round until
//! `--seconds` have passed.  Every round is a closed loop: each PE ships its
//! next frame only when its striped link accepted the previous one, and
//! session joins and leaves are scheduled by frame index.  The benchmark
//! itself starts no threads.
//!
//! `--trace 0` reports the end-to-end metrics, measured with the program's
//! telemetry plane off.  `--trace 1` alternates measured rounds with traced
//! ones (telemetry on, lifelines reduced per layer) and reports the
//! per-layer ledger.  Either way the last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.  A run whose
//! outputs fail the correctness gate prints `correct: false` with no
//! metrics and exits non-zero.

mod identity;
mod layers;
mod ledger;
mod output;
mod seams;
mod workloads;

use identity::{fnv1a64, peak_rss_mb, Identity, DEFAULT_SEED};
use ledger::{frame_latencies, median, split_stages, Quantiles};
use output::{result_line, Metrics};
use seams::{Recorder, Recording};
use std::process::ExitCode;
use visapult::core::campaign::scenario::StageMetrics;
use visapult::core::{CampaignReport, ExecutionPath, Pipeline, ScenarioSpec};
use visapult::netlogger::Event;
use workloads::Workload;

/// Measured rounds after which the process's peak RSS is read.  A fixed
/// amount of work, so the figure does not grow with the number of rounds
/// that fit into the run (the allocator keeps per-thread arenas that later
/// rounds' fresh threads keep spreading over).
const RSS_ROUNDS: usize = 2;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: visbench --workload <corridor_render|cache_churn|exhibit_fanout> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("bad {what} `{value}`\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?),
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed,
        seconds,
        trace,
    })
}

/// One real-path pipeline run and what the decorators saw of it.
pub struct Round {
    /// Whether the program's telemetry plane was on.
    pub traced: bool,
    /// The campaign report.
    pub report: CampaignReport,
    /// Seam spans and stage starts, on a clock started just before
    /// `Pipeline::builder(..).build()`.
    pub rec: Recording,
    /// `run()` return on the same clock.
    pub run_end: f64,
}

impl Round {
    fn run(spec: &ScenarioSpec, traced: bool) -> Result<Round, String> {
        let rec = Recorder::new();
        let pipeline = rec
            .install(Pipeline::builder(spec.clone()))
            .build()
            .map_err(|e| format!("build: {e}"))?;
        let report = pipeline.run().map_err(|e| format!("run: {e}"))?;
        let run_end = rec.now();
        let recording = rec.snapshot();
        if recording.stage_starts.len() != report.stages.len() {
            return Err(format!(
                "saw {} stage starts for {} stages",
                recording.stage_starts.len(),
                report.stages.len()
            ));
        }
        Ok(Round {
            traced,
            report,
            rec: recording,
            run_end,
        })
    }

    /// Pipeline build plus everything `run()` does before the first stage
    /// (DPSS staging: synthetic series generation and `write_at`).
    fn setup_s(&self) -> f64 {
        self.rec.stage_starts[0]
    }

    /// First stage start to `run()` return: every stage, plane drains
    /// included, setup excluded.
    pub fn window_s(&self) -> f64 {
        self.run_end - self.rec.stage_starts[0]
    }

    /// Each stage's wall time: its start to the next stage's start (the
    /// last one ends when `run()` returns).
    pub fn stage_walls(&self) -> Vec<f64> {
        let starts = &self.rec.stage_starts;
        (0..starts.len())
            .map(|i| starts.get(i + 1).copied().unwrap_or(self.run_end) - starts[i])
            .collect()
    }

    /// PE-frames the viewer composited.
    fn pe_frames(&self) -> u64 {
        self.report
            .stages
            .iter()
            .map(|s| s.metrics.frames_received as u64)
            .sum()
    }

    /// Frames delivered to viewers: every session frame the plane completed
    /// plus every frame the primary viewer composited.
    fn viewer_frames(&self) -> u64 {
        self.report
            .stages
            .iter()
            .map(|s| s.metrics.service.frames_completed + s.timesteps as u64)
            .sum()
    }

    /// The stages' lifeline events on the round clock.
    pub fn stage_events(&self) -> Vec<Vec<Event>> {
        let mut offsets = Vec::with_capacity(self.report.stages.len());
        let mut offset = 0.0;
        for s in &self.report.stages {
            offsets.push(offset);
            offset += s.metrics.total_time;
        }
        split_stages(&self.report.log, &self.rec.stage_starts, &offsets)
    }

    /// Every frame's latency, stage by stage.
    fn latencies(&self) -> Vec<f64> {
        self.stage_events().iter().flat_map(|e| frame_latencies(e)).collect()
    }

    /// Operations attempted: expected primary PE-frames plus admitted
    /// session-frames.
    fn attempted(&self) -> u64 {
        self.report
            .stages
            .iter()
            .map(|s| (s.timesteps * s.pes) as u64 + s.metrics.service.render_requests)
            .sum()
    }

    /// Operations failed: missing or corrupt frames at the viewer, session
    /// frames skipped and chunks dropped.
    fn failed(&self) -> u64 {
        let service: u64 = self
            .report
            .stages
            .iter()
            .map(|s| s.metrics.service.frames_skipped + s.metrics.service.chunks_dropped)
            .sum();
        self.rec.viewer.missing + self.rec.viewer.corrupt + service
    }
}

/// The output-correctness gate: every round against the virtual-time twin
/// and against the first round.
struct Gate {
    twin: CampaignReport,
    first: Option<(u64, Vec<u64>)>,
    errors: Vec<String>,
}

impl Gate {
    fn check(&mut self, round: &Round) {
        let tag = if round.traced { "traced round" } else { "round" };
        let mut fail = |msg: String| self.errors.push(format!("{tag}: {msg}"));
        if round.rec.viewer.missing + round.rec.viewer.corrupt > 0 {
            fail(format!("viewer lost or rejected frames: {:?}", round.rec.viewer));
        }
        for (real, twin) in round.report.stages.iter().zip(&self.twin.stages) {
            let (m, t) = (&real.metrics, &twin.metrics);
            if m.frames_received != real.timesteps * real.pes || m.frames_rendered != real.timesteps {
                fail(format!(
                    "stage {}: composited {} of {} PE-frames",
                    real.name,
                    m.frames_received,
                    real.timesteps * real.pes
                ));
            }
            if m.image_hash == 0 {
                fail(format!("stage {}: empty final composite", real.name));
            }
            let cache = |c: &visapult::dpss::CacheStats| (c.hits, c.misses, c.evictions);
            if cache(&m.cache) != cache(&t.cache) {
                fail(format!(
                    "stage {}: cache (hits, misses, evictions) {:?} != twin {:?}",
                    real.name,
                    cache(&m.cache),
                    cache(&t.cache)
                ));
            }
            let life = |s: &visapult::core::ServiceStats| {
                [
                    s.sessions_offered,
                    s.sessions_admitted,
                    s.sessions_rejected,
                    s.sessions_evicted,
                    s.peak_live_sessions,
                    s.render_requests,
                    s.renders_performed,
                ]
            };
            if life(&m.service) != life(&t.service) {
                fail(format!(
                    "stage {}: service lifecycle {:?} != twin {:?}",
                    real.name,
                    life(&m.service),
                    life(&t.service)
                ));
            }
        }
        if round.report.stages.len() != self.twin.stages.len() {
            fail("stage count differs from the twin".to_string());
        }
        let identity = (
            round.report.replay_fingerprint(),
            round
                .report
                .stages
                .iter()
                .map(|s| s.metrics.image_hash)
                .collect::<Vec<_>>(),
        );
        match &self.first {
            None => self.first = Some(identity),
            Some(first) if *first != identity => fail(format!(
                "replay fingerprint / stage image hashes {:016x} {:x?} differ from the first round's {:016x} {:x?}",
                identity.0, identity.1, first.0, first.1
            )),
            Some(_) => {}
        }
    }
}

/// What one measured round contributes, kept after its report is dropped.
pub struct Measured {
    /// Pipeline build plus staging.
    setup_s: f64,
    /// First stage start to `run()` return.
    pub window_s: f64,
    /// PE-frames composited.
    pe_frames: u64,
    /// Session frames completed plus primary frames composited.
    viewer_frames: u64,
    /// Summed stage walls.
    stage_wall_s: f64,
    /// Per-frame latencies, seconds.
    latencies: Vec<f64>,
    /// Timestep-weighted mean load, render and send phase times.
    pub means: [f64; 3],
}

impl Measured {
    fn of(round: &Round) -> Measured {
        Measured {
            setup_s: round.setup_s(),
            window_s: round.window_s(),
            pe_frames: round.pe_frames(),
            viewer_frames: round.viewer_frames(),
            stage_wall_s: round.stage_walls().iter().sum(),
            latencies: round.latencies(),
            means: Measured::phase_means(&round.report),
        }
    }

    /// A report's load, render and send phase means, weighted by each
    /// stage's timesteps.
    pub fn phase_means(report: &CampaignReport) -> [f64; 3] {
        let steps: usize = report.stages.iter().map(|s| s.timesteps).sum();
        let mean = |f: fn(&StageMetrics) -> f64| {
            report
                .stages
                .iter()
                .map(|s| f(&s.metrics) * s.timesteps as f64)
                .sum::<f64>()
                / steps as f64
        };
        [
            mean(|m| m.mean_load_time),
            mean(|m| m.mean_render_time),
            mean(|m| m.mean_send_time),
        ]
    }
}

/// The end-to-end metrics over the measured rounds.
fn end_to_end(workload: Workload, measured: &[Measured], peak_rss: f64) -> Metrics {
    let n = measured.len();
    let each = |f: &dyn Fn(&Measured) -> f64| measured.iter().map(f).collect::<Vec<_>>();
    let latencies: Vec<f64> = measured.iter().flat_map(|r| r.latencies.iter().copied()).collect();
    let lat = Quantiles::of(&latencies);
    let mut m = Metrics::default();
    m.push("setup_s", median(&each(&|r| r.setup_s)), "s", n);
    m.push(
        "frames_per_s",
        median(&each(&|r| r.pe_frames as f64 / r.window_s)),
        "1/s",
        n,
    );
    m.push("frame_latency_p50_ms", lat.p50 * 1e3, "ms", lat.count);
    m.push("frame_latency_p90_ms", lat.p90 * 1e3, "ms", lat.count);
    m.push(
        "session_frames_per_s",
        median(&each(&|r| r.viewer_frames as f64 / r.stage_wall_s)),
        "1/s",
        n,
    );
    m.push("peak_rss_mb", peak_rss, "MB", 1);
    if lat.beyond_p90() < 10 {
        eprintln!(
            "warning: {}: frame_latency_p90_ms rests on {} samples, only {} beyond it",
            workload.name(),
            lat.count,
            lat.beyond_p90()
        );
    }
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("visbench: {}: {e}", args.workload.name());
            ExitCode::from(2)
        }
    }
}

/// Run one invocation; `Ok(false)` when the correctness gate rejected it.
fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let spec_toml = w.spec_toml(args.seed, false);
    let spec = w.spec(args.seed, false)?;
    let traced_spec = w.spec(args.seed, true)?;
    let identity = Identity {
        workload: w.name(),
        seed: args.seed,
        spec_hash: fnv1a64(spec_toml.as_bytes()),
    };
    println!("identity: {}", identity.to_json());

    let twin = Pipeline::builder(spec.clone())
        .path(ExecutionPath::VirtualTime)
        .build()
        .and_then(|p| p.run())
        .map_err(|e| format!("virtual-time twin: {e}"))?;
    let mut gate = Gate {
        twin,
        first: None,
        errors: Vec::new(),
    };

    // One warm-up round (checked, not measured), then measured rounds —
    // alternating with traced ones when tracing — until the run length is
    // spent: at least two measured rounds, so the fingerprint is compared
    // across runs, and one traced round.  Each round is reduced as soon as
    // it ends.
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut measured: Vec<Measured> = Vec::new();
    let mut tracer = layers::Tracer::new(w);
    let mut traced = 0usize;
    let mut clock = None;
    let mut peak_rss = None;
    loop {
        let enough = measured.len() >= 2 && (!args.trace || traced >= 1);
        if enough && clock.as_ref().is_some_and(|c: &Recorder| c.now() >= args.seconds) {
            break;
        }
        let trace_next = clock.is_some() && args.trace && traced < measured.len();
        let round = Round::run(if trace_next { &traced_spec } else { &spec }, trace_next)?;
        gate.check(&round);
        attempted += round.attempted();
        failed += round.failed();
        let lat = Quantiles::of(&round.latencies());
        println!(
            "round {:>2}{}: setup {:.4} s, window {:.4} s, {} PE-frames, latency p50 {:.3} ms p90 {:.3} ms",
            measured.len() + traced,
            match (clock.is_some(), trace_next) {
                (false, _) => " (warm-up)",
                (true, true) => " (traced)",
                (true, false) => "",
            },
            round.setup_s(),
            round.window_s(),
            round.pe_frames(),
            lat.p50 * 1e3,
            lat.p90 * 1e3
        );
        if clock.is_none() {
            clock = Some(Recorder::new());
        } else if trace_next {
            tracer.add(&round);
            traced += 1;
        } else {
            measured.push(Measured::of(&round));
            if measured.len() == RSS_ROUNDS {
                peak_rss = peak_rss_mb();
            }
        }
    }

    let metrics = if args.trace {
        let ledger = tracer.finish(&spec, &measured, &gate.twin)?;
        gate.errors.extend(ledger.errors);
        for line in &ledger.notes {
            println!("{line}");
        }
        ledger.metrics
    } else {
        end_to_end(w, &measured, peak_rss.unwrap_or(0.0))
    };
    if !metrics.all_finite() {
        gate.errors.push("a metric is not a finite number".to_string());
    }

    println!(
        "{} seed {}: 1 warm-up + {} measured + {} traced rounds, {} attempted, {} failed",
        w.name(),
        args.seed,
        measured.len(),
        traced,
        attempted,
        failed
    );
    if gate.errors.is_empty() {
        print!("{}", metrics.table());
        println!("{}", result_line(true, attempted, failed, &metrics));
        Ok(true)
    } else {
        for e in &gate.errors {
            eprintln!("correctness: {e}");
        }
        println!("{}", result_line(false, attempted, failed, &Metrics::default()));
        Ok(false)
    }
}

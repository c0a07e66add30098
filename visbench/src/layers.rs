//! The per-layer ledger of a traced run.
//!
//! Sources, all outside the program: the seam spans the decorators recorded,
//! the lifeline events the program already writes into
//! `CampaignReport::log`, the report's own counters, the program's
//! `[telemetry]` plane (switched on for traced rounds), and direct calls to
//! public layer functions on slabs of the workload's own dataset.
//!
//! Each traced round is reduced by [`Tracer::add`] as soon as it ends, so a
//! run holds one round's report at a time whatever its length.

use crate::ledger::{median, pair, self_time, wait_gaps, Closure, LifeSpan, Quantiles};
use crate::output::{json_number, json_string, Metrics};
use crate::seams::Seam;
use crate::workloads::Workload;
use crate::{Measured, Round};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;
use visapult::core::{CampaignReport, ScenarioSpec};
use visapult::dpss::{DpssClient, DpssCluster, StripeLayout};
use visapult::netlogger::{tags, Event};
use visapult::volren::{combustion_jet, combustion_series_bytes, render_region, AmrHierarchy, Axis};

/// The largest share of a stage's wall time the seams may leave
/// unattributed before the ledger is rejected as having lost a layer.
const MAX_UNATTRIBUTED: f64 = 0.25;

/// Direct-call probe repetitions (each probe reports its median).
const PROBE_REPS: usize = 3;

/// The per-round values, in report order, each reported as its median over
/// the traced rounds.  Zero where the workload does not run the layer.
const PER_ROUND: &[(&str, &str)] = &[
    ("pipeline.open_s", "s"),
    ("pipeline.splice_s", "s"),
    ("pipeline.farm_s", "s"),
    ("pipeline.finish_s", "s"),
    ("pipeline.collect_s", "s"),
    ("pipeline.unattributed_s", "s"),
    ("pipeline.stage_wall_s", "s"),
    ("pipeline.farm_self_s", "s"),
    ("dpss.load_busy_s", "s"),
    ("dpss.load_mbps", "Mbit/s"),
    ("dpss.cache_hits", "count"),
    ("dpss.cache_misses", "count"),
    ("dpss.cache_evictions", "count"),
    ("dpss.cache_hit_ratio", "ratio"),
    ("volren.render_busy_s", "s"),
    ("transport.chunks", "count"),
    ("transport.wire_mb", "MB"),
    ("transport.out_of_order_chunks", "count"),
    ("transport.partial_updates", "count"),
    ("transport.reassembly_copies", "count"),
    ("viewer.errors", "count"),
    ("service.render_requests", "count"),
    ("service.renders", "count"),
    ("service.shared_render_hit_ratio", "ratio"),
    ("service.sessions_admitted", "count"),
    ("service.sessions_rejected", "count"),
    ("service.sessions_evicted", "count"),
    ("service.fanout_chunks", "count"),
    ("service.chunks_dropped", "count"),
    ("service.frames_skipped", "count"),
    ("service.wave_ms_p50", "ms"),
    ("service.wave_ms_p90", "ms"),
    ("service.lock_contended", "count"),
    ("exec.polls", "count"),
    ("exec.parks", "count"),
    ("exec.wakes", "count"),
    ("exec.run_queue_high_water", "count"),
];

/// What a traced run reports.
pub struct Ledger {
    /// Per-layer metrics.
    pub metrics: Metrics,
    /// Human-readable lines (closure, shape, overhead) printed above the
    /// table.
    pub notes: Vec<String>,
    /// Closure failures: a ledger that does not close is not reported.
    pub errors: Vec<String>,
}

/// The frame-level lifeline spans of one stage.
struct StageSpans {
    load: Vec<LifeSpan>,
    render: Vec<LifeSpan>,
    send: Vec<LifeSpan>,
    composite: Vec<LifeSpan>,
    frame: Vec<LifeSpan>,
    wait: Vec<f64>,
}

impl StageSpans {
    fn of(events: &[Event]) -> StageSpans {
        StageSpans {
            load: pair(events, tags::BE_LOAD_START, tags::BE_LOAD_END),
            render: pair(events, tags::BE_RENDER_START, tags::BE_RENDER_END),
            send: pair(events, tags::BE_HEAVY_SEND, tags::BE_HEAVY_END),
            composite: pair(events, tags::V_FRAME_START, tags::V_FRAME_END),
            frame: pair(events, tags::BE_FRAME_START, tags::BE_FRAME_END),
            wait: wait_gaps(events),
        }
    }

    /// The layer spans that are children of `pipeline.farm`.
    fn children(&self) -> Vec<(&'static str, &LifeSpan)> {
        let layers: [(&'static str, &[LifeSpan]); 4] = [
            ("dpss.load", &self.load),
            ("volren.render", &self.render),
            ("transport.send", &self.send),
            ("viewer.composite", &self.composite),
        ];
        layers
            .into_iter()
            .flat_map(|(name, spans)| spans.iter().map(move |s| (name, s)))
            .collect()
    }
}

fn total(spans: &[LifeSpan]) -> f64 {
    spans.iter().map(LifeSpan::duration).sum()
}

fn ratio(part: f64, base: f64) -> f64 {
    if base > 0.0 {
        part / base
    } else {
        0.0
    }
}

/// The trailing rank in `backend-worker-<r>` / `viewer-worker-<r>`.
fn rank_of(span: &LifeSpan) -> Option<u64> {
    span.program.rsplit('-').next()?.parse().ok()
}

/// Accumulates traced rounds into the ledger.
pub struct Tracer {
    workload: Workload,
    /// One value map per traced round (keys from [`PER_ROUND`], plus
    /// `frame_busy_s` for the shape check).
    rounds: Vec<BTreeMap<&'static str, f64>>,
    /// Pooled per-frame samples, milliseconds.
    load: Vec<f64>,
    render: Vec<f64>,
    send: Vec<f64>,
    composite: Vec<f64>,
    wait: Vec<f64>,
    /// Fan-out waves behind the wave percentiles.
    waves: usize,
    /// Round wall windows, for the overhead comparison.
    windows: Vec<f64>,
    span_lines: Vec<String>,
    notes: Vec<String>,
    errors: Vec<String>,
}

impl Tracer {
    /// An empty ledger for one workload.
    pub fn new(workload: Workload) -> Tracer {
        Tracer {
            workload,
            rounds: Vec::new(),
            load: Vec::new(),
            render: Vec::new(),
            send: Vec::new(),
            composite: Vec::new(),
            wait: Vec::new(),
            waves: 0,
            windows: Vec::new(),
            span_lines: Vec::new(),
            notes: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Reduce one traced round.
    pub fn add(&mut self, round: &Round) {
        let r = self.rounds.len();
        let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut closure = Closure::default();
        let mut load_bytes = 0.0;
        let walls = round.stage_walls();
        for (i, events) in round.stage_events().iter().enumerate() {
            let stage = &round.report.stages[i];
            let spans = StageSpans::of(events);
            let mut seam_total = 0.0;
            let mut farm = None;
            for span in round.rec.spans.iter().filter(|sp| sp.stage == i) {
                *v.entry(span.seam.seconds_name()).or_default() += span.end - span.start;
                seam_total += span.end - span.start;
                if span.seam == Seam::Farm {
                    farm = Some((span.start, span.end));
                }
                self.span_lines.push(span_line(
                    self.workload,
                    r,
                    &stage.name,
                    None,
                    None,
                    span.seam.name(),
                    "pipeline.stage",
                    span.start,
                    span.end,
                ));
            }
            let stage_closure = Closure::new(walls[i], seam_total);
            if let Err(e) = stage_closure.check(MAX_UNATTRIBUTED) {
                self.errors.push(format!(
                    "traced round {r} stage {}: ledger does not close: {e}",
                    stage.name
                ));
            }
            closure.add(&stage_closure);
            let children = spans.children();
            if let Some(farm) = farm {
                let covered: Vec<(f64, f64)> = children.iter().map(|(_, sp)| (sp.start, sp.end)).collect();
                *v.entry("pipeline.farm_self_s").or_default() += self_time(farm, &covered);
            }
            for (name, sp) in &children {
                self.span_lines.push(span_line(
                    self.workload,
                    r,
                    &stage.name,
                    rank_of(sp),
                    Some(sp.frame),
                    name,
                    "pipeline.farm",
                    sp.start,
                    sp.end,
                ));
            }
            *v.entry("dpss.load_busy_s").or_default() += total(&spans.load);
            *v.entry("volren.render_busy_s").or_default() += total(&spans.render);
            *v.entry("frame_busy_s").or_default() += total(&spans.frame);
            load_bytes += stage.metrics.bytes_loaded as f64;
            let ms = |spans: &[LifeSpan]| spans.iter().map(|s| s.duration() * 1e3).collect::<Vec<_>>();
            self.load.extend(ms(&spans.load));
            self.render.extend(ms(&spans.render));
            self.send.extend(ms(&spans.send));
            self.composite.extend(ms(&spans.composite));
            self.wait.extend(spans.wait.iter().map(|w| w * 1e3));
        }
        self.notes.push(format!(
            "closure: traced round {r}: wall {:.6} s = seams {:.6} s + unattributed {:.6} s ({:.2}%)",
            closure.wall,
            closure.seams,
            closure.unattributed,
            100.0 * ratio(closure.unattributed, closure.wall)
        ));
        v.insert("pipeline.unattributed_s", closure.unattributed);
        v.insert("pipeline.stage_wall_s", closure.wall);
        v.insert("dpss.load_mbps", ratio(load_bytes * 8.0 / 1e6, v["dpss.load_busy_s"]));

        let report = &round.report;
        let stages = &report.stages;
        let (hits, misses) = (
            stages.iter().map(|s| s.metrics.cache.hits).sum::<u64>() as f64,
            stages.iter().map(|s| s.metrics.cache.misses).sum::<u64>() as f64,
        );
        v.insert("dpss.cache_hits", hits);
        v.insert("dpss.cache_misses", misses);
        v.insert(
            "dpss.cache_evictions",
            stages.iter().map(|s| s.metrics.cache.evictions).sum::<u64>() as f64,
        );
        v.insert("dpss.cache_hit_ratio", ratio(hits, hits + misses));
        let t = &report.transport.totals;
        v.insert("transport.chunks", t.chunks as f64);
        v.insert("transport.wire_mb", t.bytes as f64 / 1e6);
        v.insert("transport.out_of_order_chunks", t.out_of_order_chunks as f64);
        v.insert("transport.partial_updates", t.partial_updates as f64);
        v.insert("transport.reassembly_copies", t.reassembly_copies as f64);
        v.insert("viewer.errors", round.rec.viewer.total() as f64);
        if let Some(svc) = &report.service {
            let s = &svc.totals;
            v.insert("service.render_requests", s.render_requests as f64);
            v.insert("service.renders", s.renders_performed as f64);
            v.insert(
                "service.shared_render_hit_ratio",
                ratio(s.shared_render_hits() as f64, s.render_requests as f64),
            );
            v.insert("service.sessions_admitted", s.sessions_admitted as f64);
            v.insert("service.sessions_rejected", s.sessions_rejected as f64);
            v.insert("service.sessions_evicted", s.sessions_evicted as f64);
            v.insert("service.fanout_chunks", s.fanout_chunks as f64);
            v.insert("service.chunks_dropped", s.chunks_dropped as f64);
            v.insert("service.frames_skipped", s.frames_skipped as f64);
        }
        if let Some(tel) = &report.telemetry {
            if let Some(h) = tel.latency("fanout/wave_us") {
                v.insert("service.wave_ms_p50", h.p50 as f64 / 1e3);
                v.insert("service.wave_ms_p90", h.p90 as f64 / 1e3);
                self.waves += h.count as usize;
            }
            v.insert(
                "service.lock_contended",
                tel.shard_locks.iter().map(|l| l.contended).sum::<u64>() as f64,
            );
            for (name, key) in [
                ("exec.polls", "exec/polls"),
                ("exec.parks", "exec/parks"),
                ("exec.wakes", "exec/wakes"),
            ] {
                v.insert(name, tel.counters.get(key).copied().unwrap_or(0) as f64);
            }
            v.insert(
                "exec.run_queue_high_water",
                tel.high_waters.get("exec/run_queue_depth").copied().unwrap_or(0) as f64,
            );
        }
        self.windows.push(round.window_s());
        self.rounds.push(v);
    }

    /// Close the ledger: per-round medians, pooled percentiles, the direct
    /// probes, calibration drift against the twin and tracing overhead.
    pub fn finish(
        mut self,
        spec: &ScenarioSpec,
        measured: &[Measured],
        twin: &CampaignReport,
    ) -> Result<Ledger, String> {
        write_spans(self.workload, &self.span_lines);
        let n = self.rounds.len();
        let med = |key: &str| {
            median(
                &self
                    .rounds
                    .iter()
                    .map(|v| v.get(key).copied().unwrap_or(0.0))
                    .collect::<Vec<_>>(),
            )
        };
        let mut m = Metrics::default();
        let percentiles = |m: &mut Metrics, layer: &str, samples: &[f64]| {
            let q = Quantiles::of(samples);
            m.push(&format!("{layer}_ms_p50"), q.p50, "ms", q.count);
            m.push(&format!("{layer}_ms_p90"), q.p90, "ms", q.count);
        };
        percentiles(&mut m, "dpss.load", &self.load);
        percentiles(&mut m, "volren.render", &self.render);
        percentiles(&mut m, "backend.wait", &self.wait);
        percentiles(&mut m, "transport.send", &self.send);
        percentiles(&mut m, "viewer.composite", &self.composite);
        for &(name, unit) in PER_ROUND {
            let samples = if name.starts_with("service.wave_ms") {
                self.waves
            } else {
                n
            };
            m.push(name, med(name), unit, samples);
        }

        m.push("dpss.stage_write_s", probe_stage_write(spec)?, "s", PROBE_REPS);
        let probe = probe_volren(spec)?;
        m.push("volren.raycast_ms", probe.raycast_s * 1e3, "ms", PROBE_REPS);
        m.push("volren.amr_ms", probe.amr_s * 1e3, "ms", PROBE_REPS);
        m.push(
            "volren.mvoxels_per_s",
            probe.voxels as f64 / probe.raycast_s / 1e6,
            "Mvoxel/s",
            PROBE_REPS,
        );

        // Calibration drift: measured ÷ modeled phase means, over the
        // measured rounds.  An indicator that the virtual-time model has
        // drifted from this machine, not a performance metric.
        let modeled = Measured::phase_means(twin);
        for (k, name) in ["model.load_ratio", "model.render_ratio", "model.send_ratio"]
            .into_iter()
            .enumerate()
        {
            let measured_mean = median(&measured.iter().map(|r| r.means[k]).collect::<Vec<_>>());
            m.push(name, ratio(measured_mean, modeled[k]), "ratio", measured.len());
        }

        // Tracing overhead: traced against measured round windows.
        let untraced = median(&measured.iter().map(|r| r.window_s).collect::<Vec<_>>());
        let traced = median(&self.windows);
        let overhead = 100.0 * ratio(traced - untraced, untraced);
        m.push("trace.overhead_pct", overhead, "%", measured.len() + n);
        self.notes.push(format!(
            "overhead: traced window {traced:.6} s vs measured {untraced:.6} s ({overhead:+.2}%)"
        ));
        let shape = self.shape_note(med("dpss.cache_hit_ratio"));
        self.notes.push(shape);
        Ok(Ledger {
            metrics: m,
            notes: self.notes,
            errors: self.errors,
        })
    }

    /// Whether the traced run has the shape the workload was built for.
    fn shape_note(&self, hit_ratio: f64) -> String {
        let sum = |key: &str| {
            self.rounds
                .iter()
                .map(|v| v.get(key).copied().unwrap_or(0.0))
                .sum::<f64>()
        };
        let (frame, load, render) = (
            sum("frame_busy_s"),
            sum("dpss.load_busy_s"),
            sum("volren.render_busy_s"),
        );
        let wall = sum("pipeline.stage_wall_s");
        let (claim, share, holds) = match self.workload {
            Workload::CorridorRender => (
                "render dominates the backend frame",
                ratio(render, frame),
                render > 0.5 * frame,
            ),
            Workload::CacheChurn => (
                "load is at least a fifth of the serial frame and the cache never hits",
                ratio(load, frame),
                load > 0.2 * frame && hit_ratio < 0.01,
            ),
            // Two PEs: their combined busy time against twice the stage wall.
            Workload::ExhibitFanout => (
                "farm load + render is a small share of stage wall",
                ratio(load + render, 2.0 * wall),
                load + render < 0.25 * 2.0 * wall,
            ),
        };
        format!(
            "shape: {}: {claim}: share {share:.3} -> {}",
            self.workload.name(),
            if holds { "holds" } else { "DOES NOT HOLD" }
        )
    }
}

/// One span as a JSON line.  Spans of one frame share the id (workload,
/// stage, rank, frame); layer spans are children of `pipeline.farm`.
#[allow(clippy::too_many_arguments)]
fn span_line(
    workload: Workload,
    round: usize,
    stage: &str,
    rank: Option<u64>,
    frame: Option<i64>,
    name: &str,
    parent: &str,
    start: f64,
    end: f64,
) -> String {
    let opt = |v: Option<String>| v.unwrap_or_else(|| "null".to_string());
    format!(
        "{{\"round\": {round}, \"id\": {{\"workload\": {}, \"stage\": {}, \"rank\": {}, \"frame\": {}}}, \
         \"name\": {}, \"parent\": {}, \"start_s\": {}, \"end_s\": {}}}",
        json_string(workload.name()),
        json_string(stage),
        opt(rank.map(|r| r.to_string())),
        opt(frame.map(|f| f.to_string())),
        json_string(name),
        json_string(parent),
        json_number(start),
        json_number(end),
    )
}

/// Write the kept spans once the run is over (best effort: the ledger has
/// already been reduced from memory).
fn write_spans(workload: Workload, lines: &[String]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}.spans.jsonl", workload.name()));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for line in lines {
            writeln!(f, "{line}")?;
        }
        f.flush()
    });
    match written {
        Ok(()) => println!("spans: {} written to {}", lines.len(), path.display()),
        Err(e) => eprintln!("warning: spans not written to {}: {e}", path.display()),
    }
}

/// Median seconds of `reps` timed calls.
fn timed(reps: usize, mut call: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            call();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The DPSS write half of `RealDpssEnv::stage`, on the same arguments: the
/// same four-server deployment, dataset registration and `write_at` of the
/// seeded series, timed without the series generation it follows (whose
/// run-to-run noise is larger than the write itself).
fn probe_stage_write(spec: &ScenarioSpec) -> Result<f64, String> {
    let resolved = spec.resolve().map_err(|e| e.to_string())?;
    let dataset = resolved.staged_dataset();
    let bytes = combustion_series_bytes(dataset.dims, dataset.timesteps, resolved.seed);
    let mut failure = None;
    let write_s = timed(PROBE_REPS, || {
        let cluster = DpssCluster::new(StripeLayout::four_server());
        cluster.register_dataset(dataset.clone());
        if let Err(e) = DpssClient::new(cluster, "stager").write_at(&dataset.name, 0, black_box(&bytes)) {
            failure = Some(format!("staging probe: {e}"));
        }
    });
    failure.map_or(Ok(write_s), Err)
}

/// Direct timings of the render layer on one PE's slab of the workload's own
/// dataset.
struct VolrenProbe {
    raycast_s: f64,
    amr_s: f64,
    voxels: usize,
}

fn probe_volren(spec: &ScenarioSpec) -> Result<VolrenProbe, String> {
    let resolved = spec.resolve().map_err(|e| e.to_string())?;
    let config = resolved.stage_pipeline(&resolved.stages[0]);
    let slab = combustion_jet(resolved.dims, 0.0, resolved.seed).z_slab(0, resolved.dims.2 / resolved.pes);
    let raycast_s = timed(PROBE_REPS, || {
        black_box(render_region(
            black_box(&slab),
            Axis::Z,
            &config.transfer,
            config.value_range,
            &config.render,
        ));
    });
    // The back end's own refinement parameters.
    let amr_s = timed(PROBE_REPS, || {
        black_box(AmrHierarchy::from_volume(black_box(&slab), 16, 0.3, 2));
    });
    Ok(VolrenProbe {
        raycast_s,
        amr_s,
        voxels: slab.len(),
    })
}

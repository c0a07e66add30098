//! Benchmark-owned decorators over the pipeline's public capability traits.
//!
//! Each decorator delegates to the real-path implementation
//! ([`WallClock`], [`StripedFabric`], [`FanoutPlane`], [`ThreadFarm`]) and
//! records, on one round-wide wall clock, when each seam call began and
//! ended.  They are installed through `Pipeline::builder`, so nothing inside
//! the program is instrumented.  The cost is a handful of clock reads per
//! stage — never per frame — which is why measured rounds install them too:
//! the stage boundaries they give are what the end-to-end metrics are
//! counted over.
//!
//! [`StageClock`] also hands every stage's collector the *same* wall clock,
//! so every stage's lifeline events carry round-relative timestamps; see
//! [`crate::ledger::split_stages`] for how that lets the merged campaign log
//! be split back into stages.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use visapult::core::pipeline::{
    Clock, Fabric, FabricLinks, FanoutPlane, FarmRun, PipelineBuilder, PlaneSession, RenderFarm, ServicePlane,
    StageContext, StripedFabric, ThreadFarm, WallClock,
};
use visapult::core::service::ServiceRunReport;
use visapult::core::transport::TransportStats;
use visapult::core::{ViewerError, VisapultError};
use visapult::netlogger::{self, Collector};

/// The five seams of the stage control flow, in call order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seam {
    /// `Fabric::open`: the striped links are created.
    Open,
    /// `ServicePlane::splice`: the fan-out plane is wired in.
    Splice,
    /// `RenderFarm::run_stage`: load → render → stripe → composite.
    Farm,
    /// `PlaneSession::finish`: the plane drains and reports.
    Finish,
    /// `Fabric::collect`: transport telemetry is harvested.
    Collect,
}

impl Seam {
    /// The ledger name (`pipeline.<seam>`).
    pub fn name(self) -> &'static str {
        match self {
            Seam::Open => "pipeline.open",
            Seam::Splice => "pipeline.splice",
            Seam::Farm => "pipeline.farm",
            Seam::Finish => "pipeline.finish",
            Seam::Collect => "pipeline.collect",
        }
    }

    /// The ledger metric of the seam's summed span time.
    pub fn seconds_name(self) -> &'static str {
        match self {
            Seam::Open => "pipeline.open_s",
            Seam::Splice => "pipeline.splice_s",
            Seam::Farm => "pipeline.farm_s",
            Seam::Finish => "pipeline.finish_s",
            Seam::Collect => "pipeline.collect_s",
        }
    }
}

/// One seam call: which stage, and when it ran (seconds on the round clock).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeamSpan {
    /// The seam.
    pub seam: Seam,
    /// Stage index within the campaign.
    pub stage: usize,
    /// Call start.
    pub start: f64,
    /// Call end.
    pub end: f64,
}

/// Viewer delivery anomalies of one round, as the farm's viewer reported
/// them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViewerAnomalies {
    /// Frames that never fully arrived.
    pub missing: u64,
    /// Chunks or frames that failed validation.
    pub corrupt: u64,
    /// Late stripes and stale frames (tolerated, reported).
    pub tolerated: u64,
}

impl ViewerAnomalies {
    /// Every anomaly.
    pub fn total(&self) -> u64 {
        self.missing + self.corrupt + self.tolerated
    }
}

/// Everything the decorators saw during one round.
#[derive(Debug, Clone, Default)]
pub struct Recording {
    /// When each stage's collector was created (its log's origin).
    pub stage_starts: Vec<f64>,
    /// Seam calls in call order.
    pub spans: Vec<SeamSpan>,
    /// Viewer anomalies summed over stages.
    pub viewer: ViewerAnomalies,
}

/// The shared recorder every decorator of one round writes into.
#[derive(Clone)]
pub struct Recorder {
    clock: netlogger::Clock,
    state: Arc<Mutex<Recording>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            clock: netlogger::Clock::wall(),
            state: Arc::new(Mutex::new(Recording::default())),
        }
    }

    /// Seconds since the recorder was created.
    pub fn now(&self) -> f64 {
        self.clock.now()
    }

    fn state(&self) -> MutexGuard<'_, Recording> {
        self.state.lock().expect("recorder lock poisoned by a panicking seam")
    }

    /// Time one seam call of the current stage.
    fn span<T>(&self, seam: Seam, call: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = call();
        let end = self.now();
        let mut state = self.state();
        let stage = state.stage_starts.len().saturating_sub(1);
        state.spans.push(SeamSpan {
            seam,
            stage,
            start,
            end,
        });
        out
    }

    /// What has been recorded so far.
    pub fn snapshot(&self) -> Recording {
        self.state().clone()
    }

    /// Install the stage clock, fabric, farm and plane decorators.
    pub fn install(&self, builder: PipelineBuilder) -> PipelineBuilder {
        builder
            .clock(Box::new(StageClock(self.clone())))
            .fabric(Box::new(SeamFabric(self.clone())))
            .render_farm(Box::new(SeamFarm(self.clone())))
            .service_plane(Box::new(SeamPlane(self.clone())))
    }
}

/// The wall clock, shared across stages and marking each stage's start.
struct StageClock(Recorder);

impl Clock for StageClock {
    fn collector(&self) -> Collector {
        let rec = &self.0;
        rec.state().stage_starts.push(rec.now());
        Collector::new(rec.clock.clone())
    }

    fn is_virtual(&self) -> bool {
        false
    }

    fn label(&self) -> &'static str {
        "wall"
    }

    fn monotonic_now(&self) -> Duration {
        WallClock.monotonic_now()
    }
}

/// [`StripedFabric`] with its `open` and `collect` calls timed.
struct SeamFabric(Recorder);

impl Fabric for SeamFabric {
    fn open(&self, ctx: &StageContext<'_>) -> Result<FabricLinks, VisapultError> {
        self.0.span(Seam::Open, || StripedFabric.open(ctx))
    }

    fn collect(
        &self,
        ctx: &StageContext<'_>,
        run: &FarmRun,
        sender_stats: &[Arc<Mutex<TransportStats>>],
        collector: &Collector,
    ) -> TransportStats {
        self.0.span(Seam::Collect, || {
            StripedFabric.collect(ctx, run, sender_stats, collector)
        })
    }
}

/// [`ThreadFarm`] with `run_stage` timed and the viewer's anomalies kept.
struct SeamFarm(Recorder);

impl RenderFarm for SeamFarm {
    fn run_stage(
        &self,
        ctx: &StageContext<'_>,
        links: FabricLinks,
        collector: &Collector,
    ) -> Result<FarmRun, VisapultError> {
        let run = self
            .0
            .span(Seam::Farm, || ThreadFarm.run_stage(ctx, links, collector))?;
        if let Some(viewer) = &run.viewer {
            let mut state = self.0.state();
            for error in &viewer.errors {
                match error {
                    ViewerError::MissingFrame { .. } => state.viewer.missing += 1,
                    ViewerError::Corrupt { .. } => state.viewer.corrupt += 1,
                    _ => state.viewer.tolerated += 1,
                }
            }
        }
        Ok(run)
    }
}

/// [`FanoutPlane`] with `splice` timed and its session wrapped.
struct SeamPlane(Recorder);

impl ServicePlane for SeamPlane {
    fn splice(
        &self,
        ctx: &StageContext<'_>,
        links: FabricLinks,
    ) -> Result<(FabricLinks, Box<dyn PlaneSession>), VisapultError> {
        let (links, session) = self.0.span(Seam::Splice, || FanoutPlane.splice(ctx, links))?;
        Ok((
            links,
            Box::new(SeamSession {
                rec: self.0.clone(),
                inner: session,
            }),
        ))
    }
}

/// A plane session whose `finish` (the plane drain) is timed.
struct SeamSession {
    rec: Recorder,
    inner: Box<dyn PlaneSession>,
}

impl PlaneSession for SeamSession {
    fn finish(
        self: Box<Self>,
        ctx: &StageContext<'_>,
        run: &FarmRun,
        collector: &Collector,
    ) -> Result<Option<ServiceRunReport>, VisapultError> {
        let SeamSession { rec, inner } = *self;
        rec.span(Seam::Finish, || inner.finish(ctx, run, collector))
    }
}

//! The [`ServicePlane`] capability: the multi-session fan-out seam.
//!
//! With a [`ServicePlan`] configured, the real plane ([`FanoutPlane`])
//! splices the shared-render broker between the backend links and the
//! primary viewer: chunks forward to the primary with backpressure while
//! zero-copy clones multicast onto per-session bounded queues.  The replay
//! plane ([`ReplayPlane`]) advances the *identical* deterministic broker
//! state machine over the same frame counter without moving a byte, and
//! folds the offered fan-out load in from the modeled chunk plan — so the
//! lifecycle and shared-render telemetry is byte-identical across paths.
//!
//! [`ServicePlan`]: crate::campaign::real::ServicePlan

use super::{modeled_segment_lens, Clock, FabricLinks, FarmRun, StageContext, WallClock};
use crate::error::VisapultError;
use crate::service::asyncplane::drive_plane;
use crate::service::fanout::PlaneTelemetry;
use crate::service::{
    log_service_stats, log_service_telemetry, log_shard_overprovision, shard_overprovision, ServiceRunReport,
    ShardedBroker,
};
use crate::transport::{plan_chunks, striped_link, StripeReceiver, StripeSender, TransportConfig};
use netlogger::{Collector, MetricsHub};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The fan-out capability: given the fabric's links, optionally splice a
/// session-serving plane between the farm and the viewer.
pub trait ServicePlane {
    /// Splice the plane into the stage's links (a no-op when the context
    /// carries no service plan), returning the links the farm should use and
    /// a session to finish after the farm completes.
    fn splice(
        &self,
        ctx: &StageContext<'_>,
        links: FabricLinks,
    ) -> Result<(FabricLinks, Box<dyn PlaneSession>), VisapultError>;
}

/// One stage's live plane: joined (or replayed) after the farm completes,
/// emitting the `NL.service.*` telemetry through the shared emitter.
pub trait PlaneSession {
    /// Finish the plane and report what it did (`None` when no plan was
    /// configured).
    fn finish(
        self: Box<Self>,
        ctx: &StageContext<'_>,
        run: &FarmRun,
        collector: &Collector,
    ) -> Result<Option<ServiceRunReport>, VisapultError>;
}

/// The real shared-render fan-out plane: the executor-backed drive over a
/// [`ShardedBroker`] (one shard unless the plan asks for more), run on its
/// own coordinator thread so the farm never blocks on it.
#[derive(Debug, Clone, Copy, Default)]
pub struct FanoutPlane;

impl FanoutPlane {
    /// Run the plane over a set of backend links directly — the supported
    /// entry point for harnesses that drive the plane without a full
    /// pipeline (benchmarks, plane-level tests).  Blocks until the campaign
    /// drains; every consumer, pump, and pacer runs as a polled task on
    /// `workers` pool threads split across the broker's shards.  Wave
    /// latencies, queue-depth high-waters, fan-out counters and the
    /// executor's `exec/*` introspection land in `hub` (pass
    /// [`MetricsHub::disabled`] for an unmetered run).
    pub fn drive(
        broker: ShardedBroker,
        inputs: Vec<StripeReceiver>,
        primary: Vec<StripeSender>,
        transport: &TransportConfig,
        workers: usize,
        hub: &MetricsHub,
    ) -> ServiceRunReport {
        drive_plane(
            &wall_clock(),
            broker,
            inputs,
            primary,
            transport,
            workers,
            &PlaneTelemetry::new(hub.clone(), 0),
        )
    }
}

fn wall_clock() -> Arc<dyn Clock> {
    Arc::new(WallClock)
}

impl ServicePlane for FanoutPlane {
    fn splice(
        &self,
        ctx: &StageContext<'_>,
        links: FabricLinks,
    ) -> Result<(FabricLinks, Box<dyn PlaneSession>), VisapultError> {
        let Some(plan) = &ctx.service else {
            return Ok((links, Box::new(NoSession)));
        };
        // The backend links feed the plane; the viewer moves onto fresh
        // primary links.  The primary links are an unpaced copy of the
        // transport config: the backend link already applied any WAN
        // pacing, shaping twice would halve the rate.
        let FabricLinks {
            senders,
            receivers: plane_inputs,
            stats,
        } = links;
        let primary_config = TransportConfig {
            pace_rate_mbps: None,
            ..ctx.transport.clone()
        };
        let mut primary_txs = Vec::with_capacity(ctx.pipeline.pes);
        let mut primary_rxs = Vec::with_capacity(ctx.pipeline.pes);
        for _ in 0..ctx.pipeline.pes {
            let (tx, rx) = striped_link(&primary_config);
            primary_txs.push(tx);
            primary_rxs.push(rx);
        }
        let session = FanoutSession::spawn(
            wall_clock(),
            ShardedBroker::new(plan.config.clone(), plan.sessions.clone()),
            plane_inputs,
            primary_txs,
            ctx.transport.clone(),
            plan.workers.unwrap_or_else(exec::default_workers),
            // The stage's metrics hub rides into the plane thread: wave
            // latencies, queue high-waters and executor introspection land
            // in the same hub the pipeline folds into the campaign's
            // TelemetryReport.
            PlaneTelemetry::new(ctx.metrics.clone(), ctx.telemetry.snapshot_frames),
        )?;
        Ok((
            FabricLinks {
                senders,
                receivers: primary_rxs,
                stats,
            },
            Box::new(session),
        ))
    }
}

/// A live fan-out plane thread, joined once the farm completes.
struct FanoutSession {
    handle: JoinHandle<ServiceRunReport>,
}

impl FanoutSession {
    /// Run the plane on its own coordinator thread.
    fn spawn(
        clock: Arc<dyn Clock>,
        broker: ShardedBroker,
        inputs: Vec<StripeReceiver>,
        primary: Vec<StripeSender>,
        transport: TransportConfig,
        workers: usize,
        telemetry: PlaneTelemetry,
    ) -> Result<FanoutSession, VisapultError> {
        let handle = std::thread::Builder::new()
            .name("visapult-service-plane".to_string())
            .spawn(move || drive_plane(&clock, broker, inputs, primary, &transport, workers, &telemetry))?;
        Ok(FanoutSession { handle })
    }

    /// Join the plane thread.  A plane that panicked — including one whose
    /// task panicked on a worker — is a typed error, never a hang or a
    /// re-raised panic.
    fn join(self) -> Result<ServiceRunReport, VisapultError> {
        self.handle.join().map_err(|panic| {
            let detail = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("unknown panic");
            VisapultError::Service(format!("fan-out plane failed: {detail}"))
        })
    }
}

impl PlaneSession for FanoutSession {
    fn finish(
        self: Box<Self>,
        ctx: &StageContext<'_>,
        _run: &FarmRun,
        collector: &Collector,
    ) -> Result<Option<ServiceRunReport>, VisapultError> {
        let report = self.join()?;
        let logger = collector.logger("service", "session-broker");
        // Lifeline sampling thins only the per-session lifecycle events —
        // deterministically by session id, so both paths keep (or drop)
        // exactly the same lifelines; the aggregate SERVICE_STATS summary is
        // never sampled.
        log_service_stats(&logger, None, &report.stats, &report.events, ctx.telemetry.sample_every);
        if ctx.telemetry.enable {
            let shard_count = ctx.service.as_ref().map(|plan| plan.config.shard_count()).unwrap_or(1);
            log_service_telemetry(&logger, None, shard_count, &report.shard_locks);
        }
        if let Some((shards, viewpoints)) = ctx
            .service
            .as_ref()
            .and_then(|plan| shard_overprovision(&plan.config, &plan.sessions))
        {
            log_shard_overprovision(&logger, None, shards, viewpoints);
        }
        Ok(Some(report))
    }
}

/// The deterministic broker replay: the identical [`ShardedBroker`] state
/// machine the real plane drives, advanced over the same frame counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayPlane;

impl ServicePlane for ReplayPlane {
    fn splice(
        &self,
        _ctx: &StageContext<'_>,
        links: FabricLinks,
    ) -> Result<(FabricLinks, Box<dyn PlaneSession>), VisapultError> {
        Ok((links, Box::new(ReplaySession)))
    }
}

struct ReplaySession;

impl PlaneSession for ReplaySession {
    fn finish(
        self: Box<Self>,
        ctx: &StageContext<'_>,
        run: &FarmRun,
        collector: &Collector,
    ) -> Result<Option<ServiceRunReport>, VisapultError> {
        let Some(plan) = &ctx.service else {
            return Ok(None);
        };
        let timesteps = ctx.pipeline.timesteps;
        // Fold in the offered fan-out load from the modeled chunk plan — the
        // same plan the modeled fabric replays.
        let plans = plan_chunks(
            modeled_segment_lens(&ctx.pipeline),
            ctx.transport.chunk_bytes,
            ctx.transport.stripes,
        );
        let chunks = plans.len() as u64 * ctx.pipeline.pes as u64;
        let bytes = plans.iter().map(|p| p.len as u64).sum::<u64>() * ctx.pipeline.pes as u64;
        let per_frame = vec![(chunks, bytes); timesteps];
        // The identical ShardedBroker the real plane drives (one shard
        // unless the plan asks for more), so fingerprinted telemetry matches
        // the real path.
        let mut broker = ShardedBroker::new(plan.config.clone(), plan.sessions.clone());
        if timesteps > 0 {
            broker.advance_to(timesteps as u32 - 1);
        }
        broker.finish();
        broker.fold_fanout_load(&per_frame);
        let (stats, events) = (broker.stats(), broker.events());
        let logger = collector.logger("service", "session-broker");
        // The identical deterministic sampling as the real path: the same
        // session ids keep their lifelines, so NLV overlays line up.
        log_service_stats(
            &logger,
            Some(run.total_time),
            &stats,
            &events,
            ctx.telemetry.sample_every,
        );
        if ctx.telemetry.enable {
            // The replay twin of the per-shard lock summary: structurally
            // identical SERVICE_TELEMETRY events with deterministic zero
            // lock counters (lock contention is wall-clock noise, exactly
            // what the fingerprint filter excludes).
            log_service_telemetry(&logger, Some(run.total_time), plan.config.shard_count(), &[]);
        }
        if let Some((shards, viewpoints)) = shard_overprovision(&plan.config, &plan.sessions) {
            log_shard_overprovision(&logger, Some(run.total_time), shards, viewpoints);
        }
        Ok(Some(ServiceRunReport {
            stats,
            sessions: Vec::new(),
            events,
            shard_locks: Vec::new(),
        }))
    }
}

/// The no-service session: nothing to splice, nothing to report.
struct NoSession;

impl PlaneSession for NoSession {
    fn finish(
        self: Box<Self>,
        _ctx: &StageContext<'_>,
        _run: &FarmRun,
        _collector: &Collector,
    ) -> Result<Option<ServiceRunReport>, VisapultError> {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{QualityTier, ServiceConfig, SessionSpec};
    use crate::test_support::sample_frame;
    use std::time::Duration;

    /// A clock that fails when read: any plane task pacing against it
    /// panics mid-campaign.
    struct BrokenClock;

    impl Clock for BrokenClock {
        fn collector(&self) -> Collector {
            Collector::virtual_time()
        }

        fn is_virtual(&self) -> bool {
            true
        }

        fn label(&self) -> &'static str {
            "broken"
        }

        fn monotonic_now(&self) -> Duration {
            panic!("clock failure under test");
        }
    }

    #[test]
    fn a_panicking_plane_task_surfaces_as_a_typed_error_instead_of_a_hang() {
        let transport = TransportConfig::default().with_stripes(2).with_chunk_bytes(256);
        // One stripe paced so slowly that the campaign overruns the pacer's
        // burst allowance: the consumer task then computes a deadline — and
        // so reads the broken clock.
        let mut paced = SessionSpec::new("paced", 0, QualityTier::Standard).paced_at_mbps(0.01);
        paced.stripes = 1;
        let config = ServiceConfig {
            queue_depth: 64,
            ..ServiceConfig::default()
        };
        let (tx, rx) = striped_link(&transport);
        let plane = FanoutSession::spawn(
            Arc::new(BrokenClock),
            ShardedBroker::new(config, vec![paced]),
            vec![rx],
            Vec::new(),
            transport,
            2,
            PlaneTelemetry::disabled(),
        )
        .unwrap();
        for f in 0..4 {
            tx.send_frame(&sample_frame(0, f, 16)).unwrap();
        }
        drop(tx);
        // Bounded wait: a plane that hangs fails the test instead.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done_tx.send(plane.join());
        });
        match done_rx.recv_timeout(Duration::from_secs(30)) {
            Ok(Err(VisapultError::Service(detail))) => {
                assert!(detail.contains("session consumer"), "{detail}");
            }
            Ok(other) => panic!("expected a service-plane error, got {other:?}"),
            Err(_) => panic!("the plane hung after a task panicked"),
        }
    }
}

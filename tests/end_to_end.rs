//! Cross-crate integration tests: the full pipeline from the DPSS cache
//! through the parallel back end to the viewer's composited image, driven
//! through `Pipeline::builder` on the real path.

use std::sync::{Arc, Mutex};
use visapult::core::backend::BackendReport;
use visapult::core::{
    CampaignReport, FabricLinks, FarmRun, Pipeline, RenderFarm, ScenarioSpec, StageContext, ThreadFarm, ViewerReport,
    VisapultError,
};
use visapult::netlogger::{tags, Collector, LifelinePlot, NlvOptions, ProfileAnalysis};

/// A one-stage real-path campaign over the laptop-scale 80×32×32 dataset,
/// read through an in-process DPSS, optionally shaped per server stream.
fn campaign(pes: usize, timesteps: usize, execution: &str, stream_rate_mbps: Option<f64>) -> ScenarioSpec {
    let real = stream_rate_mbps
        .map(|mbps| format!("stream_rate_mbps = {mbps:?}"))
        .unwrap_or_default();
    ScenarioSpec::from_toml_str(&format!(
        "[scenario]\nname = \"end-to-end\"\nseed = 42\npath = \"real\"\n\n\
         [testbed]\nkind = \"lan-smp\"\n\n\
         [pipeline]\npes = {pes}\ntimesteps = {timesteps}\nexecution = \"{execution}\"\n\n\
         [dataset]\ndims = [80, 32, 32]\n\n[real]\n{real}\n"
    ))
    .expect("campaign spec parses")
}

/// The real farm, keeping each stage's back-end and viewer reports: the
/// campaign report carries only their digest (frame counts, image hash).
#[derive(Clone, Default)]
struct KeepReports(Arc<Mutex<Vec<(BackendReport, ViewerReport)>>>);

impl RenderFarm for KeepReports {
    fn run_stage(
        &self,
        ctx: &StageContext<'_>,
        links: FabricLinks,
        collector: &Collector,
    ) -> Result<FarmRun, VisapultError> {
        let run = ThreadFarm.run_stage(ctx, links, collector)?;
        let backend = run.backend.clone().expect("the real farm reports its backend");
        let viewer = run.viewer.clone().expect("the real farm reports its viewer");
        self.0.lock().unwrap().push((backend, viewer));
        Ok(run)
    }
}

/// One finished campaign with its single stage's back-end and viewer.
struct Run {
    report: CampaignReport,
    backend: BackendReport,
    viewer: ViewerReport,
    dataset_bytes: u64,
}

fn run(spec: ScenarioSpec) -> Run {
    let farm = KeepReports::default();
    let pipeline = Pipeline::builder(spec)
        .render_farm(Box::new(farm.clone()))
        .build()
        .unwrap();
    let resolved = pipeline.resolved();
    let dataset_bytes = resolved
        .stage_real_config(&resolved.stages[0], 0)
        .pipeline
        .dataset
        .total_size()
        .bytes();
    let report = pipeline.run().unwrap();
    let (backend, viewer) = farm.0.lock().unwrap().pop().expect("one stage ran");
    Run {
        report,
        backend,
        viewer,
        dataset_bytes,
    }
}

#[test]
fn dpss_backed_campaign_end_to_end() {
    let run = run(campaign(4, 3, "serial", None));

    // Every PE delivered every frame to the viewer.
    assert_eq!(run.viewer.frames_received, 4 * 3);
    // The viewer actually drew something.
    assert!(run.viewer.final_image.coverage() > 0.01);
    // The amount of data crossing the viewer link is much smaller than the
    // raw data moved out of the cache (the O(n^3) -> O(n^2) reduction).
    assert!(run.report.data_reduction_factor() > 1.5);
    // The whole dataset was read exactly once.
    assert_eq!(run.backend.total_bytes_loaded(), run.dataset_bytes);
}

#[test]
fn overlapped_and_serial_campaigns_produce_identical_images() {
    let serial = run(campaign(2, 3, "serial", None));
    let overlapped = run(campaign(2, 3, "overlapped", None));
    assert_eq!(serial.viewer.frames_received, overlapped.viewer.frames_received);
    let diff = serial.viewer.final_image.mean_abs_diff(&overlapped.viewer.final_image);
    assert!(
        diff < 1e-4,
        "pipelining must not change the rendered result (diff={diff})"
    );
}

#[test]
fn shaped_dpss_link_slows_loading_but_not_correctness() {
    // Shape each DPSS server stream to ~1 MB/s so the load phase visibly
    // dominates, the way a WAN-limited campaign behaves.
    let fast = run(campaign(2, 2, "serial", None));
    let slow = run(campaign(2, 2, "serial", Some(8.0)));
    assert_eq!(fast.viewer.frames_received, slow.viewer.frames_received);
    let fast_load = ProfileAnalysis::from_log(&fast.report.log).load_stats().mean;
    let slow_load = ProfileAnalysis::from_log(&slow.report.log).load_stats().mean;
    assert!(
        slow_load > fast_load && slow_load > 0.01,
        "shaping should slow the load phase (fast {fast_load:.4}s, slow {slow_load:.4}s)"
    );
    let diff = fast.viewer.final_image.mean_abs_diff(&slow.viewer.final_image);
    assert!(diff < 1e-4);
}

#[test]
fn netlogger_profile_covers_both_ends_and_renders_a_lifeline() {
    let report = run(campaign(3, 2, "overlapped", None)).report;
    // Backend and viewer events for every (PE, frame).
    assert_eq!(report.log.with_tag(tags::BE_LOAD_END).count(), 6);
    assert_eq!(report.log.with_tag(tags::BE_RENDER_END).count(), 6);
    assert_eq!(report.log.with_tag(tags::V_HEAVYPAYLOAD_END).count(), 6);
    // The standard analysis reconstructs per-frame phases.
    let analysis = ProfileAnalysis::from_log(&report.log);
    assert_eq!(analysis.frames.len(), 2);
    assert!(analysis
        .frames
        .iter()
        .all(|f| f.load_time >= 0.0 && f.render_time > 0.0));
    // The NLV lifeline plot renders with data on the expected rows.
    let plot = LifelinePlot::new(&report.log, NlvOptions::default());
    let counts = plot.row_counts();
    let loads = counts.iter().find(|(t, _)| t == tags::BE_LOAD_END).unwrap();
    assert_eq!(loads.1, 6);
}

#[test]
fn single_pe_campaign_works() {
    let run = run(campaign(1, 2, "overlapped", None));
    assert_eq!(run.viewer.frames_received, 2);
    assert!(run.viewer.final_image.coverage() > 0.0);
}

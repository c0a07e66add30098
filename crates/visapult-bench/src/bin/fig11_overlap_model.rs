//! E7 / Figure 11 & §4.3 — the overlapped-pipeline timing model.
//!
//! Paper: Ts = N(L+R), To = N·max(L,R) + min(L,R); with L ≈ R the speedup
//! approaches 2N/(N+1) (nearly 2x), and it diminishes as L and R diverge.
//! The measured E4500 run (L≈15, R≈12, N=10) gave 265 s vs 169 s.
//!
//! This binary prints the model sweep and validates it against the back
//! end's *actual* overlap code ([`prefetch_while`]) running with synthetic
//! load and render phases.

use std::time::{Duration, Instant};
use visapult_bench::{ComparisonRow, ExperimentReport};
use visapult_core::backend::prefetch_while;
use visapult_core::OverlapModel;

/// Measure the back end's overlapped frame loop with artificial L and R (in
/// milliseconds) over `n` timesteps: read timestep 0, then render each
/// timestep while the next one is read (paper Figure 19).
fn measure_real_pipeline(load_ms: u64, render_ms: u64, n: usize) -> f64 {
    let load = || std::thread::sleep(Duration::from_millis(load_ms));
    let start = Instant::now();
    load();
    for t in 0..n {
        prefetch_while((t + 1 < n).then_some(load), || {
            std::thread::sleep(Duration::from_millis(render_ms))
        });
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    let mut out = ExperimentReport::new(
        "E7 / Figure 11 & §4.3",
        "Serial vs overlapped pipeline model and measured speedup",
    );

    out.line("Model sweep (N = 10 timesteps):");
    out.line(format!(
        "{:>6}  {:>6}  {:>9}  {:>9}  {:>8}",
        "L(s)", "R(s)", "Ts(s)", "To(s)", "speedup"
    ));
    for (l, r) in [(15.0, 12.0), (10.0, 10.0), (18.0, 2.0), (2.0, 18.0), (19.9, 0.1)] {
        let m = OverlapModel::new(l, r);
        out.line(format!(
            "{:>6.1}  {:>6.1}  {:>9.1}  {:>9.1}  {:>8.2}",
            l,
            r,
            m.serial_time(10),
            m.overlapped_time(10),
            m.speedup(10)
        ));
    }
    out.line("");
    out.line("Ideal speedup 2N/(N+1):");
    out.line(format!(
        "  N=1: {:.2}   N=5: {:.2}   N=10: {:.2}   N=100: {:.2}",
        OverlapModel::ideal_speedup(1),
        OverlapModel::ideal_speedup(5),
        OverlapModel::ideal_speedup(10),
        OverlapModel::ideal_speedup(100)
    ));

    // Validate against the real reader-thread/render loop (scaled down:
    // 30 ms load, 24 ms render, 10 steps — the same 15:12 ratio as the paper).
    let n = 10;
    let measured_overlap = measure_real_pipeline(30, 24, n);
    let model = OverlapModel::new(0.030, 0.024);
    let predicted_overlap = model.overlapped_time(n);
    let predicted_serial = model.serial_time(n);
    out.line("");
    out.line(format!(
        "Real overlapped frame loop (L=30ms, R=24ms, N={n}): measured {measured_overlap:.3}s, model To {predicted_overlap:.3}s, model Ts {predicted_serial:.3}s"
    ));

    out.compare(ComparisonRow::numeric(
        "E4500 serial prediction",
        265.0,
        OverlapModel::paper_e4500().serial_time(10),
        "s",
        0.05,
    ));
    out.compare(ComparisonRow::numeric(
        "E4500 overlapped prediction",
        169.0,
        OverlapModel::paper_e4500().overlapped_time(10),
        "s",
        0.05,
    ));
    out.compare(ComparisonRow::claim(
        "measured pipeline matches To (not Ts)",
        "To = N max(L,R) + min(L,R)",
        &format!("measured {measured_overlap:.3}s vs To {predicted_overlap:.3}s"),
        (measured_overlap - predicted_overlap).abs() / predicted_overlap < 0.25
            && measured_overlap < predicted_serial * 0.85,
    ));
    println!("{}", out.render());
}

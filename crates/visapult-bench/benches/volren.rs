//! Criterion bench: the software volume renderer itself.
//!
//! Per-PE `render_region` cost for the three slab shapes the end-to-end
//! benchmark renders: a 128×128×32 slab at a 256² texture (the render-bound
//! corridor, where every voxel column covers 2×2 pixels), the same slab at
//! 32² (down-sampled) and a 32×32×16 slab at 32².
//!
//! Besides the criterion output, a custom `main` writes a
//! `target/BENCH_volren.json` baseline (median seconds per render and the
//! derived slab Mvoxel/s for each case) so successive runs can be diffed
//! mechanically.  The virtual-time `ComputePlatform` sample rates model the
//! paper's hardware and are not calibrated from these numbers.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use visapult_bench::{median_secs, report_baseline};
use volren::{combustion_jet, render_region, Axis, RenderSettings, TransferFunction, Volume};

/// (case name, slab dims, square image side).
const CASES: [(&str, (usize, usize, usize), usize); 3] = [
    ("slab_128x128x32_img_256", (128, 128, 32), 256),
    ("slab_128x128x32_img_32", (128, 128, 32), 32),
    ("slab_32x32x16_img_32", (32, 32, 16), 32),
];

/// A case's slab and settings; the value range is computed once, outside the
/// timed region, as the back end does.
fn case(dims: (usize, usize, usize), side: usize) -> (Volume, (f32, f32), RenderSettings) {
    let slab = combustion_jet(dims, 0.5, 9);
    let range = slab.value_range();
    (slab, range, RenderSettings::with_size(side, side))
}

fn render(slab: &Volume, range: (f32, f32), settings: &RenderSettings) {
    let tf = TransferFunction::combustion_default();
    black_box(render_region(slab, Axis::Z, &tf, range, settings));
}

fn bench_render_region(c: &mut Criterion) {
    let mut group = c.benchmark_group("render_region");
    group.sample_size(20);
    for (name, dims, side) in CASES {
        let (slab, range, settings) = case(dims, side);
        group.throughput(Throughput::Elements(slab.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), &slab, |b, slab| {
            b.iter(|| render(slab, range, &settings));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_render_region);

fn write_baseline() {
    let samples = 30;
    let cases: Vec<String> = CASES
        .iter()
        .map(|&(name, dims, side)| {
            let (slab, range, settings) = case(dims, side);
            let median_s = median_secs(samples, || render(&slab, range, &settings));
            let mvoxels_per_s = slab.len() as f64 / median_s / 1e6;
            format!("    \"{name}\": {{ \"median_s\": {median_s:.9}, \"mvoxels_per_s\": {mvoxels_per_s:.1} }}")
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"volren_render_region\",\n  \"samples\": {samples},\n  \"cases\": {{\n{}\n  }}\n}}\n",
        cases.join(",\n"),
    );
    report_baseline("volren", &json);
}

fn main() {
    // `cargo test` runs bench targets with `--test`; do nothing there.
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    benches();
    write_baseline();
}

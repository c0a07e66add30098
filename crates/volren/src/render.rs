//! Software volume rendering.
//!
//! Two renderers are provided:
//!
//! * [`render_region`] — the axis-aligned orthographic ray caster each back
//!   end PE runs over its slab of data.  Rays travel along a principal axis,
//!   so sampling needs no interpolation and the result is exactly the 2-D
//!   texture the IBRAVR viewer expects for that slab.  It is a row-batched,
//!   column-deduplicated kernel: each distinct voxel column is cast once, and
//!   one image row's columns march together plane by plane.  Its output is
//!   bit-identical to casting every pixel on its own, which a differential
//!   test against a retained per-pixel reference caster pins.
//! * [`render_view`] — a general orthographic ray caster with trilinear
//!   sampling for arbitrary view orientations.  It is far slower and is used
//!   only as the ground truth against which IBRAVR artifacts are measured
//!   (experiment E8) and as the "render remote" baseline renderer.
//!
//! Both composite front-to-back with the Porter–Duff `over` operator and
//! opacity-correct samples for step size.

use crate::camera::{Axis, ViewOrientation};
use crate::composite::RgbaImage;
use crate::transfer::TransferFunction;
use crate::volume::Volume;
use serde::{Deserialize, Serialize};

/// Settings shared by the renderers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RenderSettings {
    /// Output image width in pixels.
    pub image_width: usize,
    /// Output image height in pixels.
    pub image_height: usize,
    /// Ray-march step in voxel units (1.0 = one sample per voxel).
    pub step: f32,
    /// Early-ray-termination opacity threshold.
    pub early_termination: f32,
}

impl Default for RenderSettings {
    fn default() -> Self {
        RenderSettings {
            image_width: 256,
            image_height: 256,
            step: 1.0,
            early_termination: 0.98,
        }
    }
}

impl RenderSettings {
    /// Settings with a given image size.
    pub fn with_size(width: usize, height: usize) -> Self {
        RenderSettings {
            image_width: width.max(1),
            image_height: height.max(1),
            ..Default::default()
        }
    }
}

#[inline]
fn blend_front_to_back(acc: &mut [f32; 4], sample: [f32; 4]) {
    let trans = 1.0 - acc[3];
    let a = sample[3] * trans;
    acc[0] += sample[0] * a;
    acc[1] += sample[1] * a;
    acc[2] += sample[2] * a;
    acc[3] += a;
}

fn finalize(acc: [f32; 4]) -> [f32; 4] {
    // Accumulated colour is premultiplied; convert back to straight alpha.
    if acc[3] > 1e-6 {
        [acc[0] / acc[3], acc[1] / acc[3], acc[2] / acc[3], acc[3].min(1.0)]
    } else {
        [0.0, 0.0, 0.0, 0.0]
    }
}

/// Image pixel `p` of `pixels` → the voxel index it samples along an image
/// axis spanning `voxels` cells (nearest cell centre, clamped).
#[inline]
fn pixel_to_voxel(p: usize, pixels: usize, voxels: usize) -> usize {
    let i = ((p as f32 + 0.5) / pixels as f32 * voxels as f32) as usize;
    i.min(voxels - 1)
}

/// Render a (sub)volume along a principal axis.
///
/// The image plane is spanned by the two axes perpendicular to `axis`, with
/// the first of them (in X→Y→Z order) along the image X direction.  Samples
/// are taken at voxel centres along the ray, front (low index) to back (high
/// index), normalized against `value_range` so that slabs rendered separately
/// by different PEs use a consistent classification.
///
/// Every pixel `(px, py)` is the ray through the voxel column `(u, v)` that
/// its centre maps to, so pixels sharing a column share a ray.  The kernel
/// casts each distinct column once: a pixel whose `u` equals its left
/// neighbour's copies that finished value, and a row whose `v` equals the
/// row above copies that row.  The distinct columns of one row march
/// together, plane by plane, over a sample sequence computed once from the
/// `t += spacing` recurrence; a per-row active list drops a column when it
/// reaches `early_termination`.  Along Y and Z each plane's reads are
/// X-contiguous.
///
/// Bit-exactness contract: every ray performs exactly the f32 operations, in
/// exactly the order, of a per-pixel front-to-back march, so every output
/// float is bit-identical to casting each pixel on its own (a test-only
/// reference caster pins this).  Scratch memory is O(image width + samples
/// per ray); nothing slab-sized is allocated.
pub fn render_region(
    volume: &Volume,
    axis: Axis,
    transfer: &TransferFunction,
    value_range: (f32, f32),
    settings: &RenderSettings,
) -> RgbaImage {
    let (nx, ny, nz) = volume.dims();
    let plane = nx * ny;
    // Ray length and image extents in voxels, and the data-index stride of
    // one step along the ray, along image X (u) and along image Y (v).
    let (ray_len, img_u, img_v, stride_s, stride_u, stride_v) = match axis {
        Axis::X => (nx, ny, nz, 1, nx, plane),
        Axis::Y => (ny, nx, nz, nx, 1, plane),
        Axis::Z => (nz, nx, ny, plane, 1, nx),
    };
    let (width, height) = (settings.image_width, settings.image_height);
    let mut image = RgbaImage::new(width, height);
    let span = (value_range.1 - value_range.0).max(1e-20);
    // Spacing ratio for opacity correction: a transfer function calibrated
    // for unit steps through the full volume.
    let spacing = settings.step.max(0.05);

    // Data offsets of a ray's samples, from the recurrence every ray shares.
    let mut sample_offsets = Vec::new();
    let mut t = 0.0f32;
    while (t as usize) < ray_len {
        sample_offsets.push(t as usize * stride_s);
        t += spacing;
    }
    // The distinct columns along image X; pixel `px` shows `column_of[px]`.
    let mut column_offsets: Vec<usize> = Vec::new();
    let mut column_of = Vec::with_capacity(width);
    let mut last_u = None;
    for px in 0..width {
        let u = pixel_to_voxel(px, width, img_u);
        if last_u != Some(u) {
            column_offsets.push(u * stride_u);
            last_u = Some(u);
        }
        column_of.push(column_offsets.len() - 1);
    }

    let data = volume.data();
    let mut acc = vec![[0.0f32; 4]; column_offsets.len()];
    let mut active: Vec<usize> = Vec::with_capacity(column_offsets.len());
    let row_len = width * 4;
    let pixels = image.data_mut();
    let mut last_v = None;
    for py in 0..height {
        let v = pixel_to_voxel(py, height, img_v);
        let (above, rest) = pixels.split_at_mut(py * row_len);
        let row = &mut rest[..row_len];
        if last_v == Some(v) {
            row.copy_from_slice(&above[above.len() - row_len..]);
            continue;
        }
        last_v = Some(v);

        acc.fill([0.0; 4]);
        active.clear();
        active.extend(0..column_offsets.len());
        let row_base = v * stride_v;
        for &sample_offset in &sample_offsets {
            let base = row_base + sample_offset;
            let mut kept = 0;
            for i in 0..active.len() {
                let c = active[i];
                let raw = data[base + column_offsets[c]];
                let norm = (raw - value_range.0) / span;
                let sample = transfer.evaluate_corrected(norm, spacing);
                blend_front_to_back(&mut acc[c], sample);
                // Negated `>=`, not `<`: a NaN opacity keeps marching, as it
                // did in the per-pixel loop.
                let terminated = acc[c][3] >= settings.early_termination;
                if !terminated {
                    active[kept] = c;
                    kept += 1;
                }
            }
            active.truncate(kept);
            if active.is_empty() {
                break;
            }
        }
        for a in acc.iter_mut() {
            *a = finalize(*a);
        }
        for (pixel, &c) in row.chunks_exact_mut(4).zip(&column_of) {
            pixel.copy_from_slice(&acc[c]);
        }
    }
    image
}

/// Trilinear sample of the volume at a (possibly fractional) position given
/// in voxel coordinates.  Positions outside the volume return `None`.
fn sample_trilinear(volume: &Volume, pos: [f32; 3]) -> Option<f32> {
    let dims = volume.dims();
    let (nx, ny, nz) = (dims.0 as f32, dims.1 as f32, dims.2 as f32);
    if pos[0] < 0.0 || pos[1] < 0.0 || pos[2] < 0.0 || pos[0] > nx - 1.0 || pos[1] > ny - 1.0 || pos[2] > nz - 1.0 {
        return None;
    }
    let x0 = pos[0].floor() as usize;
    let y0 = pos[1].floor() as usize;
    let z0 = pos[2].floor() as usize;
    let x1 = (x0 + 1).min(dims.0 - 1);
    let y1 = (y0 + 1).min(dims.1 - 1);
    let z1 = (z0 + 1).min(dims.2 - 1);
    let fx = pos[0] - x0 as f32;
    let fy = pos[1] - y0 as f32;
    let fz = pos[2] - z0 as f32;
    let lerp = |a: f32, b: f32, t: f32| a + (b - a) * t;
    let c00 = lerp(volume.get(x0, y0, z0), volume.get(x1, y0, z0), fx);
    let c10 = lerp(volume.get(x0, y1, z0), volume.get(x1, y1, z0), fx);
    let c01 = lerp(volume.get(x0, y0, z1), volume.get(x1, y0, z1), fx);
    let c11 = lerp(volume.get(x0, y1, z1), volume.get(x1, y1, z1), fx);
    let c0 = lerp(c00, c10, fy);
    let c1 = lerp(c01, c11, fy);
    Some(lerp(c0, c1, fz))
}

/// Render the full volume from an arbitrary orthographic view orientation.
///
/// Used as ground truth for IBRAVR artifact measurement and as the "render
/// remote" baseline.  Much more expensive than [`render_region`].
pub fn render_view(
    volume: &Volume,
    view: &ViewOrientation,
    transfer: &TransferFunction,
    settings: &RenderSettings,
) -> RgbaImage {
    let dims = volume.dims();
    let center = [
        (dims.0 as f32 - 1.0) / 2.0,
        (dims.1 as f32 - 1.0) / 2.0,
        (dims.2 as f32 - 1.0) / 2.0,
    ];
    let extent = (dims.0.max(dims.1).max(dims.2)) as f32;
    let dir64 = view.view_direction();
    let dir = [dir64[0] as f32, dir64[1] as f32, dir64[2] as f32];
    // Build an orthonormal basis (right, up, dir).
    let up_hint = if dir[1].abs() > 0.9 {
        [1.0, 0.0, 0.0]
    } else {
        [0.0, 1.0, 0.0]
    };
    let right = normalize(cross(up_hint, dir));
    let up = normalize(cross(dir, right));

    let (vmin, vmax) = volume.value_range();
    let span = (vmax - vmin).max(1e-20);
    let spacing = settings.step.max(0.05);
    let half = extent * 0.75;
    let ray_start_dist = extent;
    let ray_length = extent * 2.0;

    let mut image = RgbaImage::new(settings.image_width, settings.image_height);
    for py in 0..settings.image_height {
        let sy = (py as f32 + 0.5) / settings.image_height as f32 * 2.0 - 1.0;
        for px in 0..settings.image_width {
            let sx = (px as f32 + 0.5) / settings.image_width as f32 * 2.0 - 1.0;
            // Ray origin on a plane in front of the volume, moving along dir.
            let origin = [
                center[0] + right[0] * sx * half + up[0] * sy * half - dir[0] * ray_start_dist,
                center[1] + right[1] * sx * half + up[1] * sy * half - dir[1] * ray_start_dist,
                center[2] + right[2] * sx * half + up[2] * sy * half - dir[2] * ray_start_dist,
            ];
            let mut acc = [0.0f32; 4];
            let mut t = 0.0f32;
            while t < ray_length {
                let pos = [origin[0] + dir[0] * t, origin[1] + dir[1] * t, origin[2] + dir[2] * t];
                if let Some(raw) = sample_trilinear(volume, pos) {
                    let norm = (raw - vmin) / span;
                    let sample = transfer.evaluate_corrected(norm, spacing);
                    blend_front_to_back(&mut acc, sample);
                    if acc[3] >= settings.early_termination {
                        break;
                    }
                }
                t += spacing;
            }
            image.set(px, py, finalize(acc));
        }
    }
    image
}

/// Render the full volume along a principal axis: a convenience wrapper used
/// as the exact reference for compositing per-slab images (the sum of the
/// parts must equal the whole).
pub fn render_volume_full(
    volume: &Volume,
    axis: Axis,
    transfer: &TransferFunction,
    settings: &RenderSettings,
) -> RgbaImage {
    render_region(volume, axis, transfer, volume.value_range(), settings)
}

fn cross(a: [f32; 3], b: [f32; 3]) -> [f32; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn normalize(v: [f32; 3]) -> [f32; 3] {
    let n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt().max(1e-12);
    [v[0] / n, v[1] / n, v[2] / n]
}

/// Estimate of the cost of rendering a region in voxel-samples, used by the
/// virtual-time platform models to convert region sizes into render seconds.
pub fn render_cost_samples(region_cells: usize, settings: &RenderSettings) -> u64 {
    // One ray per pixel marching through the region's depth; approximating
    // depth by cells^(1/3) of the region would under-count slabs, so charge
    // cells / step directly (each cell visited about once per unit step).
    (region_cells as f64 / settings.step.max(0.05) as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::combustion_jet;
    use proptest::prelude::*;

    /// The retained per-pixel caster: the differential oracle for
    /// [`render_region`] (test-only).  Every pixel maps to its voxel column
    /// and marches its own ray, with no sharing between pixels, rows or
    /// planes — written directly against the definition, so the kernel's
    /// deduplication and row batching have nothing to hide behind.  It also
    /// applies the opacity correction in its unconditional `powf` form, so
    /// the unit-spacing shortcut in `evaluate_corrected` is checked too.
    fn render_region_reference(
        volume: &Volume,
        axis: Axis,
        transfer: &TransferFunction,
        value_range: (f32, f32),
        settings: &RenderSettings,
    ) -> RgbaImage {
        let dims = volume.dims();
        let (ray_len, img_u, img_v): (usize, usize, usize) = match axis {
            Axis::X => (dims.0, dims.1, dims.2),
            Axis::Y => (dims.1, dims.0, dims.2),
            Axis::Z => (dims.2, dims.0, dims.1),
        };
        let mut image = RgbaImage::new(settings.image_width, settings.image_height);
        let span = (value_range.1 - value_range.0).max(1e-20);
        let spacing = settings.step.max(0.05);

        for py in 0..settings.image_height {
            let v = ((py as f32 + 0.5) / settings.image_height as f32 * img_v as f32) as usize;
            let v = v.min(img_v - 1);
            for px in 0..settings.image_width {
                let u = ((px as f32 + 0.5) / settings.image_width as f32 * img_u as f32) as usize;
                let u = u.min(img_u - 1);
                let mut acc = [0.0f32; 4];
                let mut t = 0.0f32;
                while (t as usize) < ray_len {
                    let s = t as usize;
                    let raw = match axis {
                        Axis::X => volume.get(s, u, v),
                        Axis::Y => volume.get(u, s, v),
                        Axis::Z => volume.get(u, v, s),
                    };
                    let norm = (raw - value_range.0) / span;
                    let [r, g, b, a] = transfer.evaluate(norm);
                    let sample = [r, g, b, 1.0 - (1.0 - a).powf(spacing.max(0.0))];
                    blend_front_to_back(&mut acc, sample);
                    if acc[3] >= settings.early_termination {
                        break;
                    }
                    t += spacing;
                }
                image.set(px, py, finalize(acc));
            }
        }
        image
    }

    fn assert_bit_identical(got: &RgbaImage, want: &RgbaImage, case: &str) {
        assert_eq!((got.width(), got.height()), (want.width(), want.height()), "{case}");
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{case}: float {i} differs ({g} vs {w})");
        }
    }

    const AXES: [Axis; 3] = [Axis::X, Axis::Y, Axis::Z];
    const STEPS: [f32; 4] = [1.0, 0.5, 0.7, 1.3];

    fn transfer_variant(which: usize, opacity: f32) -> TransferFunction {
        match which {
            0 => TransferFunction::Grayscale { opacity },
            1 => TransferFunction::Fire { opacity },
            _ => TransferFunction::Peak {
                center: 0.45,
                width: 0.3,
                color: [0.3, 0.8, 0.5],
                opacity,
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// The kernel against the per-pixel reference, float for float, over
        /// volume shapes, up- and down-sampled images, every axis, unit and
        /// non-unit steps, termination thresholds, transfer functions and
        /// value ranges.
        #[test]
        fn kernel_is_bit_identical_to_the_per_pixel_reference(
            dims in (1usize..41, 1usize..41, 1usize..41),
            image in (1usize..98, 1usize..98),
            shape in (0usize..3, 0usize..4, 0usize..3),
            early_termination in 0.2f32..1.05,
            opacity in 0.05f32..1.0,
            range in (-0.5f32..0.5, 0.2f32..2.0),
            seed in 0u64..1000,
        ) {
            let volume = combustion_jet(dims, 0.5, seed);
            let (which_axis, which_step, which_tf) = shape;
            let settings = RenderSettings {
                image_width: image.0,
                image_height: image.1,
                step: STEPS[which_step],
                early_termination,
            };
            let tf = transfer_variant(which_tf, opacity);
            let (lo, hi) = volume.value_range();
            let value_range = (lo + range.0 * (hi - lo), lo + range.1 * (hi - lo));
            let axis = AXES[which_axis];
            let case = format!("{dims:?} {image:?} {axis:?} {settings:?} {tf:?} {value_range:?}");
            assert_bit_identical(
                &render_region(&volume, axis, &tf, value_range, &settings),
                &render_region_reference(&volume, axis, &tf, value_range, &settings),
                &case,
            );
        }
    }

    #[test]
    fn termination_ties_match_the_per_pixel_reference() {
        // Quarter-step samples through a unit greyscale ramp make the
        // accumulated opacity land exactly on each threshold, so a ray that
        // stops one sample late (or early) shows up in the pixels.
        let dims = (7, 6, 9);
        let data = (0..dims.0 * dims.1 * dims.2)
            .map(|i| ((i * 7) % 5) as f32 / 4.0)
            .collect();
        let volume = Volume::from_data(dims, data);
        let tf = TransferFunction::Grayscale { opacity: 1.0 };
        for axis in AXES {
            for early_termination in [0.25, 0.5, 0.75, 0.875, 1.0] {
                let settings = RenderSettings {
                    image_width: 11,
                    image_height: 5,
                    step: 1.0,
                    early_termination,
                };
                assert_bit_identical(
                    &render_region(&volume, axis, &tf, (0.0, 1.0), &settings),
                    &render_region_reference(&volume, axis, &tf, (0.0, 1.0), &settings),
                    &format!("{axis:?} at threshold {early_termination}"),
                );
            }
        }
    }

    #[test]
    fn corridor_slab_is_bit_identical_to_the_per_pixel_reference() {
        // The benchmark's render-bound shape: a 128x128x32 slab at 256^2,
        // where every voxel column covers a 2x2 block of pixels.
        let slab = combustion_jet((128, 128, 32), 0.5, 9);
        let tf = TransferFunction::combustion_default();
        let settings = RenderSettings::with_size(256, 256);
        let range = slab.value_range();
        assert_bit_identical(
            &render_region(&slab, Axis::Z, &tf, range, &settings),
            &render_region_reference(&slab, Axis::Z, &tf, range, &settings),
            "128x128x32 at 256^2",
        );
    }

    fn test_volume() -> Volume {
        combustion_jet((32, 24, 24), 0.5, 7)
    }

    #[test]
    fn empty_volume_renders_transparent() {
        let v = Volume::zeros((8, 8, 8));
        let img = render_region(
            &v,
            Axis::Z,
            &TransferFunction::Grayscale { opacity: 1.0 },
            (0.0, 1.0),
            &RenderSettings::with_size(16, 16),
        );
        assert_eq!(img.coverage(), 0.0);
    }

    #[test]
    fn nonempty_volume_renders_something() {
        let v = test_volume();
        let img = render_region(
            &v,
            Axis::Z,
            &TransferFunction::combustion_default(),
            v.value_range(),
            &RenderSettings::with_size(64, 64),
        );
        assert!(img.coverage() > 0.05, "coverage {}", img.coverage());
    }

    #[test]
    fn slab_compositing_matches_full_render() {
        // Render the whole volume along Z, and render 4 Z-slabs separately
        // then composite them back-to-front; the results must match closely.
        // This is the core correctness property of object-order rendering.
        let v = test_volume();
        let tf = TransferFunction::combustion_default();
        let settings = RenderSettings::with_size(48, 48);
        let full = render_volume_full(&v, Axis::Z, &tf, &settings);

        let range = v.value_range();
        let slabs = 4;
        let nz = v.dims().2 / slabs;
        // Back-to-front: the farthest slab (highest Z) first.
        let mut images = Vec::new();
        for s in (0..slabs).rev() {
            let slab = v.z_slab(s * nz, nz);
            images.push(render_region(&slab, Axis::Z, &tf, range, &settings));
        }
        let composited = RgbaImage::composite_back_to_front(images.iter()).unwrap();
        let err = full.mean_abs_diff(&composited);
        assert!(err < 0.02, "slab compositing diverged from full render: {err}");
    }

    #[test]
    fn axis_aligned_view_matches_axis_renderer() {
        // The general ray caster looking straight down -Z should roughly agree
        // with the fast axis-aligned path (up to sampling differences).
        let v = test_volume();
        let tf = TransferFunction::combustion_default();
        let settings = RenderSettings::with_size(32, 32);
        let fast = render_volume_full(&v, Axis::Z, &tf, &settings);
        let general = render_view(&v, &ViewOrientation::axis_aligned(), &tf, &settings);
        // Coverage should be in the same ballpark; exact pixel agreement is
        // not expected because the general caster letterboxes the volume.
        assert!(general.coverage() > 0.0);
        assert!(fast.coverage() > 0.0);
    }

    #[test]
    fn early_termination_reduces_no_correctness_for_opaque_scenes() {
        let v = test_volume();
        let tf = TransferFunction::Fire { opacity: 1.0 };
        let mut settings = RenderSettings::with_size(24, 24);
        settings.early_termination = 0.999;
        let full = render_volume_full(&v, Axis::X, &tf, &settings);
        settings.early_termination = 0.95;
        let early = render_volume_full(&v, Axis::X, &tf, &settings);
        assert!(full.mean_abs_diff(&early) < 0.05);
    }

    #[test]
    fn different_axes_give_different_images() {
        let v = test_volume();
        let tf = TransferFunction::combustion_default();
        let settings = RenderSettings::with_size(32, 32);
        let x = render_volume_full(&v, Axis::X, &tf, &settings);
        let z = render_volume_full(&v, Axis::Z, &tf, &settings);
        assert!(x.mean_abs_diff(&z) > 0.001, "jet should look different down X vs Z");
    }

    #[test]
    fn trilinear_sampling_interpolates() {
        let mut v = Volume::zeros((2, 2, 2));
        v.set(1, 0, 0, 1.0);
        assert!((sample_trilinear(&v, [0.5, 0.0, 0.0]).unwrap() - 0.5).abs() < 1e-6);
        assert!(sample_trilinear(&v, [-0.1, 0.0, 0.0]).is_none());
        assert!(sample_trilinear(&v, [0.0, 0.0, 1.5]).is_none());
    }

    #[test]
    fn render_cost_scales_with_region_size() {
        let s = RenderSettings::default();
        assert!(render_cost_samples(1_000_000, &s) > render_cost_samples(100_000, &s));
        let finer = RenderSettings {
            step: 0.5,
            ..RenderSettings::default()
        };
        assert!(render_cost_samples(100_000, &finer) > render_cost_samples(100_000, &s));
    }
}

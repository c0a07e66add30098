//! Transfer functions: scalar value → colour and opacity.
//!
//! Volume rendering (reference \[9\] of the paper) classifies each sample
//! through a transfer function before compositing.  Visapult's combustion
//! visualizations use a fire-like map over the normalized scalar; a greyscale
//! ramp and an isosurface-style peak are provided for tests and other data.

use serde::{Deserialize, Serialize};

/// An RGBA colour with premultiplication *not* applied (alpha is opacity).
pub type Rgba = [f32; 4];

/// A transfer function mapping normalized scalars in `[0, 1]` to RGBA.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TransferFunction {
    /// Greyscale ramp: value → grey level, opacity proportional to value.
    Grayscale {
        /// Overall opacity scale in `[0, 1]`.
        opacity: f32,
    },
    /// A fire/combustion map: transparent blue-black → red → orange → white.
    Fire {
        /// Overall opacity scale in `[0, 1]`.
        opacity: f32,
    },
    /// Emphasize values near `center` within `width` (soft isosurface).
    Peak {
        /// Centre of the emphasized band.
        center: f32,
        /// Width of the band.
        width: f32,
        /// Colour given to in-band samples.
        color: [f32; 3],
        /// Peak opacity.
        opacity: f32,
    },
}

impl TransferFunction {
    /// The default combustion map used by the examples.
    pub fn combustion_default() -> Self {
        TransferFunction::Fire { opacity: 0.6 }
    }

    /// Evaluate the transfer function at a normalized value.
    pub fn evaluate(&self, value: f32) -> Rgba {
        let v = value.clamp(0.0, 1.0);
        match self {
            TransferFunction::Grayscale { opacity } => [v, v, v, v * opacity.clamp(0.0, 1.0)],
            TransferFunction::Fire { opacity } => {
                // Piecewise ramp: black -> red -> orange -> yellow -> white.
                let (r, g, b) = if v < 0.25 {
                    (v * 4.0 * 0.6, 0.0, v * 0.2)
                } else if v < 0.5 {
                    (0.6 + (v - 0.25) * 1.6, (v - 0.25) * 1.2, 0.05)
                } else if v < 0.75 {
                    (1.0, 0.3 + (v - 0.5) * 2.0, 0.05 + (v - 0.5) * 0.4)
                } else {
                    (1.0, 0.8 + (v - 0.75) * 0.8, 0.15 + (v - 0.75) * 3.4)
                };
                let a = v.powf(1.5) * opacity.clamp(0.0, 1.0);
                [r.clamp(0.0, 1.0), g.clamp(0.0, 1.0), b.clamp(0.0, 1.0), a]
            }
            TransferFunction::Peak {
                center,
                width,
                color,
                opacity,
            } => {
                let d = ((v - center) / width.max(1e-6)).abs();
                let w = (1.0 - d).max(0.0);
                [color[0], color[1], color[2], w * opacity.clamp(0.0, 1.0)]
            }
        }
    }

    /// Evaluate with opacity corrected for sample spacing: compositing `n`
    /// samples through a slab must give the same optical depth regardless of
    /// `n`.  `reference_samples / actual_samples` is the spacing ratio.
    ///
    /// At unit spacing the `powf` is skipped: `x.powf(1.0) == x` exactly, so
    /// the result is still `1 - (1 - a)`, bit for bit.
    pub fn evaluate_corrected(&self, value: f32, spacing_ratio: f32) -> Rgba {
        let [r, g, b, a] = self.evaluate(value);
        let transmitted = if spacing_ratio == 1.0 {
            1.0 - a
        } else {
            (1.0 - a).powf(spacing_ratio.max(0.0))
        };
        [r, g, b, 1.0 - transmitted]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_stay_in_unit_range() {
        for tf in [
            TransferFunction::Grayscale { opacity: 1.0 },
            TransferFunction::Fire { opacity: 0.7 },
            TransferFunction::Peak {
                center: 0.5,
                width: 0.1,
                color: [0.2, 0.9, 0.4],
                opacity: 0.8,
            },
        ] {
            for i in 0..=100 {
                let v = i as f32 / 100.0;
                let c = tf.evaluate(v);
                for ch in c {
                    assert!((0.0..=1.0).contains(&ch), "{tf:?} at {v} gave {c:?}");
                }
            }
        }
    }

    #[test]
    fn grayscale_is_monotone_in_value() {
        let tf = TransferFunction::Grayscale { opacity: 0.5 };
        let lo = tf.evaluate(0.2);
        let hi = tf.evaluate(0.8);
        assert!(hi[0] > lo[0] && hi[3] > lo[3]);
    }

    #[test]
    fn fire_map_gets_hotter_with_value() {
        let tf = TransferFunction::Fire { opacity: 1.0 };
        let low = tf.evaluate(0.1);
        let high = tf.evaluate(0.95);
        // Hot end is brighter and more opaque.
        assert!(high[0] + high[1] + high[2] > low[0] + low[1] + low[2]);
        assert!(high[3] > low[3]);
        // Input is clamped.
        assert_eq!(tf.evaluate(2.0), tf.evaluate(1.0));
        assert_eq!(tf.evaluate(-1.0), tf.evaluate(0.0));
    }

    #[test]
    fn peak_highlights_its_band_only() {
        let tf = TransferFunction::Peak {
            center: 0.5,
            width: 0.1,
            color: [1.0, 0.0, 0.0],
            opacity: 1.0,
        };
        assert!(tf.evaluate(0.5)[3] > 0.99);
        assert_eq!(tf.evaluate(0.8)[3], 0.0);
        assert_eq!(tf.evaluate(0.2)[3], 0.0);
    }

    #[test]
    fn unit_spacing_correction_is_bit_identical_to_powf() {
        // A strided sweep over every f32 bit pattern in [0, 1], through each
        // variant: the unit-spacing shortcut must equal the powf form.
        let one = 1.0f32.to_bits();
        for tf in [
            TransferFunction::Grayscale { opacity: 0.9 },
            TransferFunction::Fire { opacity: 0.6 },
            TransferFunction::Peak {
                center: 0.4,
                width: 0.3,
                color: [0.2, 0.9, 0.4],
                opacity: 0.8,
            },
        ] {
            for bits in (0..=one).step_by(997).chain([one]) {
                let value = f32::from_bits(bits);
                let [r, g, b, a] = tf.evaluate(value);
                let expected = [r, g, b, 1.0 - (1.0 - a).powf(1.0)];
                let got = tf.evaluate_corrected(value, 1.0);
                assert_eq!(got.map(f32::to_bits), expected.map(f32::to_bits), "{tf:?} at {value:e}");
            }
        }
    }

    #[test]
    fn opacity_correction_preserves_total_opacity() {
        // Compositing 2 samples at half spacing should give roughly the same
        // opacity as 1 sample at full spacing.
        let tf = TransferFunction::Grayscale { opacity: 0.5 };
        let full = tf.evaluate_corrected(0.6, 1.0)[3];
        let half = tf.evaluate_corrected(0.6, 0.5)[3];
        let two_halves = 1.0 - (1.0 - half) * (1.0 - half);
        assert!((two_halves - full).abs() < 1e-5);
    }
}

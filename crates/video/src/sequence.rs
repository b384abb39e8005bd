//! Synthetic test-sequence generation with controllable motion statistics.

use dsra_core::rng::SplitMix64;
use dsra_me::Plane;

/// Uniform `f64` in `[lo, hi)`.
fn gen_f64(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

/// Uniform `i64` in `[lo, hi]`.
fn gen_i64(rng: &mut SplitMix64, lo: i64, hi: i64) -> i64 {
    lo + rng.next_below((hi - lo + 1) as u64) as i64
}

/// Parameters of a generated sequence.
#[derive(Debug, Clone, Copy)]
pub struct SequenceConfig {
    /// Frame width (pixels).
    pub width: usize,
    /// Frame height (pixels).
    pub height: usize,
    /// Number of frames.
    pub frames: usize,
    /// Global pan per frame, in pixels.
    pub pan: (f64, f64),
    /// Number of independently moving square objects.
    pub objects: usize,
    /// Additive noise amplitude (0 = clean).
    pub noise: u8,
    /// RNG seed (sequences are deterministic per seed).
    pub seed: u64,
}

impl Default for SequenceConfig {
    fn default() -> Self {
        SequenceConfig {
            width: 96,
            height: 96,
            frames: 4,
            pan: (1.5, -0.5),
            objects: 3,
            noise: 2,
            seed: 0x5EED,
        }
    }
}

/// A generated sequence of luminance planes.
#[derive(Debug, Clone)]
pub struct SyntheticSequence {
    config: SequenceConfig,
    frames: Vec<Plane>,
}

#[derive(Debug, Clone, Copy)]
struct Object {
    x: f64,
    y: f64,
    vx: f64,
    vy: f64,
    size: usize,
    level: u8,
}

impl SyntheticSequence {
    /// Generates the sequence.
    pub fn generate(config: SequenceConfig) -> Self {
        let mut rng = SplitMix64::new(config.seed);
        let objects: Vec<Object> = (0..config.objects)
            .map(|_| Object {
                x: gen_f64(&mut rng, 0.0, config.width as f64 * 0.75),
                y: gen_f64(&mut rng, 0.0, config.height as f64 * 0.75),
                vx: gen_f64(&mut rng, -3.0, 3.0),
                vy: gen_f64(&mut rng, -3.0, 3.0),
                size: gen_i64(&mut rng, 8, 19) as usize,
                level: gen_i64(&mut rng, 90, 219) as u8,
            })
            .collect();
        let mut frames = Vec::with_capacity(config.frames);
        for f in 0..config.frames {
            let fx = f as f64 * config.pan.0;
            let fy = f as f64 * config.pan.1;
            // Smooth textured background, shifted by the pan: one sine per
            // column and one cosine per row.
            let col: Vec<f64> = (0..config.width)
                .map(|x| ((x as f64 + fx) * 0.19).sin())
                .collect();
            let row: Vec<f64> = (0..config.height)
                .map(|y| ((y as f64 + fy) * 0.13).cos())
                .collect();
            let mut data = Vec::with_capacity(config.width * config.height);
            for (y, &c) in row.iter().enumerate() {
                for (x, &s) in col.iter().enumerate() {
                    let mut v = 120.0 + 50.0 * (s + c);
                    // Foreground objects with their own motion.
                    for (i, o) in objects.iter().enumerate() {
                        let ox = o.x + o.vx * f as f64;
                        let oy = o.y + o.vy * f as f64;
                        if (x as f64) >= ox
                            && (x as f64) < ox + o.size as f64
                            && (y as f64) >= oy
                            && (y as f64) < oy + o.size as f64
                        {
                            v = f64::from(o.level) + 10.0 * ((x + y + i) % 5) as f64;
                        }
                    }
                    if config.noise > 0 {
                        let n =
                            gen_i64(&mut rng, -i64::from(config.noise), i64::from(config.noise));
                        v += n as f64;
                    }
                    data.push(v.clamp(0.0, 255.0) as u8);
                }
            }
            frames.push(Plane::new(config.width, config.height, data));
        }
        SyntheticSequence { config, frames }
    }

    /// The generated frames.
    pub fn frames(&self) -> &[Plane] {
        &self.frames
    }

    /// Frame at index `i`.
    ///
    /// # Panics
    /// Panics when out of range.
    pub fn frame(&self, i: usize) -> &Plane {
        &self.frames[i]
    }

    /// Generation parameters.
    pub fn config(&self) -> &SequenceConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsra_me::{full_search, SearchParams};

    #[test]
    fn deterministic_per_seed() {
        let a = SyntheticSequence::generate(SequenceConfig::default());
        let b = SyntheticSequence::generate(SequenceConfig::default());
        assert_eq!(a.frame(0).data(), b.frame(0).data());
        let c = SyntheticSequence::generate(SequenceConfig {
            seed: 1,
            ..Default::default()
        });
        assert_ne!(a.frame(0).data(), c.frame(0).data());
    }

    #[test]
    fn pan_is_recovered_by_motion_search() {
        let seq = SyntheticSequence::generate(SequenceConfig {
            pan: (2.0, 1.0),
            objects: 0,
            noise: 0,
            frames: 2,
            ..Default::default()
        });
        // Block in the background: frame 1 content equals frame 0 shifted by
        // the pan, so the best MV should be (pan.x, pan.y).
        let m = full_search(
            seq.frame(1),
            seq.frame(0),
            40,
            40,
            &SearchParams {
                block: 16,
                range: 4,
            },
        );
        assert_eq!(m.mv, (2, 1));
    }

    #[test]
    fn frames_have_requested_geometry() {
        let seq = SyntheticSequence::generate(SequenceConfig {
            width: 48,
            height: 32,
            frames: 3,
            ..Default::default()
        });
        assert_eq!(seq.frames().len(), 3);
        assert_eq!(seq.frame(2).width(), 48);
        assert_eq!(seq.frame(2).height(), 32);
    }
}

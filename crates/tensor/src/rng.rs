//! Seeded, reproducible initialisation. Every weight in every test and
//! benchmark comes from here, which is what makes cross-engine gradient
//! comparisons exact.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A deterministic RNG from a 64-bit seed.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// The seeded stream at an exact position: `seeded(seed)` fast-forwarded
/// past `draws` scalar draws. This is how a checkpoint records "where the
/// data stream was": resuming from `(seed, draws)` continues the *same*
/// stream the uninterrupted run would have consumed, which is one of the
/// ingredients of bit-identical resume (`hanayo-ckpt`'s `RngCursor`).
///
/// Fast-forwarding replays (and discards) the skipped draws, so it costs
/// `O(draws)` — fine for the micro-model data sizes this repo trains.
pub fn seeded_at(seed: u64, draws: u64) -> StdRng {
    let mut rng = seeded(seed);
    for _ in 0..draws {
        let _: f32 = rng.random();
    }
    rng
}

/// Uniform tensor in `[-limit, limit)`.
pub fn uniform(rng: &mut StdRng, rows: usize, cols: usize, limit: f32) -> Tensor {
    let data = (0..rows * cols).map(|_| rng.random::<f32>() * 2.0 * limit - limit).collect();
    Tensor::from_vec(rows, cols, data)
}

/// Kaiming/He-style init for a `fan_in → fan_out` linear layer:
/// uniform with limit `sqrt(6 / fan_in)`.
pub(crate) fn he_init(rng: &mut StdRng, fan_in: usize, fan_out: usize) -> Tensor {
    let limit = (6.0 / fan_in as f32).sqrt();
    uniform(rng, fan_in, fan_out, limit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_weights() {
        let a = he_init(&mut seeded(7), 16, 8);
        let b = he_init(&mut seeded(7), 16, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_weights() {
        let a = he_init(&mut seeded(7), 16, 8);
        let b = he_init(&mut seeded(8), 16, 8);
        assert_ne!(a, b);
    }

    #[test]
    fn seeded_stream_is_pinned() {
        // The exact draws of seed 42 are frozen: every cross-engine
        // gradient-equivalence test initialises weights through this
        // stream, so a silent RNG change would invalidate all recorded
        // baselines. If the generator changes intentionally, update these
        // constants and regenerate the golden schedule snapshots.
        let t = uniform(&mut seeded(42), 1, 4, 1.0);
        assert_eq!(t.data, vec![0.48312974, -0.68017924, -0.44279778, -0.3116187]);
    }

    #[test]
    fn seeded_at_continues_the_same_stream() {
        // Draw 10 values straight through, then reproduce the tail from a
        // fast-forwarded stream: positions 4.. must match bit for bit.
        let full = uniform(&mut seeded(9), 1, 10, 1.0);
        let tail = uniform(&mut seeded_at(9, 4), 1, 6, 1.0);
        assert_eq!(&full.data[4..], &tail.data[..]);
        // Position 0 is the plain seeded stream.
        assert_eq!(uniform(&mut seeded_at(9, 0), 1, 3, 1.0), uniform(&mut seeded(9), 1, 3, 1.0));
    }

    #[test]
    fn uniform_respects_limit() {
        let t = uniform(&mut seeded(1), 10, 10, 0.5);
        assert!(t.data.iter().all(|v| (-0.5..0.5).contains(v)));
    }

    #[test]
    fn he_limit_shrinks_with_fan_in() {
        let wide = he_init(&mut seeded(3), 1024, 4);
        let narrow = he_init(&mut seeded(3), 4, 4);
        let max_wide = wide.data.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let max_narrow = narrow.data.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(max_wide < max_narrow);
    }
}

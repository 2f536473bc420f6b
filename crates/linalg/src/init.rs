//! Seeded weight initializers.
//!
//! Everything stochastic in `kgrec` takes an explicit [`rand::Rng`]; these
//! helpers implement the initialization schemes the surveyed papers use:
//! uniform ranges (TransE's `U[-6/√d, 6/√d]`), Xavier/Glorot for dense
//! layers, and Gaussians for matrix-factorization latent factors.

use rand::Rng;

/// Fills `buf` with samples from `U[lo, hi)`.
pub fn uniform<R: Rng + ?Sized>(rng: &mut R, buf: &mut [f32], lo: f32, hi: f32) {
    for v in buf.iter_mut() {
        *v = rng.gen_range(lo..hi);
    }
}

/// Fills `buf` with the TransE initialization `U[-6/√d, 6/√d)`.
pub(crate) fn transe_uniform<R: Rng + ?Sized>(rng: &mut R, buf: &mut [f32], dim: usize) {
    let b = 6.0 / (dim as f32).sqrt();
    uniform(rng, buf, -b, b);
}

/// Fills `buf` with Xavier/Glorot uniform samples for a layer with the
/// given fan-in and fan-out: `U[-√(6/(in+out)), √(6/(in+out)))`.
pub fn xavier_uniform<R: Rng + ?Sized>(
    rng: &mut R,
    buf: &mut [f32],
    fan_in: usize,
    fan_out: usize,
) {
    let b = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(rng, buf, -b, b);
}

/// Fills `buf` with `N(mean, std²)` samples via the Box–Muller transform.
///
/// Implemented locally to keep the dependency set to the approved list
/// (`rand` core only, no `rand_distr`).
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R, buf: &mut [f32], mean: f32, std: f32) {
    let mut i = 0;
    while i < buf.len() {
        // Box–Muller: two uniforms -> two independent standard normals.
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        buf[i] = mean + std * r * theta.cos();
        i += 1;
        if i < buf.len() {
            buf[i] = mean + std * r * theta.sin();
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut buf = vec![0.0f32; 1000];
        uniform(&mut rng, &mut buf, -0.5, 0.5);
        assert!(buf.iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn transe_uniform_bound_scales_with_dim() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut buf = vec![0.0f32; 1000];
        transe_uniform(&mut rng, &mut buf, 36);
        assert!(buf.iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn gaussian_moments_roughly_correct() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut buf = vec![0.0f32; 20_000];
        gaussian(&mut rng, &mut buf, 2.0, 3.0);
        let mean = buf.iter().sum::<f32>() / buf.len() as f32;
        let var = buf.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / (buf.len() - 1) as f32;
        assert!((mean - 2.0).abs() < 0.1, "mean={mean}");
        assert!((var - 9.0).abs() < 0.5, "var={var}");
    }

    #[test]
    fn gaussian_odd_length_filled() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = vec![0.0f32; 7];
        gaussian(&mut rng, &mut buf, 10.0, 0.001);
        assert!(buf.iter().all(|&v| (v - 10.0).abs() < 1.0));
    }

    #[test]
    fn seeded_init_reproducible() {
        let mut a = vec![0.0f32; 16];
        let mut b = vec![0.0f32; 16];
        xavier_uniform(&mut StdRng::seed_from_u64(9), &mut a, 8, 8);
        xavier_uniform(&mut StdRng::seed_from_u64(9), &mut b, 8, 8);
        assert_eq!(a, b);
    }
}

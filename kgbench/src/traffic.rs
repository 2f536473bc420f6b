//! Seeded request and ingest streams.
//!
//! Every stream is a pure function of the run seed and a stream tag, so
//! the same seed replays the same users in the same order on every run
//! and on both the plain and the traced path.

use kgrec_data::{Interaction, ItemId, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which users a request stream draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 90 % from an active set (user `⌊hot·x²⌋`), 10 % uniform over all.
    Hot {
        /// Size of the active set.
        hot: u32,
    },
    /// Every user equally likely.
    Uniform,
}

/// Share of hot-mix requests drawn from the active set.
pub const HOT_SHARE: f64 = 0.9;

/// Stream tags: distinct streams from one run seed.
pub const WARM_STREAM: u64 = 0x5741_524d;
/// Tag of the measured request stream.
pub const MEASURE_STREAM: u64 = 0x4d45_4153;
/// Tag of the ingest rows.
pub const INGEST_STREAM: u64 = 0x494e_4753;
/// Tag of the post-run check streams.
pub const CHECK_STREAM: u64 = 0x4348_4543;

/// An endless stream of users.
#[derive(Debug)]
pub struct Traffic {
    rng: StdRng,
    mix: Mix,
    users: u32,
}

impl Traffic {
    /// Stream `tag` of run `seed` over `users` users.
    pub fn new(seed: u64, tag: u64, mix: Mix, users: usize) -> Self {
        assert!(users > 0, "a stream needs a user");
        Self { rng: StdRng::seed_from_u64(seed ^ tag), mix, users: users as u32 }
    }

    /// The next user.
    pub fn next_user(&mut self) -> UserId {
        UserId(match self.mix {
            Mix::Hot { hot } if self.rng.gen_bool(HOT_SHARE) => {
                let x: f64 = self.rng.gen();
                (f64::from(hot.min(self.users)) * x * x) as u32
            }
            _ => self.rng.gen_range(0..self.users),
        })
    }
}

/// `count` batches of `rows` implicit interactions each: users follow
/// `mix`, items are uniform. A row may repeat an existing interaction;
/// ingest keeps the existing row, so every batch is valid input.
pub fn ingest_batches(
    seed: u64,
    mix: Mix,
    users: usize,
    items: usize,
    rows: usize,
    count: usize,
) -> Vec<Vec<Interaction>> {
    let mut traffic = Traffic::new(seed, INGEST_STREAM, mix, users);
    let mut rng = StdRng::seed_from_u64(seed ^ INGEST_STREAM ^ 0x17e5);
    (0..count)
        .map(|_| {
            (0..rows)
                .map(|_| {
                    Interaction::implicit(
                        traffic.next_user(),
                        ItemId(rng.gen_range(0..items as u32)),
                    )
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(t: &mut Traffic, n: usize) -> Vec<u32> {
        (0..n).map(|_| t.next_user().0).collect()
    }

    #[test]
    fn streams_are_deterministic_per_seed_and_tag() {
        let mix = Mix::Hot { hot: 1000 };
        let a = draw(&mut Traffic::new(7, MEASURE_STREAM, mix, 50_000), 500);
        assert_eq!(a, draw(&mut Traffic::new(7, MEASURE_STREAM, mix, 50_000), 500));
        assert_ne!(a, draw(&mut Traffic::new(8, MEASURE_STREAM, mix, 50_000), 500));
        assert_ne!(a, draw(&mut Traffic::new(7, WARM_STREAM, mix, 50_000), 500));
        assert!(a.iter().all(|&u| u < 50_000));
        assert_eq!(
            ingest_batches(3, mix, 1000, 50, 20, 3),
            ingest_batches(3, mix, 1000, 50, 20, 3)
        );
    }

    #[test]
    fn hot_mix_proportions_hold() {
        let (users, hot, n) = (100_000usize, 5_000u32, 200_000usize);
        let mut t = Traffic::new(11, MEASURE_STREAM, Mix::Hot { hot }, users);
        let drawn = draw(&mut t, n);
        let in_hot = drawn.iter().filter(|&&u| u < hot).count() as f64 / n as f64;
        // 90 % hot draws plus the uniform 10 % that lands in the hot set.
        let expected = HOT_SHARE + (1.0 - HOT_SHARE) * f64::from(hot) / users as f64;
        assert!((in_hot - expected).abs() < 0.005, "hot share {in_hot}, expected {expected}");
        // x² skew: a quarter of the hot set takes half of its draws.
        let quarter = drawn.iter().filter(|&&u| u < hot / 4).count() as f64 / n as f64;
        assert!((quarter - HOT_SHARE * 0.5).abs() < 0.01, "quarter share {quarter}");
        let mut uniform = Traffic::new(11, MEASURE_STREAM, Mix::Uniform, users);
        let low = draw(&mut uniform, n).iter().filter(|&&u| u < hot).count() as f64 / n as f64;
        assert!((low - f64::from(hot) / users as f64).abs() < 0.005, "uniform low share {low}");
    }
}

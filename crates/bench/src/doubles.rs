//! Deliberately broken models for end-to-end fault drills.
//!
//! `eval_suite --inject-fault` appends these to the model roster so a
//! run (and the CI smoke job) proves graceful degradation end-to-end:
//! the broken models must surface as `failed` / `retried` rows in the
//! outcome summary while every healthy model still produces metrics.
//!
//! Each double drills one protection layer of
//! [`kgrec_core::supervisor::supervise_fit`]:
//!
//! | double | injected failure | supervisor layer exercised |
//! |---|---|---|
//! | [`PanicBot`] | `panic!` mid-`fit` | panic isolation (`catch_unwind`) |
//! | [`NanBot`] | NaN scores after an "ok" fit | post-fit score probe |
//! | [`RecoverBot`] | divergence on early attempts | retry with backoff |

use kgrec_core::error::CoreError;
use kgrec_core::taxonomy::{Taxonomy, UsageType};
use kgrec_core::{Recommender, TrainContext};
use kgrec_data::{ItemId, UserId};

fn drill_taxonomy(method: &'static str) -> Taxonomy {
    Taxonomy {
        method,
        venue: "fault-drill",
        year: 2026,
        usage: UsageType::EmbeddingBased,
        techniques: &[],
        reference: 0,
    }
}

/// Panics partway through every `fit`: the crash-isolation drill.
///
/// Declares no retry knobs, so the supervisor runs it exactly once and
/// reports `failed(fit panicked: …)` instead of aborting the suite.
#[derive(Debug, Default)]
pub struct PanicBot;

impl Recommender for PanicBot {
    fn name(&self) -> &'static str {
        "PanicBot"
    }
    fn taxonomy(&self) -> Taxonomy {
        drill_taxonomy("PanicBot")
    }
    fn fit(&mut self, _ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        panic!("injected drill panic (PanicBot)");
    }
    fn score(&self, _user: UserId, _item: ItemId) -> f32 {
        f32::NEG_INFINITY
    }
    fn num_items(&self) -> usize {
        0
    }
}

/// Fits "successfully" but scores everything NaN: the score-probe drill.
///
/// Declares no retry knobs, so the probe's `NonFinite` verdict is
/// terminal and the row reads `failed(non-finite values in …)`.
#[derive(Debug, Default)]
pub struct NanBot {
    num_items: usize,
}

impl Recommender for NanBot {
    fn name(&self) -> &'static str {
        "NanBot"
    }
    fn taxonomy(&self) -> Taxonomy {
        drill_taxonomy("NanBot")
    }
    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        self.num_items = ctx.num_items();
        Ok(())
    }
    fn score(&self, _user: UserId, _item: ItemId) -> f32 {
        f32::NAN
    }
    fn num_items(&self) -> usize {
        self.num_items
    }
}

/// Reports divergence on its first `fit` attempts, then converges once
/// `prepare_retry` has "backed off": the retry drill.
///
/// After recovery it scores like a flat popularity-free baseline
/// (constant 0), which is finite and therefore passes the probe — the
/// row reads `retried(succeeded on attempt N)`.
#[derive(Debug)]
pub struct RecoverBot {
    failures_left: u32,
    num_items: usize,
}

impl RecoverBot {
    /// A bot that diverges on its first `failures` attempts.
    pub fn new(failures: u32) -> Self {
        Self { failures_left: failures, num_items: 0 }
    }
}

impl Recommender for RecoverBot {
    fn name(&self) -> &'static str {
        "RecoverBot"
    }
    fn taxonomy(&self) -> Taxonomy {
        drill_taxonomy("RecoverBot")
    }
    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        if self.failures_left > 0 {
            self.failures_left -= 1;
            return Err(CoreError::Diverged {
                epoch: 1,
                detail: "injected drill divergence (RecoverBot)".into(),
            });
        }
        self.num_items = ctx.num_items();
        Ok(())
    }
    fn prepare_retry(&mut self, _attempt: u32) -> bool {
        // The "backoff" is the decrement in `fit`; reporting knobs here is
        // what lets the supervisor re-run us at all.
        true
    }
    fn score(&self, _user: UserId, _item: ItemId) -> f32 {
        0.0
    }
    fn num_items(&self) -> usize {
        self.num_items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgrec_core::{supervise_fit, FitStatus, SupervisorConfig};
    use kgrec_data::synth::{generate, ScenarioConfig};

    fn drill(model: &mut dyn Recommender) -> kgrec_core::FitOutcome {
        let synth = generate(&ScenarioConfig::tiny(), 5);
        let train = synth.dataset.interactions.clone();
        supervise_fit(model, &synth.dataset, &train, &SupervisorConfig::default(), None)
    }

    #[test]
    fn panic_bot_fails_in_one_attempt() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let o = drill(&mut PanicBot);
        std::panic::set_hook(hook);
        assert_eq!(o.status, FitStatus::Failed);
        assert_eq!(o.attempts, 1);
        assert!(o.reason.unwrap().contains("PanicBot"));
    }

    #[test]
    fn nan_bot_is_caught_by_the_probe() {
        let o = drill(&mut NanBot::default());
        assert_eq!(o.status, FitStatus::Failed);
        assert!(o.reason.unwrap().contains("non-finite"));
    }

    #[test]
    fn recover_bot_succeeds_after_retries() {
        let mut m = RecoverBot::new(1);
        let o = drill(&mut m);
        assert_eq!(o.status, FitStatus::Retried);
        assert_eq!(o.attempts, 2);
    }

    #[test]
    fn recover_bot_beyond_retry_budget_fails() {
        let mut m = RecoverBot::new(10);
        let o = drill(&mut m);
        assert_eq!(o.status, FitStatus::Failed);
        assert_eq!(o.attempts, 3, "default budget is 1 + 2 retries");
    }
}

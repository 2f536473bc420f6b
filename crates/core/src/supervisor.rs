//! The training supervisor: fault-isolated `fit` with retry, backoff and
//! graceful degradation.
//!
//! The evaluation suite trains ~18 models on every scenario; one panicking
//! `fit` must not abort the whole run, and one diverged learning rate must
//! not silently train to garbage. [`supervise_fit`] wraps any
//! [`Recommender::fit`] with four layers of protection:
//!
//! 1. **panic isolation** — the fit runs under `catch_unwind`; an escaped
//!    panic becomes a typed [`CoreError::Panicked`] instead of a process
//!    abort;
//! 2. **output validation** — after a successful fit, a deterministic grid
//!    of scores is probed; NaN or +∞ anywhere becomes
//!    [`CoreError::NonFinite`] (by workspace convention `-∞` is legal: it
//!    means "never recommend");
//! 3. **bounded retry with backoff** — retryable failures (panic,
//!    divergence, non-finite output) trigger up to
//!    [`SupervisorConfig::max_retries`] retries; before each the model's
//!    [`Recommender::prepare_retry`] hook halves its learning rate and
//!    perturbs its seed. Models without retry knobs are not re-run — an
//!    unchanged deterministic `fit` would replay the same failure;
//! 4. **wall-clock budget** — an optional time budget; exceeding it after
//!    a success degrades the outcome, exceeding it with no success fails
//!    it.
//!
//! Given a checkpoint store, a verified restore replaces the fit (a warm
//! start) and a usable fit is saved back.
//!
//! The outcome is the state machine of `DESIGN.md` §"Failure handling":
//! `ok → retried(backoff) → degraded → failed`, reported as a
//! [`FitOutcome`] the harness renders as a per-model row instead of dying.

use crate::error::CoreError;
use crate::recommender::{Recommender, TrainContext};
use kgrec_data::{InteractionMatrix, ItemId, KgDataset, UserId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Supervisor policy knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Maximum retries after the first attempt (total fits ≤ 1 + retries).
    pub max_retries: u32,
    /// Optional wall-clock budget across all attempts.
    pub wall_clock_budget: Option<Duration>,
    /// Users probed in the post-fit score validation grid.
    pub probe_users: usize,
    /// Items probed per user in the post-fit score validation grid.
    pub probe_items: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self { max_retries: 2, wall_clock_budget: None, probe_users: 8, probe_items: 16 }
    }
}

impl SupervisorConfig {
    /// Sets the retry cap.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }
}

/// Terminal state of a supervised fit (the DESIGN.md state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitStatus {
    /// First attempt succeeded within budget.
    Ok,
    /// Succeeded after at least one backoff retry.
    Retried,
    /// The model is usable but with a caveat (budget overrun).
    Degraded,
    /// No usable model: every attempt failed, or the failure was
    /// permanent (invalid dataset/config).
    Failed,
}

impl FitStatus {
    /// Short lower-case label for outcome tables.
    pub fn label(self) -> &'static str {
        match self {
            FitStatus::Ok => "ok",
            FitStatus::Retried => "retried",
            FitStatus::Degraded => "degraded",
            FitStatus::Failed => "failed",
        }
    }
}

/// What a supervised fit produced.
#[derive(Debug, Clone)]
pub struct FitOutcome {
    /// Terminal status.
    pub status: FitStatus,
    /// Number of fit attempts actually executed (≥ 1).
    pub attempts: u32,
    /// Total wall-clock time across attempts.
    pub elapsed: Duration,
    /// The failure or degradation reason, when not [`FitStatus::Ok`].
    pub reason: Option<String>,
    /// How far past the wall-clock budget the fit went — or would have
    /// gone: when a retry is skipped because the remaining budget is
    /// smaller than the previous attempt's duration, this is the
    /// *predicted* overshoot of that never-launched attempt. `None` when
    /// no budget was set or it was respected.
    pub overshoot: Option<Duration>,
}

impl FitOutcome {
    /// Whether the model behind this outcome may be scored (everything
    /// but [`FitStatus::Failed`]).
    pub fn is_usable(&self) -> bool {
        self.status != FitStatus::Failed
    }
}

/// Stringifies a panic payload (the `&str` / `String` cases cover every
/// `panic!`/`assert!` in the workspace). Public so harnesses that add
/// their own `catch_unwind` layers (e.g. around evaluation) report panics
/// the same way the supervisor does.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Probes a deterministic `users × items` grid of scores under panic
/// isolation; NaN or +∞ is a [`CoreError::NonFinite`], a panic while
/// scoring is a [`CoreError::Panicked`]. `-∞` passes: the workspace
/// convention for "never recommend this item".
///
/// Public because the supervisor's validation semantics apply beyond
/// `fit`: the serving layer runs the same grid through its own scorer
/// before hot-swapping a reloaded model, so a checkpoint that loads
/// cleanly but scores garbage is rejected with the same vocabulary.
///
/// # Errors
/// [`CoreError::NonFinite`] on the first NaN/+∞ score,
/// [`CoreError::Panicked`] if `score` panics.
pub fn probe_grid(
    users: usize,
    items: usize,
    mut score: impl FnMut(usize, usize) -> f32,
) -> Result<(), CoreError> {
    let probed = catch_unwind(AssertUnwindSafe(|| {
        for u in 0..users {
            for i in 0..items {
                let s = score(u, i);
                if s.is_nan() || s == f32::INFINITY {
                    return Err(CoreError::NonFinite {
                        context: format!("score(user {u}, item {i}) = {s}"),
                    });
                }
            }
        }
        Ok(())
    }));
    match probed {
        Ok(r) => r,
        Err(payload) => Err(CoreError::Panicked {
            message: format!("while scoring: {}", panic_message(payload.as_ref())),
        }),
    }
}

/// [`probe_grid`] specialized to a recommender over a training matrix —
/// the post-`fit` health check.
fn probe_scores(
    model: &dyn Recommender,
    train: &InteractionMatrix,
    config: &SupervisorConfig,
) -> Result<(), CoreError> {
    let users = train.num_users().min(config.probe_users);
    let items = train.num_items().min(model.num_items()).min(config.probe_items);
    probe_grid(users, items, |u, i| model.score(UserId(u as u32), ItemId(i as u32)))
}

/// The bounded retry loop of [`supervise_fit`]; `start` is the
/// supervisor's clock, so the budget also covers a failed warm start.
fn fit_with_retries(
    model: &mut dyn Recommender,
    dataset: &KgDataset,
    train: &InteractionMatrix,
    config: &SupervisorConfig,
    start: Instant,
) -> FitOutcome {
    let mut attempts = 0u32;
    let mut last_err: CoreError;
    let mut overshoot: Option<Duration> = None;
    loop {
        attempts += 1;
        let attempt_start = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let ctx = TrainContext::new(dataset, train);
            model.fit(&ctx)
        }));
        let result = match caught {
            Ok(r) => r,
            Err(payload) => Err(CoreError::Panicked { message: panic_message(payload.as_ref()) }),
        };
        // A fit that "succeeded" but emits non-finite scores failed too.
        let failure = match result {
            Ok(()) => probe_scores(model, train, config).err(),
            Err(e) => Some(e),
        };
        let attempt_duration = attempt_start.elapsed();
        let elapsed = start.elapsed();
        let over_budget = config.wall_clock_budget.is_some_and(|b| elapsed > b);
        match failure {
            None => {
                let (status, reason) = if over_budget {
                    let b = config.wall_clock_budget.unwrap_or_default();
                    overshoot = Some(elapsed.saturating_sub(b));
                    (
                        FitStatus::Degraded,
                        Some(
                            CoreError::BudgetExceeded {
                                elapsed_secs: elapsed.as_secs_f64(),
                                budget_secs: b.as_secs_f64(),
                            }
                            .to_string(),
                        ),
                    )
                } else if attempts == 1 {
                    (FitStatus::Ok, None)
                } else {
                    (FitStatus::Retried, Some(format!("succeeded on attempt {attempts}")))
                };
                return FitOutcome { status, attempts, elapsed, reason, overshoot };
            }
            Some(e) => {
                let retryable = e.is_retryable();
                last_err = e;
                if !retryable || attempts > config.max_retries {
                    break;
                }
                if over_budget {
                    let b = config.wall_clock_budget.unwrap_or_default();
                    overshoot = Some(elapsed.saturating_sub(b));
                    last_err = CoreError::BudgetExceeded {
                        elapsed_secs: elapsed.as_secs_f64(),
                        budget_secs: b.as_secs_f64(),
                    };
                    break;
                }
                // Budget precision: a retry is pointless when the time it
                // would plausibly take (the previous attempt's duration —
                // retries run the same fit with a halved learning rate)
                // no longer fits in the remaining budget. Skip launching
                // it and report the predicted overshoot instead of
                // discovering the blown budget after the fact.
                if let Some(b) = config.wall_clock_budget {
                    let remaining = b.saturating_sub(elapsed);
                    if remaining < attempt_duration {
                        let predicted = (elapsed + attempt_duration).saturating_sub(b);
                        overshoot = Some(predicted);
                        last_err = CoreError::BudgetExceeded {
                            elapsed_secs: (elapsed + attempt_duration).as_secs_f64(),
                            budget_secs: b.as_secs_f64(),
                        };
                        break;
                    }
                }
                // Backoff hook: models without retry knobs replay the same
                // deterministic failure, so don't bother re-running them.
                if !model.prepare_retry(attempts) {
                    break;
                }
            }
        }
    }
    FitOutcome {
        status: FitStatus::Failed,
        attempts,
        elapsed: start.elapsed(),
        reason: Some(last_err.to_string()),
        overshoot,
    }
}

/// Trains `model` under supervision; see the module docs for the policy.
///
/// The [`TrainContext`] is constructed *inside* the panic isolation, so
/// corrupted bundles that trip its debug assertions surface as
/// [`CoreError::Panicked`] rather than killing the caller.
///
/// Retries assume `fit` rebuilds model state from scratch (every model in
/// the workspace does): after a mid-fit panic the half-written state is
/// discarded by the next attempt.
///
/// When `store` is `Some` and the model exposes a persistence handle
/// ([`Recommender::persistable_mut`]), the supervisor first attempts a
/// **warm start**: restore the newest usable checkpoint generation and
/// validate it with the same deterministic score probe a fresh fit gets.
/// A verified restore skips training entirely — the outcome is
/// [`FitStatus::Ok`] with `attempts == 0` and a reason naming the
/// restored generation. Any restore failure (no usable generation,
/// corrupt snapshot, mismatched model/config, non-finite scores) falls
/// back to a normal supervised fit; storage faults degrade to retraining,
/// never to a panic or a garbage model.
///
/// After a usable fit, the model is saved back to the store best-effort:
/// a save failure is appended to the outcome's reason but does not change
/// its status — persistence is a convenience layered on training, not a
/// gate on it.
pub fn supervise_fit(
    model: &mut dyn Recommender,
    dataset: &KgDataset,
    train: &InteractionMatrix,
    config: &SupervisorConfig,
    store: Option<&kgrec_store::CheckpointStore>,
) -> FitOutcome {
    let start = Instant::now();
    if let Some(store) = store {
        let restored = match model.persistable_mut() {
            Some(p) => store.load_into(p).ok(),
            None => None,
        };
        if let Some(recovery) = restored {
            if probe_scores(model, train, config).is_ok() {
                let mut reason =
                    format!("warm start: restored checkpoint generation {}", recovery.generation);
                if !recovery.skipped.is_empty() {
                    reason.push_str(&format!(
                        " (skipped {} unusable generation(s))",
                        recovery.skipped.len()
                    ));
                }
                return FitOutcome {
                    status: FitStatus::Ok,
                    attempts: 0,
                    elapsed: start.elapsed(),
                    reason: Some(reason),
                    overshoot: None,
                };
            }
            // Restored state probes NaN/+∞: fall through to retraining —
            // `fit` rebuilds from scratch, discarding the bad restore.
        }
    }

    let mut outcome = fit_with_retries(model, dataset, train, config, start);
    if outcome.is_usable() {
        if let (Some(store), Some(p)) = (store, model.persistable()) {
            let note = format!("supervised fit: {}", outcome.status.label());
            if let Err(e) = store.save(p, &note) {
                let warning = format!("checkpoint save failed: {e}");
                outcome.reason = Some(match outcome.reason.take() {
                    Some(r) => format!("{r}; {warning}"),
                    None => warning,
                });
            }
            outcome.elapsed = start.elapsed();
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::{Taxonomy, UsageType};
    use kgrec_data::Interaction;
    use kgrec_graph::KgBuilder;

    fn toy_dataset() -> KgDataset {
        let mut b = KgBuilder::new();
        let ty = b.entity_type("item");
        let ents: Vec<_> = (0..4).map(|i| b.entity(&format!("i{i}"), ty)).collect();
        let attr_ty = b.entity_type("attr");
        let a = b.entity("a0", attr_ty);
        let r = b.relation("attr");
        for &e in &ents {
            b.triple(e, r, a);
        }
        let graph = b.build(true);
        let inter = InteractionMatrix::from_interactions(
            3,
            4,
            &[
                Interaction::implicit(UserId(0), ItemId(0)),
                Interaction::implicit(UserId(1), ItemId(1)),
                Interaction::implicit(UserId(2), ItemId(2)),
            ],
        );
        KgDataset::new(inter, graph, ents)
    }

    /// Configurable failure double: panics / errors / NaNs for the first
    /// `failures` fits, then succeeds. `retryable` controls whether
    /// `prepare_retry` reports knobs.
    struct Flaky {
        failures: u32,
        fits: u32,
        mode: Mode,
        retryable: bool,
    }

    enum Mode {
        Panic,
        NanScores,
        ConfigError,
    }

    impl Flaky {
        fn new(failures: u32, mode: Mode, retryable: bool) -> Self {
            Self { failures, fits: 0, mode, retryable }
        }
    }

    impl Recommender for Flaky {
        fn name(&self) -> &'static str {
            "Flaky"
        }
        fn taxonomy(&self) -> Taxonomy {
            Taxonomy {
                method: "Flaky",
                venue: "test",
                year: 2026,
                usage: UsageType::EmbeddingBased,
                techniques: &[],
                reference: 0,
            }
        }
        fn fit(&mut self, _ctx: &TrainContext<'_>) -> Result<(), CoreError> {
            self.fits += 1;
            if self.fits <= self.failures {
                match self.mode {
                    Mode::Panic => panic!("injected panic on fit {}", self.fits),
                    Mode::NanScores => {} // fit "succeeds", scores are NaN
                    Mode::ConfigError => {
                        return Err(CoreError::InvalidConfig { message: "bad lr".into() })
                    }
                }
            }
            Ok(())
        }
        fn prepare_retry(&mut self, _attempt: u32) -> bool {
            self.retryable
        }
        fn score(&self, _user: UserId, _item: ItemId) -> f32 {
            if self.fits <= self.failures {
                f32::NAN
            } else {
                1.0
            }
        }
        fn num_items(&self) -> usize {
            4
        }
    }

    fn run(model: &mut dyn Recommender, config: &SupervisorConfig) -> FitOutcome {
        let ds = toy_dataset();
        let train = ds.interactions.clone();
        supervise_fit(model, &ds, &train, config, None)
    }

    #[test]
    fn clean_fit_is_ok() {
        let mut m = Flaky::new(0, Mode::Panic, true);
        let o = run(&mut m, &SupervisorConfig::default());
        assert_eq!(o.status, FitStatus::Ok);
        assert_eq!(o.attempts, 1);
        assert!(o.reason.is_none());
        assert!(o.is_usable());
    }

    #[test]
    fn panic_then_success_is_retried() {
        let mut m = Flaky::new(1, Mode::Panic, true);
        let o = run(&mut m, &SupervisorConfig::default());
        assert_eq!(o.status, FitStatus::Retried);
        assert_eq!(o.attempts, 2);
        assert!(o.reason.unwrap().contains("attempt 2"));
    }

    #[test]
    fn persistent_panic_fails_after_retry_budget() {
        let mut m = Flaky::new(u32::MAX, Mode::Panic, true);
        let o = run(&mut m, &SupervisorConfig::default().with_max_retries(2));
        assert_eq!(o.status, FitStatus::Failed);
        assert_eq!(o.attempts, 3); // 1 + 2 retries
        assert!(!o.is_usable());
        assert!(o.reason.unwrap().contains("injected panic"));
    }

    #[test]
    fn no_retry_knobs_means_single_attempt() {
        let mut m = Flaky::new(u32::MAX, Mode::Panic, false);
        let o = run(&mut m, &SupervisorConfig::default());
        assert_eq!(o.status, FitStatus::Failed);
        assert_eq!(o.attempts, 1);
    }

    #[test]
    fn nan_scores_are_caught_by_the_probe() {
        let mut m = Flaky::new(1, Mode::NanScores, true);
        let o = run(&mut m, &SupervisorConfig::default());
        // First fit "succeeds" but probes NaN → retried → clean.
        assert_eq!(o.status, FitStatus::Retried);
        assert_eq!(o.attempts, 2);
    }

    #[test]
    fn config_errors_are_permanent() {
        let mut m = Flaky::new(u32::MAX, Mode::ConfigError, true);
        let o = run(&mut m, &SupervisorConfig::default());
        assert_eq!(o.status, FitStatus::Failed);
        assert_eq!(o.attempts, 1, "InvalidConfig must not be retried");
        assert!(o.reason.unwrap().contains("bad lr"));
    }

    #[test]
    fn budget_overrun_after_success_degrades() {
        struct Slow;
        impl Recommender for Slow {
            fn name(&self) -> &'static str {
                "Slow"
            }
            fn taxonomy(&self) -> Taxonomy {
                Taxonomy {
                    method: "Slow",
                    venue: "test",
                    year: 2026,
                    usage: UsageType::EmbeddingBased,
                    techniques: &[],
                    reference: 0,
                }
            }
            fn fit(&mut self, _ctx: &TrainContext<'_>) -> Result<(), CoreError> {
                std::thread::sleep(Duration::from_millis(20));
                Ok(())
            }
            fn score(&self, _u: UserId, _i: ItemId) -> f32 {
                0.0
            }
            fn num_items(&self) -> usize {
                4
            }
        }
        let mut m = Slow;
        let cfg = SupervisorConfig {
            wall_clock_budget: Some(Duration::from_millis(1)),
            ..SupervisorConfig::default()
        };
        let o = run(&mut m, &cfg);
        assert_eq!(o.status, FitStatus::Degraded);
        assert!(o.is_usable());
        assert!(o.reason.unwrap().contains("budget exceeded"));
    }

    #[test]
    fn budget_exhaustion_without_success_fails() {
        struct SlowPanic;
        impl Recommender for SlowPanic {
            fn name(&self) -> &'static str {
                "SlowPanic"
            }
            fn taxonomy(&self) -> Taxonomy {
                Taxonomy {
                    method: "SlowPanic",
                    venue: "test",
                    year: 2026,
                    usage: UsageType::EmbeddingBased,
                    techniques: &[],
                    reference: 0,
                }
            }
            fn fit(&mut self, _ctx: &TrainContext<'_>) -> Result<(), CoreError> {
                std::thread::sleep(Duration::from_millis(20));
                panic!("slow and broken");
            }
            fn prepare_retry(&mut self, _attempt: u32) -> bool {
                true
            }
            fn score(&self, _u: UserId, _i: ItemId) -> f32 {
                0.0
            }
            fn num_items(&self) -> usize {
                4
            }
        }
        let mut m = SlowPanic;
        let cfg = SupervisorConfig {
            wall_clock_budget: Some(Duration::from_millis(1)),
            ..SupervisorConfig::default()
        }
        .with_max_retries(10);
        let o = run(&mut m, &cfg);
        assert_eq!(o.status, FitStatus::Failed);
        assert_eq!(o.attempts, 1, "budget must cut the retry loop short");
        assert!(o.reason.unwrap().contains("budget exceeded"));
    }

    #[test]
    fn neg_infinity_scores_are_legal() {
        struct NeverRecommend;
        impl Recommender for NeverRecommend {
            fn name(&self) -> &'static str {
                "NeverRecommend"
            }
            fn taxonomy(&self) -> Taxonomy {
                Taxonomy {
                    method: "NeverRecommend",
                    venue: "test",
                    year: 2026,
                    usage: UsageType::EmbeddingBased,
                    techniques: &[],
                    reference: 0,
                }
            }
            fn fit(&mut self, _ctx: &TrainContext<'_>) -> Result<(), CoreError> {
                Ok(())
            }
            fn score(&self, _u: UserId, _i: ItemId) -> f32 {
                f32::NEG_INFINITY
            }
            fn num_items(&self) -> usize {
                4
            }
        }
        let mut m = NeverRecommend;
        let o = run(&mut m, &SupervisorConfig::default());
        assert_eq!(o.status, FitStatus::Ok);
    }

    #[test]
    fn status_labels_match_state_machine() {
        assert_eq!(FitStatus::Ok.label(), "ok");
        assert_eq!(FitStatus::Retried.label(), "retried");
        assert_eq!(FitStatus::Degraded.label(), "degraded");
        assert_eq!(FitStatus::Failed.label(), "failed");
    }

    #[test]
    fn futile_retry_is_skipped_with_predicted_overshoot() {
        // Each attempt takes ~20 ms; the 30 ms budget admits the first
        // attempt but cannot fit a second. The supervisor must not launch
        // the doomed retry: one attempt, a predicted overshoot, and a
        // budget-exceeded reason. (Under extreme timing noise the first
        // attempt itself blows the budget, which lands in the plain
        // over-budget branch — same assertions hold.)
        struct SlowPanic;
        impl Recommender for SlowPanic {
            fn name(&self) -> &'static str {
                "SlowPanic"
            }
            fn taxonomy(&self) -> Taxonomy {
                Taxonomy {
                    method: "SlowPanic",
                    venue: "test",
                    year: 2026,
                    usage: UsageType::EmbeddingBased,
                    techniques: &[],
                    reference: 0,
                }
            }
            fn fit(&mut self, _ctx: &TrainContext<'_>) -> Result<(), CoreError> {
                std::thread::sleep(Duration::from_millis(20));
                panic!("slow and broken");
            }
            fn prepare_retry(&mut self, _attempt: u32) -> bool {
                true
            }
            fn score(&self, _u: UserId, _i: ItemId) -> f32 {
                0.0
            }
            fn num_items(&self) -> usize {
                4
            }
        }
        let mut m = SlowPanic;
        let cfg = SupervisorConfig {
            wall_clock_budget: Some(Duration::from_millis(30)),
            ..SupervisorConfig::default()
        }
        .with_max_retries(10);
        let o = run(&mut m, &cfg);
        assert_eq!(o.status, FitStatus::Failed);
        assert_eq!(o.attempts, 1, "the futile retry must not be launched");
        assert!(o.overshoot.is_some(), "skipping a retry must report the predicted overshoot");
        assert!(o.reason.unwrap().contains("budget exceeded"));
    }

    /// A checkpointable double: `fit` fills deterministic weights, scores
    /// read them, and the `Persistable` impl round-trips them bit-exactly.
    struct Ckpt {
        weights: Vec<f32>,
        fits: u32,
    }

    impl Ckpt {
        fn fresh() -> Self {
            Self { weights: vec![0.0; 4], fits: 0 }
        }
    }

    impl kgrec_store::Persistable for Ckpt {
        fn snapshot_id(&self) -> &'static str {
            "test.ckpt"
        }
        fn write_state(
            &self,
            writer: &mut kgrec_store::SnapshotWriter,
        ) -> Result<(), kgrec_store::StoreError> {
            let mut s = kgrec_store::Section::new();
            s.put_u64(self.weights.len() as u64);
            s.put_f32s(&self.weights);
            writer.add("weights", s)
        }
        fn read_state(
            &mut self,
            reader: &kgrec_store::SnapshotReader,
        ) -> Result<(), kgrec_store::StoreError> {
            let mut c = reader.section("weights")?;
            let n = c.take_u64()? as usize;
            if n != self.weights.len() {
                return Err(kgrec_store::StoreError::ShapeMismatch {
                    section: "weights".to_string(),
                    detail: format!("stored {n}, live {}", self.weights.len()),
                });
            }
            self.weights.copy_from_slice(&c.take_f32s(n)?);
            Ok(())
        }
    }

    impl Recommender for Ckpt {
        fn name(&self) -> &'static str {
            "Ckpt"
        }
        fn taxonomy(&self) -> Taxonomy {
            Taxonomy {
                method: "Ckpt",
                venue: "test",
                year: 2026,
                usage: UsageType::EmbeddingBased,
                techniques: &[],
                reference: 0,
            }
        }
        fn fit(&mut self, _ctx: &TrainContext<'_>) -> Result<(), CoreError> {
            self.fits += 1;
            for (i, w) in self.weights.iter_mut().enumerate() {
                *w = 10.0 + i as f32;
            }
            Ok(())
        }
        fn score(&self, _user: UserId, item: ItemId) -> f32 {
            self.weights[item.index() % self.weights.len()]
        }
        fn num_items(&self) -> usize {
            4
        }
        fn persistable(&self) -> Option<&dyn kgrec_store::Persistable> {
            Some(self)
        }
        fn persistable_mut(&mut self) -> Option<&mut dyn kgrec_store::Persistable> {
            Some(self)
        }
    }

    fn ckpt_scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kgrec_core_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn run_checkpointed(
        model: &mut dyn Recommender,
        store: Option<&kgrec_store::CheckpointStore>,
    ) -> FitOutcome {
        let ds = toy_dataset();
        let train = ds.interactions.clone();
        supervise_fit(model, &ds, &train, &SupervisorConfig::default(), store)
    }

    #[test]
    fn checkpointed_cold_start_trains_then_saves() {
        let dir = ckpt_scratch("cold");
        let store = kgrec_store::CheckpointStore::open(&dir).expect("open");
        let mut m = Ckpt::fresh();
        let o = run_checkpointed(&mut m, Some(&store));
        assert_eq!(o.status, FitStatus::Ok);
        assert_eq!(o.attempts, 1);
        assert_eq!(m.fits, 1);
        assert_eq!(store.generations(), vec![1]);
        assert_eq!(store.last_good(), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_warm_start_skips_training() {
        let dir = ckpt_scratch("warm");
        let store = kgrec_store::CheckpointStore::open(&dir).expect("open");
        let mut trained = Ckpt::fresh();
        run_checkpointed(&mut trained, Some(&store));

        let mut restored = Ckpt::fresh();
        let o = run_checkpointed(&mut restored, Some(&store));
        assert_eq!(o.status, FitStatus::Ok);
        assert_eq!(o.attempts, 0, "a warm start must not run fit");
        assert_eq!(restored.fits, 0);
        assert!(o.reason.expect("reason").contains("warm start"));
        for (a, b) in trained.weights.iter().zip(&restored.weights) {
            assert_eq!(a.to_bits(), b.to_bits(), "restore must be bit-exact");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_without_store_is_plain_supervision() {
        let mut m = Ckpt::fresh();
        let o = run_checkpointed(&mut m, None);
        assert_eq!(o.status, FitStatus::Ok);
        assert_eq!(o.attempts, 1);
        assert!(o.reason.is_none());
    }

    #[test]
    fn corrupt_checkpoint_degrades_to_retraining() {
        let dir = ckpt_scratch("corrupt");
        let store = kgrec_store::CheckpointStore::open(&dir).expect("open");
        let mut trained = Ckpt::fresh();
        run_checkpointed(&mut trained, Some(&store));
        // Flip a payload bit in the only generation: the warm start must
        // reject it and fall back to retraining, then save a fresh one.
        let path = store.snapshot_path(1);
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20;
        std::fs::write(&path, &bytes).expect("rewrite");

        let mut m = Ckpt::fresh();
        let o = run_checkpointed(&mut m, Some(&store));
        assert_eq!(o.status, FitStatus::Ok);
        assert_eq!(o.attempts, 1, "corrupt store must fall back to training");
        assert_eq!(m.fits, 1);
        assert_eq!(store.generations(), vec![1, 2], "retrained model must be saved back");
        assert_eq!(store.last_good(), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

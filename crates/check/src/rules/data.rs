//! Dataset- and split-hygiene rules (`DS0xx`).

use crate::bundle::CheckBundle;
use crate::diagnostic::{Diagnostic, Severity, Subject};
use crate::rules::Rule;
use kgrec_data::{ItemId, UserId};

/// `DS001`: no empty rows in the interaction matrix.
///
/// A user with zero interactions can never be trained or evaluated
/// (warning); an item nobody interacted with is common in real catalogs
/// and merely reported (info).
pub(crate) struct EmptyRows;

impl Rule for EmptyRows {
    fn code(&self) -> &'static str {
        "DS001"
    }

    fn reads_store(&self) -> bool {
        true
    }

    fn summary(&self) -> &'static str {
        "every user and item row of the interaction matrix is non-empty"
    }

    fn check(&self, bundle: &CheckBundle<'_>) -> Vec<Diagnostic> {
        let m = &bundle.dataset.interactions;
        let mut out = Vec::new();
        for u in 0..m.num_users() {
            if m.user_degree(UserId(u as u32)) == 0 {
                out.push(Diagnostic::new(
                    self.code(),
                    Severity::Warning,
                    Subject::User(u as u32),
                    "no interactions; the user cannot be trained or evaluated".to_owned(),
                ));
            }
        }
        let empty_items =
            (0..m.num_items()).filter(|&i| m.item_degree(ItemId(i as u32)) == 0).count();
        if empty_items > 0 {
            out.push(Diagnostic::new(
                self.code(),
                Severity::Info,
                Subject::Dataset,
                format!(
                    "{empty_items} of {} items have no interactions (cold items)",
                    m.num_items()
                ),
            ));
        }
        out
    }
}

/// `DS002`: the test set leaks nothing into train.
///
/// A `(user, item)` pair present in both halves inflates every metric —
/// the model is literally shown the answer.
pub(crate) struct SplitLeakage;

impl Rule for SplitLeakage {
    fn code(&self) -> &'static str {
        "DS002"
    }

    fn reads_store(&self) -> bool {
        true
    }

    fn summary(&self) -> &'static str {
        "no (user, item) pair appears in both train and test"
    }

    fn check(&self, bundle: &CheckBundle<'_>) -> Vec<Diagnostic> {
        let Some(split) = bundle.split else {
            return Vec::new();
        };
        // Guard: dimension mismatches are DS003's finding; comparing rows
        // across mismatched universes would index out of bounds.
        if split.train.num_users() != split.test.num_users()
            || split.train.num_items() != split.test.num_items()
        {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (u, i, _) in split.test.iter() {
            if split.train.contains(u, i) {
                out.push(Diagnostic::new(
                    self.code(),
                    Severity::Error,
                    Subject::User(u.0),
                    format!("test interaction (user {}, item {}) also present in train", u.0, i.0),
                ));
            }
        }
        out
    }
}

/// `DS003`: all matrices and eval pairs agree on the id spaces.
///
/// Checks the split halves against the dataset's `(m, n)` and every eval
/// pair against the same bounds. Mismatches turn into silent truncation
/// or out-of-bounds panics deep inside training loops.
pub(crate) struct IdSpaceMismatch;

impl Rule for IdSpaceMismatch {
    fn code(&self) -> &'static str {
        "DS003"
    }

    fn summary(&self) -> &'static str {
        "split matrices and eval pairs share the dataset's user/item id spaces"
    }

    fn check(&self, bundle: &CheckBundle<'_>) -> Vec<Diagnostic> {
        let m = &bundle.dataset.interactions;
        let (nu, ni) = (m.num_users(), m.num_items());
        let mut out = Vec::new();
        if let Some(split) = bundle.split {
            for (label, half) in [("train", &split.train), ("test", &split.test)] {
                if half.num_users() != nu || half.num_items() != ni {
                    out.push(Diagnostic::new(
                        self.code(),
                        Severity::Error,
                        Subject::Split,
                        format!(
                            "{label} matrix is {}x{} but the dataset is {nu}x{ni}",
                            half.num_users(),
                            half.num_items()
                        ),
                    ));
                }
            }
        }
        if let Some(pairs) = bundle.eval_pairs {
            for (k, p) in pairs.iter().enumerate() {
                if p.user.index() >= nu || p.item.index() >= ni {
                    out.push(Diagnostic::new(
                        self.code(),
                        Severity::Error,
                        Subject::EvalSet,
                        format!(
                            "pair #{k} (user {}, item {}) outside the {nu}x{ni} id space",
                            { p.user }.0,
                            { p.item }.0
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// `DS004`: negative eval pairs are genuinely negative.
///
/// A pair labeled negative that the user actually interacted with (in
/// train or test) poisons CTR metrics in the pessimistic direction and
/// usually indicates a broken sampler.
pub(crate) struct NegativeCollisions;

impl Rule for NegativeCollisions {
    fn code(&self) -> &'static str {
        "DS004"
    }

    fn reads_store(&self) -> bool {
        true
    }

    fn summary(&self) -> &'static str {
        "eval pairs labeled negative collide with no observed positive"
    }

    fn check(&self, bundle: &CheckBundle<'_>) -> Vec<Diagnostic> {
        let Some(pairs) = bundle.eval_pairs else {
            return Vec::new();
        };
        let m = &bundle.dataset.interactions;
        let (nu, ni) = (m.num_users(), m.num_items());
        let mut out = Vec::new();
        for (k, p) in pairs.iter().enumerate() {
            if p.positive || p.user.index() >= nu || p.item.index() >= ni {
                continue; // out-of-range pairs are DS003's finding
            }
            let in_train = bundle.train().contains(p.user, p.item);
            let in_test = bundle.split.is_some_and(|s| s.test.contains(p.user, p.item));
            if in_train || in_test {
                let wh = if in_train { "train" } else { "test" };
                out.push(Diagnostic::new(
                    self.code(),
                    Severity::Error,
                    Subject::EvalSet,
                    format!(
                        "pair #{k} (user {}, item {}) labeled negative but observed in {wh}",
                        { p.user }.0,
                        { p.item }.0
                    ),
                ));
            }
        }
        out
    }
}

//! Error types of the framework layer.

use std::fmt;

/// Errors surfaced by training and evaluation.
#[derive(Debug)]
pub enum CoreError {
    /// The dataset is unusable for the model (e.g. a text model given a
    /// dataset without token lists).
    InvalidDataset {
        /// What is missing or inconsistent.
        message: String,
    },
    /// The model was queried before `fit` succeeded.
    NotFitted,
    /// A hyper-parameter is out of its valid range.
    InvalidConfig {
        /// Which parameter and why.
        message: String,
    },
    /// `fit` panicked; the supervisor caught the unwind and isolated it.
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// Training diverged: the loss curve ran away from its best value.
    Diverged {
        /// Epoch (0-based) at which divergence was detected.
        epoch: usize,
        /// What the monitor saw (losses involved).
        detail: String,
    },
    /// A trained model produced NaN / +∞ where finite values are required
    /// (scores, losses, embeddings).
    NonFinite {
        /// Where the non-finite value surfaced.
        context: String,
    },
    /// The wall-clock training budget was exhausted before `fit`
    /// completed successfully.
    BudgetExceeded {
        /// Seconds actually spent.
        elapsed_secs: f64,
        /// The configured budget in seconds.
        budget_secs: f64,
    },
}

impl CoreError {
    /// Whether a retry (with learning-rate backoff / reseeding) could
    /// plausibly succeed. Dataset and configuration errors are permanent;
    /// panics, divergence and non-finite outputs are often
    /// seed/learning-rate dependent.
    pub(crate) fn is_retryable(&self) -> bool {
        matches!(
            self,
            CoreError::Panicked { .. } | CoreError::Diverged { .. } | CoreError::NonFinite { .. }
        )
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidDataset { message } => write!(f, "invalid dataset: {message}"),
            CoreError::NotFitted => write!(f, "model queried before fit"),
            CoreError::InvalidConfig { message } => write!(f, "invalid config: {message}"),
            CoreError::Panicked { message } => write!(f, "fit panicked: {message}"),
            CoreError::Diverged { epoch, detail } => {
                write!(f, "training diverged at epoch {epoch}: {detail}")
            }
            CoreError::NonFinite { context } => write!(f, "non-finite values in {context}"),
            CoreError::BudgetExceeded { elapsed_secs, budget_secs } => {
                write!(f, "wall-clock budget exceeded: {elapsed_secs:.2}s of {budget_secs:.2}s")
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_readable() {
        let e = CoreError::InvalidDataset { message: "no token lists".into() };
        assert_eq!(e.to_string(), "invalid dataset: no token lists");
        assert_eq!(CoreError::NotFitted.to_string(), "model queried before fit");
        let p = CoreError::Panicked { message: "index out of bounds".into() };
        assert_eq!(p.to_string(), "fit panicked: index out of bounds");
        let d = CoreError::Diverged { epoch: 7, detail: "loss 9e9 vs best 0.1".into() };
        assert!(d.to_string().contains("epoch 7"));
        let b = CoreError::BudgetExceeded { elapsed_secs: 12.5, budget_secs: 10.0 };
        assert!(b.to_string().contains("12.50s of 10.00s"));
    }

    #[test]
    fn retryability_split() {
        assert!(CoreError::Panicked { message: String::new() }.is_retryable());
        assert!(CoreError::Diverged { epoch: 0, detail: String::new() }.is_retryable());
        assert!(CoreError::NonFinite { context: String::new() }.is_retryable());
        assert!(!CoreError::NotFitted.is_retryable());
        assert!(!CoreError::InvalidDataset { message: String::new() }.is_retryable());
        assert!(!CoreError::InvalidConfig { message: String::new() }.is_retryable());
        assert!(!CoreError::BudgetExceeded { elapsed_secs: 1.0, budget_secs: 0.5 }.is_retryable());
    }
}

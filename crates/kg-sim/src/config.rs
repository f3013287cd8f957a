//! Shared similarity parameters.

use serde::{Deserialize, Serialize};

/// Parameters of the similarity model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimilarityConfig {
    /// Restart probability `c` of the PPR walk. The paper uses `c ≈ 0.15`
    /// and notes small changes barely affect results.
    pub restart: f64,
    /// Path-length pruning threshold `L`: walks longer than this are
    /// dropped. Section VII-E selects `L = 5` (longer paths change scores
    /// by < 0.3% while cost grows exponentially).
    pub max_path_len: usize,
    /// Opt-in frontier pruning for the numeric phi kernel: a frontier
    /// entry whose accumulated walk mass falls below this threshold is
    /// dropped instead of propagated. `0.0` (the default) is exact. On a
    /// row-stochastic graph the induced error of any single score is
    /// bounded by the kernel's reported
    /// [`crate::PhiWorkspace::pruned_bound`] — see the bound test in
    /// `workspace.rs`.
    pub prune_eps: f64,
}

impl Default for SimilarityConfig {
    fn default() -> Self {
        SimilarityConfig {
            restart: 0.15,
            max_path_len: 5,
            prune_eps: 0.0,
        }
    }
}

impl SimilarityConfig {
    /// Creates an exact config, validating `0 < restart < 1` and `L >= 1`.
    pub fn new(restart: f64, max_path_len: usize) -> Self {
        assert!(
            restart > 0.0 && restart < 1.0,
            "restart probability must be in (0,1), got {restart}"
        );
        assert!(max_path_len >= 1, "path length bound must be at least 1");
        SimilarityConfig {
            restart,
            max_path_len,
            prune_eps: 0.0,
        }
    }

    /// Returns the config with frontier pruning set to `eps` (see
    /// [`Self::prune_eps`]). `eps` must be finite and non-negative.
    pub fn with_prune_eps(mut self, eps: f64) -> Self {
        assert!(
            eps.is_finite() && eps >= 0.0,
            "prune_eps must be finite and non-negative, got {eps}"
        );
        self.prune_eps = eps;
        self
    }

    /// The damping factor `1 - c`.
    #[inline]
    pub fn damping(&self) -> f64 {
        1.0 - self.restart
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SimilarityConfig::default();
        assert_eq!(c.restart, 0.15);
        assert_eq!(c.max_path_len, 5);
        assert_eq!(c.prune_eps, 0.0);
        assert!((c.damping() - 0.85).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "restart probability")]
    fn invalid_restart_panics() {
        SimilarityConfig::new(1.5, 5);
    }

    #[test]
    #[should_panic(expected = "path length")]
    fn zero_length_panics() {
        SimilarityConfig::new(0.15, 0);
    }

    #[test]
    fn prune_eps_builder_sets_threshold() {
        let c = SimilarityConfig::new(0.15, 5).with_prune_eps(1e-9);
        assert_eq!(c.prune_eps, 1e-9);
    }

    #[test]
    #[should_panic(expected = "prune_eps")]
    fn negative_prune_eps_panics() {
        SimilarityConfig::default().with_prune_eps(-1.0);
    }
}

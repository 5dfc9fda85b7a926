//! From-scratch random-forest regression — the scikit-learn step.
//!
//! CART regression trees (variance-reduction splits) bagged over
//! bootstrap samples with per-split feature subsampling, trained in
//! parallel. This is the "scikit-learn random forest model
//! to predict stability" of §V-A, rebuilt natively.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A binary regression-tree node, stored flat in a vector.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Children are stored at explicit indices (not `left + 1`)
        /// because subtree sizes differ.
        left: usize,
        right: usize,
    },
}

/// A CART regression tree.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    nodes: Vec<Node>,
}

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples required to split a node.
    pub min_samples_split: usize,
    /// Features considered per split (`None` = sqrt(n_features)).
    pub max_features: Option<usize>,
    /// RNG seed for bootstrap and feature subsampling.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 50,
            max_depth: 12,
            min_samples_split: 4,
            max_features: None,
            seed: 0,
        }
    }
}

impl DecisionTree {
    /// Fit a tree on `(x, y)` where `x` is row-major
    /// `n_samples × n_features`, restricted to `indices`.
    fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        indices: &[usize],
        config: &ForestConfig,
        rng: &mut StdRng,
    ) -> Self {
        let n_features = x.first().map_or(0, Vec::len);
        let max_features = config
            .max_features
            .unwrap_or_else(|| (n_features as f64).sqrt().ceil() as usize)
            .clamp(1, n_features.max(1));
        let mut nodes = Vec::new();
        let mut work = indices.to_vec();
        Self::grow(x, y, &mut work, 0, config, max_features, rng, &mut nodes);
        DecisionTree { nodes }
    }

    /// Recursively grow the tree over `indices`, appending nodes and
    /// returning the new node's index.
    #[allow(clippy::too_many_arguments)]
    fn grow(
        x: &[Vec<f64>],
        y: &[f64],
        indices: &mut [usize],
        depth: usize,
        config: &ForestConfig,
        max_features: usize,
        rng: &mut StdRng,
        nodes: &mut Vec<Node>,
    ) -> usize {
        let mean = indices.iter().map(|&i| y[i]).sum::<f64>() / indices.len() as f64;
        if depth >= config.max_depth
            || indices.len() < config.min_samples_split
            || indices.iter().all(|&i| (y[i] - mean).abs() < 1e-12)
        {
            nodes.push(Node::Leaf { value: mean });
            return nodes.len() - 1;
        }
        let n_features = x[0].len();
        let mut feature_pool: Vec<usize> = (0..n_features).collect();
        feature_pool.shuffle(rng);
        feature_pool.truncate(max_features);

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        for &feature in &feature_pool {
            if let Some((threshold, score)) = best_split(x, y, indices, feature) {
                if best.is_none_or(|(_, _, s)| score < s) {
                    best = Some((feature, threshold, score));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            nodes.push(Node::Leaf { value: mean });
            return nodes.len() - 1;
        };
        // Partition indices in place.
        let split_at = partition(indices, |&i| x[i][feature] <= threshold);
        if split_at == 0 || split_at == indices.len() {
            nodes.push(Node::Leaf { value: mean });
            return nodes.len() - 1;
        }
        // Reserve our slot before recursing so children land after us.
        let node_index = nodes.len();
        nodes.push(Node::Leaf { value: mean }); // placeholder
        let (left_idx, right_idx) = {
            let (left_part, right_part) = indices.split_at_mut(split_at);
            let l = Self::grow(x, y, left_part, depth + 1, config, max_features, rng, nodes);
            let r = Self::grow(
                x,
                y,
                right_part,
                depth + 1,
                config,
                max_features,
                rng,
                nodes,
            );
            (l, r)
        };
        nodes[node_index] = Node::Split {
            feature,
            threshold,
            left: left_idx,
            right: right_idx,
        };
        node_index
    }

    /// Predict one sample.
    pub fn predict(&self, features: &[f64]) -> f64 {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    idx = if features[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Number of nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Tree depth (diagnostics).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], idx: usize) -> usize {
            match &nodes[idx] {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => 1 + rec(nodes, *left).max(rec(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(&self.nodes, 0)
        }
    }
}

/// Stable partition: moves elements satisfying `pred` to the front,
/// returning the boundary.
fn partition<T, F: Fn(&T) -> bool>(slice: &mut [T], pred: F) -> usize {
    let mut next = 0;
    for i in 0..slice.len() {
        if pred(&slice[i]) {
            slice.swap(i, next);
            next += 1;
        }
    }
    next
}

/// Best threshold for `feature` over `indices` by weighted-variance
/// (SSE) minimization; returns `(threshold, sse)`.
fn best_split(x: &[Vec<f64>], y: &[f64], indices: &[usize], feature: usize) -> Option<(f64, f64)> {
    let mut order: Vec<usize> = indices.to_vec();
    order.sort_by(|&a, &b| {
        x[a][feature]
            .partial_cmp(&x[b][feature])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let n = order.len();
    if n < 2 {
        return None;
    }
    // Prefix sums for O(n) scan.
    let mut prefix_sum = 0.0;
    let mut prefix_sq = 0.0;
    let total_sum: f64 = order.iter().map(|&i| y[i]).sum();
    let total_sq: f64 = order.iter().map(|&i| y[i] * y[i]).sum();
    let mut best: Option<(f64, f64)> = None;
    for k in 0..n - 1 {
        let yi = y[order[k]];
        prefix_sum += yi;
        prefix_sq += yi * yi;
        let xv = x[order[k]][feature];
        let xn = x[order[k + 1]][feature];
        if xn <= xv {
            continue; // cannot split between equal values
        }
        let left_n = (k + 1) as f64;
        let right_n = (n - k - 1) as f64;
        let left_sse = prefix_sq - prefix_sum * prefix_sum / left_n;
        let right_sum = total_sum - prefix_sum;
        let right_sse = (total_sq - prefix_sq) - right_sum * right_sum / right_n;
        let score = left_sse + right_sse;
        if best.is_none_or(|(_, s)| score < s) {
            best = Some(((xv + xn) / 2.0, score));
        }
    }
    best
}

/// A bagged ensemble of regression trees.
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Train on row-major features `x` and targets `y`. Trees are
    /// fitted in parallel; the forest is deterministic for a given
    /// `config.seed`.
    pub fn fit(x: &[Vec<f64>], y: &[f64], config: &ForestConfig) -> Self {
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        assert!(!x.is_empty(), "cannot fit on an empty dataset");
        let n = x.len();
        let trees = dlhub_tensor::par::map(config.n_trees, |t| {
            let mut rng =
                StdRng::seed_from_u64(config.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let bootstrap: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            DecisionTree::fit(x, y, &bootstrap, config, &mut rng)
        });
        RandomForest { trees }
    }

    /// Predict one sample (mean over trees).
    pub fn predict(&self, features: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict(features)).sum::<f64>() / self.trees.len() as f64
    }

    /// Predict many samples.
    pub fn predict_batch(&self, features: &[Vec<f64>]) -> Vec<f64> {
        features.iter().map(|f| self.predict(f)).collect()
    }

    /// Predict with an ensemble uncertainty estimate: the mean and
    /// standard deviation of the per-tree predictions. Disagreement
    /// across the bagged trees is the classic random-forest proxy for
    /// epistemic uncertainty — the "uncertainty quantification" stage
    /// scientific workflows attach after inference (paper §II).
    pub fn predict_with_uncertainty(&self, features: &[f64]) -> (f64, f64) {
        let per_tree: Vec<f64> = self.trees.iter().map(|t| t.predict(features)).collect();
        let n = per_tree.len() as f64;
        let mean = per_tree.iter().sum::<f64>() / n;
        let variance = per_tree
            .iter()
            .map(|p| (p - mean) * (p - mean))
            .sum::<f64>()
            / n;
        (mean, variance.sqrt())
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Mean absolute error over a labelled set.
    pub fn mae(&self, x: &[Vec<f64>], y: &[f64]) -> f64 {
        let preds = self.predict_batch(x);
        preds.iter().zip(y).map(|(p, t)| (p - t).abs()).sum::<f64>() / y.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y = 3*x0 - 2*x1 with a little structure; learnable by trees.
    fn toy_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] - 2.0 * r[1]).collect();
        (x, y)
    }

    #[test]
    fn single_tree_fits_constant_data() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0]];
        let y = vec![5.0, 5.0, 5.0];
        let mut rng = StdRng::seed_from_u64(0);
        let tree = DecisionTree::fit(&x, &y, &[0, 1, 2], &ForestConfig::default(), &mut rng);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[7.0]), 5.0);
    }

    #[test]
    fn single_tree_learns_a_step_function() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 1.0 }).collect();
        let idx: Vec<usize> = (0..20).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let config = ForestConfig {
            max_features: Some(1),
            ..ForestConfig::default()
        };
        let tree = DecisionTree::fit(&x, &y, &idx, &config, &mut rng);
        assert_eq!(tree.predict(&[3.0]), 0.0);
        assert_eq!(tree.predict(&[15.0]), 1.0);
    }

    #[test]
    fn forest_reduces_error_on_linear_target() {
        let (x, y) = toy_data(400, 1);
        let (xt, yt) = toy_data(100, 2);
        let forest = RandomForest::fit(
            &x,
            &y,
            &ForestConfig {
                n_trees: 40,
                ..ForestConfig::default()
            },
        );
        let mae = forest.mae(&xt, &yt);
        // Target stddev is ~2; the forest must do far better than the
        // mean predictor.
        assert!(mae < 0.6, "forest MAE too high: {mae}");
    }

    #[test]
    fn forest_is_deterministic_for_a_seed() {
        let (x, y) = toy_data(100, 1);
        let config = ForestConfig {
            n_trees: 8,
            seed: 42,
            ..ForestConfig::default()
        };
        let f1 = RandomForest::fit(&x, &y, &config);
        let f2 = RandomForest::fit(&x, &y, &config);
        let probe = vec![0.3, -0.4];
        assert_eq!(f1.predict(&probe), f2.predict(&probe));
        let f3 = RandomForest::fit(&x, &y, &ForestConfig { seed: 43, ..config });
        assert_ne!(f1.predict(&probe), f3.predict(&probe));
    }

    #[test]
    fn predict_batch_matches_predict() {
        let (x, y) = toy_data(100, 1);
        let forest = RandomForest::fit(&x, &y, &ForestConfig::default());
        let batch = forest.predict_batch(&x[..5]);
        for (row, expected) in x[..5].iter().zip(&batch) {
            assert_eq!(forest.predict(row), *expected);
        }
    }

    #[test]
    fn uncertainty_mean_matches_predict() {
        let (x, y) = toy_data(300, 5);
        let forest = RandomForest::fit(&x, &y, &ForestConfig::default());
        let probe = vec![0.1, -0.2];
        let (mean, std) = forest.predict_with_uncertainty(&probe);
        assert!((mean - forest.predict(&probe)).abs() < 1e-12);
        // The toy target varies, so bootstrapped trees must disagree
        // at least a little.
        assert!(std > 0.0);
    }

    #[test]
    fn uncertainty_is_zero_when_trees_cannot_disagree() {
        // Constant targets: every bootstrap learns the same constant.
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let y = vec![4.2; 50];
        let forest = RandomForest::fit(&x, &y, &ForestConfig::default());
        let (mean, std) = forest.predict_with_uncertainty(&[25.0]);
        assert!((mean - 4.2).abs() < 1e-12);
        // Up to float rounding in the variance accumulation.
        assert!(std < 1e-9, "std {std}");
    }

    #[test]
    fn max_depth_bounds_tree_depth() {
        let (x, y) = toy_data(200, 3);
        let idx: Vec<usize> = (0..200).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let config = ForestConfig {
            max_depth: 3,
            ..ForestConfig::default()
        };
        let tree = DecisionTree::fit(&x, &y, &idx, &config, &mut rng);
        assert!(tree.depth() <= 4); // root at depth 1 + 3 levels
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_panic() {
        RandomForest::fit(&[vec![1.0]], &[1.0, 2.0], &ForestConfig::default());
    }
}

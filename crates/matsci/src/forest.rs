//! From-scratch random-forest regression — the scikit-learn step.
//!
//! CART regression trees (variance-reduction splits) bagged over
//! bootstrap samples with per-split feature subsampling, trained in
//! parallel. This is the "scikit-learn random forest model
//! to predict stability" of §V-A, rebuilt natively.
//!
//! The fit orders a node's rows by each feature's dense rank, computed
//! once per forest, instead of comparing their values; a tree is a flat
//! preorder array of 16-byte nodes, and a prediction walks eight trees
//! side by side.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// [`Node::feature`] of a leaf.
const LEAF: u32 = u32::MAX;

/// A regression-tree node. Nodes are stored in preorder, so a split's
/// left child is the next node; a leaf keeps its value in `threshold`.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// A split's threshold, or a leaf's value.
    threshold: f64,
    /// The feature a split tests, or [`LEAF`].
    feature: u32,
    /// Index of a split's right child.
    right: u32,
}

impl Node {
    fn leaf(value: f64) -> Self {
        Node {
            threshold: value,
            feature: LEAF,
            right: 0,
        }
    }
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

/// A feature value's dense rank: its index among the feature's distinct
/// values in ascending order.
trait Rank: Copy + Send + Sync {
    fn new(rank: usize) -> Self;
    fn get(self) -> usize;
}

impl Rank for u16 {
    fn new(rank: usize) -> Self {
        u16::try_from(rank).expect("a u16 rank column holds at most 2^16 rows")
    }
    fn get(self) -> usize {
        self as usize
    }
}

impl Rank for u32 {
    fn new(rank: usize) -> Self {
        u32::try_from(rank).expect("a training set has at most 2^32 rows")
    }
    fn get(self) -> usize {
        self as usize
    }
}

/// Every feature's ranks over the training rows, computed once per
/// forest. Values that compare equal (`-0.0` and `0.0` too) share a
/// rank, so ordering rows by rank orders them as comparing their values
/// does.
struct Ranks<R> {
    /// Feature-major: `ranks[f * rows + i]` is row `i`'s rank of feature `f`.
    ranks: Vec<R>,
    /// Distinct values of each feature.
    distinct: Vec<usize>,
    rows: usize,
}

impl<R: Rank> Ranks<R> {
    fn new(x: &[Vec<f64>]) -> Self {
        let rows = x.len();
        let n_features = x.first().map_or(0, Vec::len);
        let mut ranks = vec![R::new(0); rows * n_features];
        let mut distinct = Vec::with_capacity(n_features);
        let mut order: Vec<usize> = (0..rows).collect();
        for (f, column) in ranks.chunks_exact_mut(rows.max(1)).enumerate() {
            order.sort_unstable_by(|&a, &b| x[a][f].total_cmp(&x[b][f]));
            let mut rank = 0;
            for k in 0..rows {
                if k > 0 && x[order[k]][f] != x[order[k - 1]][f] {
                    rank += 1;
                }
                column[order[k]] = R::new(rank);
            }
            distinct.push(rank + 1);
        }
        Ranks {
            ranks,
            distinct,
            rows,
        }
    }

    fn column(&self, feature: usize) -> &[R] {
        &self.ranks[feature * self.rows..][..self.rows]
    }
}

/// A node's row at `position`, ordered by `rank`: sorting these keys
/// orders the rows by rank with ties in node order.
fn sort_key(rank: usize, position: usize) -> u64 {
    (rank as u64) << 32 | position as u64
}

fn key_rank(key: u64) -> u64 {
    key >> 32
}

fn key_position(key: u64) -> usize {
    (key & u64::from(u32::MAX)) as usize
}

/// A node is counting-sorted when its feature has at most this many
/// distinct values per row in the node, and `sort_unstable`ed otherwise.
const COUNTING_SORT_SPAN: usize = 4;

/// One tree's fit: what it reads, the nodes it has grown, and the
/// buffers every node reuses.
struct Grower<'a, R> {
    x: &'a [Vec<f64>],
    y: &'a [f64],
    ranks: &'a Ranks<R>,
    config: &'a ForestConfig,
    max_features: usize,
    rng: &'a mut StdRng,
    nodes: Vec<Node>,
    /// The feature pool of the node being split.
    pool: Vec<usize>,
    /// The node's rows as [`sort_key`]s, in one feature's order.
    keys: Vec<u64>,
    /// Counting-sort buckets, one per distinct value.
    counts: Vec<u32>,
    /// The targets in `keys` order.
    ys: Vec<f64>,
}

impl<R: Rank> Grower<'_, R> {
    /// Grow the subtree over `indices`, appending its nodes in preorder
    /// and returning the index of its root.
    fn grow(&mut self, indices: &mut [usize], depth: usize) -> usize {
        let y = self.y;
        let mean = indices.iter().map(|&i| y[i]).sum::<f64>() / indices.len() as f64;
        if depth >= self.config.max_depth
            || indices.len() < self.config.min_samples_split
            || indices.iter().all(|&i| (y[i] - mean).abs() < 1e-12)
        {
            return self.push(Node::leaf(mean));
        }
        // The whole pool is shuffled, then cut: the RNG draws depend on
        // the feature count, not on `max_features`.
        self.pool.clear();
        self.pool.extend(0..self.ranks.distinct.len());
        self.pool.shuffle(self.rng);
        let candidates = self.max_features.min(self.pool.len());

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        for c in 0..candidates {
            let feature = self.pool[c];
            if let Some((threshold, score)) = self.best_split(indices, feature) {
                if best.is_none_or(|(_, _, s)| score < s) {
                    best = Some((feature, threshold, score));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            return self.push(Node::leaf(mean));
        };
        // By value, not by rank: the midpoint of two adjacent values can
        // round up to the larger one.
        let x = self.x;
        let split_at = partition(indices, |&i| x[i][feature] <= threshold);
        if split_at == 0 || split_at == indices.len() {
            return self.push(Node::leaf(mean));
        }
        let at = self.push(Node::leaf(mean)); // placeholder; the left subtree follows
        let (left, right) = indices.split_at_mut(split_at);
        self.grow(left, depth + 1);
        let right = self.grow(right, depth + 1);
        self.nodes[at] = Node {
            threshold,
            feature: u32::try_from(feature).expect("feature index below u32::MAX"),
            right: u32::try_from(right).expect("a tree has fewer than 2^32 nodes"),
        };
        at
    }

    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Best threshold for `feature` over `indices` by weighted-variance
    /// (SSE) minimization; returns `(threshold, sse)`.
    fn best_split(&mut self, indices: &[usize], feature: usize) -> Option<(f64, f64)> {
        let n = indices.len();
        if n < 2 {
            return None;
        }
        self.sort_by_rank(indices, feature);
        let y = self.y;
        self.ys.clear();
        self.ys
            .extend(self.keys.iter().map(|&key| y[indices[key_position(key)]]));
        // Every sum adds the same operands in the same order as a
        // stable sort by value would have put them in.
        let total_sum: f64 = self.ys.iter().sum();
        let total_sq: f64 = self.ys.iter().map(|v| v * v).sum();
        let mut prefix_sum = 0.0;
        let mut prefix_sq = 0.0;
        let mut best: Option<(usize, f64)> = None; // (last row on the left, score)
        for (k, (&yi, pair)) in self.ys.iter().zip(self.keys.windows(2)).enumerate() {
            prefix_sum += yi;
            prefix_sq += yi * yi;
            if key_rank(pair[0]) == key_rank(pair[1]) {
                continue; // cannot split between equal values
            }
            let left_n = (k + 1) as f64;
            let right_n = (n - k - 1) as f64;
            let left_sse = prefix_sq - prefix_sum * prefix_sum / left_n;
            let right_sum = total_sum - prefix_sum;
            let right_sse = (total_sq - prefix_sq) - right_sum * right_sum / right_n;
            let score = left_sse + right_sse;
            if best.is_none_or(|(_, s)| score < s) {
                best = Some((k, score));
            }
        }
        let value = |k: usize| self.x[indices[key_position(self.keys[k])]][feature];
        best.map(|(k, score)| ((value(k) + value(k + 1)) / 2.0, score))
    }

    /// Fill `keys` with the node's rows ordered by `feature`'s rank,
    /// ties in node order.
    fn sort_by_rank(&mut self, indices: &[usize], feature: usize) {
        let ranks = self.ranks.column(feature);
        let distinct = self.ranks.distinct[feature];
        self.keys.clear();
        if distinct <= COUNTING_SORT_SPAN * indices.len() {
            // counts[r] becomes the first slot of rank r; filling slots
            // in node order keeps ties in node order.
            self.counts.clear();
            self.counts.resize(distinct + 1, 0);
            for &i in indices {
                self.counts[ranks[i].get() + 1] += 1;
            }
            for r in 1..distinct {
                self.counts[r] += self.counts[r - 1];
            }
            self.keys.resize(indices.len(), 0);
            for (position, &i) in indices.iter().enumerate() {
                let rank = ranks[i].get();
                let slot = &mut self.counts[rank];
                self.keys[*slot as usize] = sort_key(rank, position);
                *slot += 1;
            }
        } else {
            self.keys.extend(
                indices
                    .iter()
                    .enumerate()
                    .map(|(position, &i)| sort_key(ranks[i].get(), position)),
            );
            self.keys.sort_unstable();
        }
    }
}

impl DecisionTree {
    /// Fit a tree on `(x, y)` where `x` is row-major
    /// `n_samples × n_features` and `ranks` are its ranks, restricted to
    /// `indices`.
    fn fit<R: Rank>(
        x: &[Vec<f64>],
        y: &[f64],
        ranks: &Ranks<R>,
        indices: &[usize],
        config: &ForestConfig,
        rng: &mut StdRng,
    ) -> Self {
        let n_features = ranks.distinct.len();
        let max_features = config
            .max_features
            .unwrap_or_else(|| (n_features as f64).sqrt().ceil() as usize)
            .clamp(1, n_features.max(1));
        let mut grower = Grower {
            x,
            y,
            ranks,
            config,
            max_features,
            rng,
            nodes: Vec::new(),
            pool: Vec::with_capacity(n_features),
            keys: Vec::with_capacity(indices.len()),
            counts: Vec::new(),
            ys: Vec::with_capacity(indices.len()),
        };
        grower.grow(&mut indices.to_vec(), 0);
        let mut nodes = grower.nodes;
        nodes.shrink_to_fit();
        DecisionTree { nodes }
    }

    /// Predict one sample.
    pub fn predict(&self, features: &[f64]) -> f64 {
        walk(std::slice::from_ref(self), features)[0]
    }

    /// Number of nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Tree depth (diagnostics).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], idx: usize) -> usize {
            let node = nodes[idx];
            if node.feature == LEAF {
                1
            } else {
                1 + rec(nodes, idx + 1).max(rec(nodes, node.right as usize))
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(&self.nodes, 0)
        }
    }
}

/// Trees one walk advances side by side, so their node loads overlap.
const LANES: usize = 8;

/// The leaf values `trees` (at most [`LANES`]) reach on `features`,
/// walking them in lockstep: each round moves every tree not yet at a
/// leaf one level down. The left/right choice compiles to a conditional
/// move, so on inputs whose paths the branch predictor has not learnt
/// the trees' node loads overlap instead of each level waiting on a
/// mispredict.
fn walk(trees: &[DecisionTree], features: &[f64]) -> [f64; LANES] {
    let mut at = [0usize; LANES];
    let mut leaves = [0.0; LANES];
    loop {
        let mut moved = false;
        for ((tree, at), leaf) in trees.iter().zip(&mut at).zip(&mut leaves) {
            let node = tree.nodes[*at];
            if node.feature == LEAF {
                *leaf = node.threshold;
            } else {
                *at = if features[node.feature as usize] <= node.threshold {
                    *at + 1
                } else {
                    node.right as usize
                };
                moved = true;
            }
        }
        if !moved {
            return leaves;
        }
    }
}

/// Moves the elements satisfying `pred` to the front, in their order,
/// and returns how many there are. Not stable: each swap sends the
/// element at the boundary behind the one that passed, which permutes
/// the rest. A child's row order sets the order of its ties and sums, so
/// the fit's bits depend on this permutation.
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
        // A feature has at most one distinct value per row.
        if x.len() <= 1 << 16 {
            Self::fit_ranked(x, y, &Ranks::<u16>::new(x), config)
        } else {
            Self::fit_ranked(x, y, &Ranks::<u32>::new(x), config)
        }
    }

    fn fit_ranked<R: Rank>(
        x: &[Vec<f64>],
        y: &[f64],
        ranks: &Ranks<R>,
        config: &ForestConfig,
    ) -> Self {
        let n = x.len();
        let trees = dlhub_tensor::par::map(config.n_trees, |t| {
            let mut rng =
                StdRng::seed_from_u64(config.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let bootstrap: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            DecisionTree::fit(x, y, ranks, &bootstrap, config, &mut rng)
        });
        RandomForest { trees }
    }

    /// Every tree's prediction on `features`, in tree order.
    fn each_tree(&self, features: &[f64], mut each: impl FnMut(f64)) {
        for group in self.trees.chunks(LANES) {
            walk(group, features)[..group.len()]
                .iter()
                .for_each(|&v| each(v));
        }
    }

    /// Predict one sample (mean over trees).
    pub fn predict(&self, features: &[f64]) -> f64 {
        // `-0.0` is where `Iterator::sum` starts: this is the sum of the
        // per-tree predictions in tree order, bit for bit.
        let mut sum = -0.0;
        self.each_tree(features, |v| sum += v);
        sum / self.trees.len() as f64
    }

    /// Predict a block of samples, each to the bit what
    /// [`RandomForest::predict`] gives it: each group of trees walks
    /// every sample before the next group starts.
    pub fn predict_many<F: AsRef<[f64]>>(&self, rows: &[F]) -> Vec<f64> {
        let mut sums = vec![-0.0; rows.len()];
        for group in self.trees.chunks(LANES) {
            for (sum, row) in sums.iter_mut().zip(rows) {
                for &v in &walk(group, row.as_ref())[..group.len()] {
                    *sum += v;
                }
            }
        }
        let n = self.trees.len() as f64;
        sums.iter_mut().for_each(|sum| *sum /= n);
        sums
    }

    /// Predict with an ensemble uncertainty estimate: the mean and
    /// standard deviation of the per-tree predictions. Disagreement
    /// across the bagged trees is the classic random-forest proxy for
    /// epistemic uncertainty — the "uncertainty quantification" stage
    /// scientific workflows attach after inference (paper §II).
    pub fn predict_with_uncertainty(&self, features: &[f64]) -> (f64, f64) {
        let mut per_tree = Vec::with_capacity(self.trees.len());
        self.each_tree(features, |v| per_tree.push(v));
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

    /// The trees, in the order they were seeded (diagnostics).
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Mean absolute error over a labelled set.
    pub fn mae(&self, x: &[Vec<f64>], y: &[f64]) -> f64 {
        let preds = self.predict_many(x);
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

    /// One tree on `indices` of `(x, y)`, with the RNG a forest's first
    /// tree would not get (seed 0).
    fn tree(x: &[Vec<f64>], y: &[f64], indices: &[usize], config: &ForestConfig) -> DecisionTree {
        let mut rng = StdRng::seed_from_u64(0);
        DecisionTree::fit(x, y, &Ranks::<u16>::new(x), indices, config, &mut rng)
    }

    #[test]
    fn single_tree_fits_constant_data() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0]];
        let y = vec![5.0, 5.0, 5.0];
        let tree = tree(&x, &y, &[0, 1, 2], &ForestConfig::default());
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[7.0]), 5.0);
    }

    #[test]
    fn single_tree_learns_a_step_function() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 1.0 }).collect();
        let idx: Vec<usize> = (0..20).collect();
        let config = ForestConfig {
            max_features: Some(1),
            ..ForestConfig::default()
        };
        let tree = tree(&x, &y, &idx, &config);
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
    fn predict_many_matches_predict() {
        let (x, y) = toy_data(100, 1);
        let forest = RandomForest::fit(&x, &y, &ForestConfig::default());
        let batch = forest.predict_many(&x[..5]);
        assert_eq!(batch.len(), 5);
        for (row, got) in x[..5].iter().zip(&batch) {
            assert_eq!(forest.predict(row).to_bits(), got.to_bits());
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
        let config = ForestConfig {
            max_depth: 3,
            ..ForestConfig::default()
        };
        let tree = tree(&x, &y, &idx, &config);
        assert!(tree.depth() <= 4); // root at depth 1 + 3 levels
    }

    #[test]
    fn equal_values_share_a_rank_and_are_never_split() {
        // -0.0 == 0.0: a split between them would send equal values
        // down different sides.
        let x: Vec<Vec<f64>> = [-0.0, 0.0, -0.0, 0.0, 1.0, 1.0, 2.0, 2.0]
            .iter()
            .map(|&v| vec![v])
            .collect();
        let ranks = Ranks::<u16>::new(&x);
        assert_eq!(ranks.column(0), [0, 0, 0, 0, 1, 1, 2, 2]);
        assert_eq!(ranks.distinct, [3]);
        let y = [0.0, 8.0, 0.0, 8.0, 1.0, 1.0, 2.0, 2.0];
        let config = ForestConfig {
            min_samples_split: 2,
            ..ForestConfig::default()
        };
        let tree = tree(&x, &y, &(0..8).collect::<Vec<_>>(), &config);
        assert_eq!(tree.predict(&[-0.0]), tree.predict(&[0.0]));
        assert_eq!(tree.predict(&[0.0]), 4.0);
    }

    #[test]
    fn rank_width_does_not_change_the_forest() {
        let (x, y) = toy_data(300, 4);
        let config = ForestConfig {
            n_trees: 10,
            seed: 9,
            ..ForestConfig::default()
        };
        let narrow = RandomForest::fit_ranked(&x, &y, &Ranks::<u16>::new(&x), &config);
        let wide = RandomForest::fit_ranked(&x, &y, &Ranks::<u32>::new(&x), &config);
        let (xt, _) = toy_data(100, 5);
        for row in &xt {
            assert_eq!(narrow.predict(row).to_bits(), wide.predict(row).to_bits());
        }
    }

    #[test]
    fn more_rows_than_a_u16_rank_holds_still_fit() {
        let n = (1 << 16) + 10;
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..n).map(|i| if i < n / 2 { 0.0 } else { 1.0 }).collect();
        let forest = RandomForest::fit(
            &x,
            &y,
            &ForestConfig {
                n_trees: 1,
                max_depth: 1,
                ..ForestConfig::default()
            },
        );
        assert_eq!(forest.predict(&[(n / 4) as f64]), 0.0);
        assert_eq!(forest.predict(&[(3 * n / 4) as f64]), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_panic() {
        RandomForest::fit(&[vec![1.0]], &[1.0, 2.0], &ForestConfig::default());
    }
}

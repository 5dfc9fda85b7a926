//! From-scratch random-forest regression — the scikit-learn step.
//!
//! CART regression trees (variance-reduction splits) bagged over
//! bootstrap samples with per-split feature subsampling, trained in
//! parallel. This is the "scikit-learn random forest model
//! to predict stability" of §V-A, rebuilt natively.
//!
//! The fit orders a node's rows by each feature's dense rank, computed
//! once per forest, instead of comparing their values. The forest keeps
//! every tree in one flat preorder array of 16-byte nodes whose leaves
//! step to themselves, and a prediction walks eight trees side by side,
//! four walks in flight, with vector gathers where the CPU has them.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// [`Node::feature`] of a leaf while its tree is being grown; the
/// forest rewrites it to the feature count (see [`RandomForest`]).
const LEAF: u32 = u32::MAX;

/// A regression-tree node. Nodes are stored in preorder, so a split's
/// left child is the next node; a leaf keeps its value in `threshold`.
/// `feature` then `right` make one little-endian 64-bit word at byte 8,
/// which a vector walk gathers in one load.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct Node {
    /// A split's threshold, or a leaf's value.
    threshold: f64,
    /// The feature a split tests, or [`LEAF`] (in a forest: the feature
    /// count).
    feature: u32,
    /// Index of a split's right child (in a forest: absolute, and a
    /// leaf's own index).
    right: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 16);

impl Node {
    fn leaf(value: f64) -> Self {
        Node {
            threshold: value,
            feature: LEAF,
            right: 0,
        }
    }
}

/// One tree of a [`RandomForest`]: a view of its nodes.
#[derive(Debug, Clone, Copy)]
pub struct DecisionTree<'a> {
    nodes: &'a [Node],
    depth: usize,
}

impl DecisionTree<'_> {
    /// Number of nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Tree depth: the nodes on its longest root-to-leaf path
    /// (diagnostics).
    pub fn depth(&self) -> usize {
        self.depth
    }
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

/// Fit one tree on `(x, y)` where `x` is row-major
/// `n_samples × n_features` and `ranks` are its ranks, restricted to
/// `indices`: its nodes in preorder, leaves marked [`LEAF`], right
/// children indexed from the tree's root.
fn fit_tree<R: Rank>(
    x: &[Vec<f64>],
    y: &[f64],
    ranks: &Ranks<R>,
    indices: &[usize],
    config: &ForestConfig,
    rng: &mut StdRng,
) -> Vec<Node> {
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
    grower.nodes
}

/// The nodes on the longest root-to-leaf path of a tree from
/// [`fit_tree`].
fn tree_depth(nodes: &[Node]) -> usize {
    fn rec(nodes: &[Node], idx: usize) -> usize {
        let node = nodes[idx];
        if node.feature == LEAF {
            1
        } else {
            1 + rec(nodes, idx + 1).max(rec(nodes, node.right as usize))
        }
    }
    rec(nodes, 0)
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

/// Trees one walk takes down a row side by side: two AVX2 vectors of
/// node indices.
const LANES: usize = 8;

/// Walks one call keeps in flight, so the gathers of three wait out the
/// latency of the fourth's.
const IN_FLIGHT: usize = 4;

/// [`RandomForest::predict`] widens a row of fewer features than this on
/// the stack.
const STACK_ROW: usize = 64;

/// Up to [`LANES`] consecutive trees of a forest, walked together.
#[derive(Debug, Clone)]
struct Group {
    /// The trees' roots; lanes past `trees` start on the idle leaf.
    roots: [i64; LANES],
    /// Trees in the group.
    trees: usize,
    /// Steps that take every tree of the group to its leaf: its deepest
    /// tree's depth less one.
    steps: usize,
}

/// One walk: a group of trees down one widened row.
#[derive(Clone, Copy)]
struct Walk<'a> {
    group: &'a Group,
    row: &'a [f64],
}

/// The builds of the walk, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
enum Build {
    /// The early-exit lockstep walk, scalar loads.
    Portable,
    /// AVX2 gathers: a walk's eight trees in two vectors.
    Avx2,
}

/// The widest build the CPU reports, up to `cap`: the one place a
/// forest's walk is chosen.
fn widest(cap: Build) -> Build {
    #[cfg(target_arch = "x86_64")]
    if cap >= Build::Avx2 && is_x86_feature_detected!("avx2") {
        return Build::Avx2;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = cap;
    Build::Portable
}

/// A bagged ensemble of regression trees.
///
/// Every tree's nodes sit in one array, tree after tree, with absolute
/// `right` indices. A leaf tests feature `pad`, the forest's feature
/// count, and is its own right child; a walk widens each row to
/// `pad + 1` values whose last is NaN, and `NaN <= t` is false, so a
/// step from a leaf stays on it. A group of trees can then be stepped
/// its deepest tree's depth with no leaf test.
#[derive(Debug, Clone)]
pub struct RandomForest {
    /// Every tree's nodes, then the idle leaf.
    nodes: Vec<Node>,
    /// Where each tree starts in `nodes`, then the idle leaf's index.
    starts: Vec<u32>,
    /// Each tree's depth.
    depths: Vec<usize>,
    /// The trees, [`LANES`] to a group, in order.
    groups: Vec<Group>,
    /// A group of no trees: the walks a call has no group for take it.
    idle: Group,
    /// The feature count: what a leaf tests.
    pad: usize,
    /// The widest walk this forest may take.
    cap: Build,
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
            fit_tree(x, y, ranks, &bootstrap, config, &mut rng)
        });
        Self::from_trees(trees, ranks.distinct.len())
    }

    /// The forest of `trees`, each from [`fit_tree`] on rows of `pad`
    /// features, laid out in one array.
    fn from_trees(trees: Vec<Vec<Node>>, pad: usize) -> Self {
        let index = |at: usize| u32::try_from(at).expect("a forest has fewer than 2^32 nodes");
        let leaf_feature = u32::try_from(pad).expect("a feature count below 2^32");
        let mut nodes = Vec::with_capacity(trees.iter().map(Vec::len).sum::<usize>() + 1);
        let mut starts = Vec::with_capacity(trees.len() + 1);
        let mut depths = Vec::with_capacity(trees.len());
        for tree in trees {
            let start = nodes.len();
            starts.push(index(start));
            depths.push(tree_depth(&tree));
            nodes.extend(tree.iter().enumerate().map(|(i, node)| {
                if node.feature == LEAF {
                    Node {
                        feature: leaf_feature,
                        right: index(start + i),
                        ..*node
                    }
                } else {
                    Node {
                        right: index(start + node.right as usize),
                        ..*node
                    }
                }
            }));
        }
        let idle = index(nodes.len());
        starts.push(idle);
        nodes.push(Node {
            threshold: 0.0,
            feature: leaf_feature,
            right: idle,
        });
        // What every walk's loads rely on, checked once: a node's right
        // child is a node, and so is a split's left one (the next
        // node); a split tests a feature of the row, and a leaf its NaN.
        for (at, node) in nodes.iter().enumerate() {
            let right = node.right as usize;
            let well_formed = if right == at {
                node.feature == leaf_feature
            } else {
                at < right && right < nodes.len() && (node.feature as usize) < pad
            };
            assert!(well_formed, "forest node {at} is malformed: {node:?}");
        }
        let trees = depths.len();
        let groups = starts[..trees]
            .chunks(LANES)
            .zip(depths.chunks(LANES))
            .map(|(roots, depths)| Group {
                roots: std::array::from_fn(|lane| i64::from(*roots.get(lane).unwrap_or(&idle))),
                trees: roots.len(),
                steps: depths.iter().max().map_or(0, |depth| depth - 1),
            })
            .collect();
        RandomForest {
            nodes,
            starts,
            depths,
            groups,
            idle: Group {
                roots: [i64::from(idle); LANES],
                trees: 0,
                steps: 0,
            },
            pad,
            cap: Build::Avx2,
        }
    }

    /// The leaf values `walks` reach, by [`widest`] under the forest's
    /// cap. Every build steps the same nodes, so every build gives the
    /// same bits.
    fn walk(&self, walks: [Walk<'_>; IN_FLIGHT]) -> [[f64; LANES]; IN_FLIGHT] {
        match widest(self.cap) {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `widest` returns `Avx2` only once the CPU has
            // reported avx2, the only requirement of `walk_avx2`.
            Build::Avx2 => unsafe { walk_avx2(self, walks) },
            _ => walks.map(|walk| self.walk_portable(walk)),
        }
    }

    /// The walk this forest takes on this CPU: `"avx2"` or `"portable"`.
    pub fn walk_build(&self) -> &'static str {
        match widest(self.cap) {
            Build::Avx2 => "avx2",
            Build::Portable => "portable",
        }
    }

    /// The leaf values `walk`'s trees reach, walking them in lockstep:
    /// each round moves every tree not yet at a leaf (`right == at`) one
    /// level down. The left/right choice is a conditional move
    /// (`select_unpredictable`), so on inputs whose paths the branch
    /// predictor has not learnt the trees' node loads overlap instead of
    /// each level waiting on a mispredict.
    fn walk_portable(&self, Walk { group, row }: Walk<'_>) -> [f64; LANES] {
        let mut at = group.roots.map(|root| root as usize);
        let mut leaves = [0.0; LANES];
        loop {
            let mut moved = false;
            for (at, leaf) in at.iter_mut().zip(&mut leaves).take(group.trees) {
                let node = self.nodes[*at];
                if node.right as usize == *at {
                    *leaf = node.threshold;
                } else {
                    let left = row[node.feature as usize] <= node.threshold;
                    *at = std::hint::select_unpredictable(left, *at + 1, node.right as usize);
                    moved = true;
                }
            }
            if !moved {
                return leaves;
            }
        }
    }

    /// Every tree's leaf value on the widened `row`, in tree order: the
    /// groups walk [`IN_FLIGHT`] at a time.
    fn each_tree(&self, row: &[f64], mut each: impl FnMut(f64)) {
        for groups in self.groups.chunks(IN_FLIGHT) {
            let walks = std::array::from_fn(|k| Walk {
                group: groups.get(k).unwrap_or(&self.idle),
                row,
            });
            for (group, leaves) in groups.iter().zip(&self.walk(walks)) {
                leaves[..group.trees].iter().for_each(|&v| each(v));
            }
        }
    }

    /// Add every tree's leaf value on each widened row of `rows` to the
    /// row's sum, in tree order: each group walks the rows
    /// [`IN_FLIGHT`] at a time before the next group starts, and the
    /// rows left over walk one by one, their groups in flight together.
    fn add_rows(&self, rows: &[f64], sums: &mut [f64]) {
        let width = self.pad + 1;
        let whole = sums.len() / IN_FLIGHT * IN_FLIGHT;
        let (whole_rows, rest) = rows.split_at(whole * width);
        for group in &self.groups {
            let blocks = whole_rows.chunks_exact(IN_FLIGHT * width);
            for (block, sums) in blocks.zip(sums.chunks_exact_mut(IN_FLIGHT)) {
                let walks = std::array::from_fn(|k| Walk {
                    group,
                    row: &block[k * width..][..width],
                });
                for (sum, leaves) in sums.iter_mut().zip(&self.walk(walks)) {
                    leaves[..group.trees].iter().for_each(|&v| *sum += v);
                }
            }
        }
        for (row, sum) in rest.chunks_exact(width).zip(&mut sums[whole..]) {
            self.each_tree(row, |v| *sum += v);
        }
    }

    /// `walk` on `features` widened to the forest's row: on the stack
    /// when it is short.
    fn widened<T>(&self, features: &[f64], walk: impl FnOnce(&[f64]) -> T) -> T {
        assert_eq!(
            features.len(),
            self.pad,
            "a row's features, for a forest of {} features",
            self.pad
        );
        if self.pad < STACK_ROW {
            let mut row = [f64::NAN; STACK_ROW];
            row[..self.pad].copy_from_slice(features);
            walk(&row[..=self.pad])
        } else {
            let mut row = Vec::with_capacity(self.pad + 1);
            row.extend_from_slice(features);
            row.push(f64::NAN);
            walk(&row)
        }
    }

    /// Predict one sample (mean over trees).
    pub fn predict(&self, features: &[f64]) -> f64 {
        // `-0.0` is where `Iterator::sum` starts: this is the sum of the
        // per-tree predictions in tree order, bit for bit.
        let mut sum = -0.0;
        self.widened(features, |row| self.each_tree(row, |v| sum += v));
        sum / self.n_trees() as f64
    }

    /// An empty block of rows to predict, with room for `capacity`.
    pub fn rows(&self, capacity: usize) -> Rows<'_> {
        Rows {
            forest: self,
            values: Vec::with_capacity(capacity * (self.pad + 1)),
        }
    }

    /// Predict a block of samples, each to the bit what
    /// [`RandomForest::predict`] gives it.
    pub fn predict_many<F: AsRef<[f64]>>(&self, rows: &[F]) -> Vec<f64> {
        let mut block = self.rows(rows.len());
        for row in rows {
            if let Err(got) = block.push(row.as_ref().iter().copied()) {
                panic!("a row of {got} features, for a forest of {}", self.pad);
            }
        }
        block.predict()
    }

    /// Predict with an ensemble uncertainty estimate: the mean and
    /// standard deviation of the per-tree predictions. Disagreement
    /// across the bagged trees is the classic random-forest proxy for
    /// epistemic uncertainty — the "uncertainty quantification" stage
    /// scientific workflows attach after inference (paper §II).
    pub fn predict_with_uncertainty(&self, features: &[f64]) -> (f64, f64) {
        let mut per_tree = Vec::with_capacity(self.n_trees());
        self.widened(features, |row| self.each_tree(row, |v| per_tree.push(v)));
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
        self.depths.len()
    }

    /// Features a row holds.
    pub fn n_features(&self) -> usize {
        self.pad
    }

    /// The trees, in the order they were seeded (diagnostics).
    pub fn trees(&self) -> impl ExactSizeIterator<Item = DecisionTree<'_>> {
        self.starts
            .windows(2)
            .zip(&self.depths)
            .map(|(bounds, &depth)| DecisionTree {
                nodes: &self.nodes[bounds[0] as usize..bounds[1] as usize],
                depth,
            })
    }

    /// Mean absolute error over a labelled set.
    pub fn mae(&self, x: &[Vec<f64>], y: &[f64]) -> f64 {
        let preds = self.predict_many(x);
        preds.iter().zip(y).map(|(p, t)| (p - t).abs()).sum::<f64>() / y.len() as f64
    }
}

/// A block of rows widened for a forest's walk: each row's features,
/// then the NaN its leaves test. Built by [`RandomForest::rows`].
#[derive(Debug, Clone)]
pub struct Rows<'f> {
    forest: &'f RandomForest,
    values: Vec<f64>,
}

impl Rows<'_> {
    /// Append a row of the forest's feature count. A row of any other
    /// length is not appended: the error is how many values it held.
    pub fn push(&mut self, features: impl IntoIterator<Item = f64>) -> Result<(), usize> {
        let pad = self.forest.pad;
        let start = self.values.len();
        let mut features = features.into_iter();
        self.values.extend(features.by_ref().take(pad));
        let held = self.values.len() - start + features.count();
        if held == pad {
            self.values.push(f64::NAN);
            Ok(())
        } else {
            self.values.truncate(start);
            Err(held)
        }
    }

    /// Rows in the block.
    pub fn len(&self) -> usize {
        self.values.len() / (self.forest.pad + 1)
    }

    /// True if the block holds no row.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Predict every row, each to the bit what
    /// [`RandomForest::predict`] gives it.
    pub fn predict(&self) -> Vec<f64> {
        let mut sums = vec![-0.0; self.len()];
        self.forest.add_rows(&self.values, &mut sums);
        let n = self.forest.n_trees() as f64;
        sums.iter_mut().for_each(|sum| *sum /= n);
        sums
    }
}

/// Panics unless every walk starts on nodes of `forest` and its row is
/// widened for it: `pad + 1` values, the last NaN. With it, a gathered
/// feature (`<= pad`) is inside the row, and a leaf's step stays on the
/// leaf.
#[cfg(target_arch = "x86_64")]
fn check_walks(forest: &RandomForest, walks: &[Walk<'_>]) {
    let pad = forest.pad;
    let widened = |row: &[f64]| row.len() == pad + 1 && row[pad].is_nan();
    let rooted = |roots: &[i64]| {
        roots
            .iter()
            .all(|&root| (root as u64) < forest.nodes.len() as u64)
    };
    assert!(
        walks
            .iter()
            .all(|walk| widened(walk.row) && rooted(&walk.group.roots)),
        "a walk not set up for the forest"
    );
}

/// [`RandomForest::walk`] on AVX2: a walk's eight node indices in two
/// vectors, stepped its deepest tree's depth less one times with no leaf
/// test, the four walks' gathers interleaved; then the leaves' values
/// gathered.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn walk_avx2(forest: &RandomForest, walks: [Walk<'_>; IN_FLIGHT]) -> [[f64; LANES]; IN_FLIGHT] {
    use std::arch::x86_64::*;
    check_walks(forest, &walks);
    // Node `i`'s threshold is the `f64` at `thresholds + 2i`, and its
    // `(feature, right)` word the 64 bits after it.
    let thresholds = forest.nodes.as_ptr().cast::<f64>();
    let pairs = thresholds.wrapping_add(1).cast::<i64>();
    let one = _mm256_set1_epi64x(1);
    let low = _mm256_set1_epi64x(i64::from(u32::MAX));
    let steps = walks.iter().map(|walk| walk.group.steps).max().unwrap_or(0);
    let mut at = walks.map(|walk| {
        let roots = &walk.group.roots;
        // SAFETY: each load reads four `i64` of one group's `roots`.
        unsafe {
            [
                _mm256_loadu_si256(roots[..4].as_ptr().cast()),
                _mm256_loadu_si256(roots[4..].as_ptr().cast()),
            ]
        }
    });
    for _ in 0..steps {
        for (halves, walk) in at.iter_mut().zip(&walks) {
            for at in halves {
                let slot = _mm256_add_epi64(*at, *at);
                // SAFETY: every lane of `at` is a node index. It starts
                // at a root (`check_walks`), and a step takes it to
                // `right` (`right < nodes.len()`) or, from a split only,
                // to the next node, which `from_trees` checked is in
                // `nodes` too; a leaf tests the row's NaN and stays. So
                // `slot` and `slot + 1` are inside `nodes`, and
                // `feature <= pad`, also checked there, is inside the row
                // (`check_walks`).
                let (threshold, pair, x) = unsafe {
                    let pair = _mm256_i64gather_epi64::<8>(pairs, slot);
                    let feature = _mm256_and_si256(pair, low);
                    let x = _mm256_i64gather_pd::<8>(walk.row.as_ptr(), feature);
                    (_mm256_i64gather_pd::<8>(thresholds, slot), pair, x)
                };
                let left = _mm256_castpd_si256(_mm256_cmp_pd::<_CMP_LE_OQ>(x, threshold));
                let right = _mm256_srli_epi64::<32>(pair);
                *at = _mm256_blendv_epi8(right, _mm256_add_epi64(*at, one), left);
            }
        }
    }
    let mut leaves = [[0.0; LANES]; IN_FLIGHT];
    for (leaves, halves) in leaves.iter_mut().zip(at) {
        for (leaves, at) in leaves.chunks_exact_mut(4).zip(halves) {
            // SAFETY: `at` holds node indices, as in the loop; the store
            // writes four `f64` of `leaves`.
            unsafe {
                let values = _mm256_i64gather_pd::<8>(thresholds, _mm256_add_epi64(at, at));
                _mm256_storeu_pd(leaves.as_mut_ptr(), values);
            }
        }
    }
    leaves
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// y = 3*x0 - 2*x1 with a little structure; learnable by trees.
    fn toy_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 3.0 * r[0] - 2.0 * r[1]).collect();
        (x, y)
    }

    /// A forest of one tree on `indices` of `(x, y)`, with the RNG a
    /// forest's first tree would not get (seed 0).
    fn tree(x: &[Vec<f64>], y: &[f64], indices: &[usize], config: &ForestConfig) -> RandomForest {
        let mut rng = StdRng::seed_from_u64(0);
        let nodes = fit_tree(x, y, &Ranks::<u16>::new(x), indices, config, &mut rng);
        RandomForest::from_trees(vec![nodes], x[0].len())
    }

    /// The forest's one tree.
    fn only(forest: &RandomForest) -> DecisionTree<'_> {
        assert_eq!(forest.n_trees(), 1);
        forest.trees().next().unwrap()
    }

    #[test]
    fn single_tree_fits_constant_data() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0]];
        let y = vec![5.0, 5.0, 5.0];
        let tree = tree(&x, &y, &[0, 1, 2], &ForestConfig::default());
        assert_eq!(only(&tree).node_count(), 1);
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
        assert!(only(&tree).depth() <= 4); // root at depth 1 + 3 levels
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

    /// The builds this host runs, narrowest first: portable always, AVX2
    /// where the CPU reports it.
    fn builds() -> Vec<Build> {
        [Build::Portable, Build::Avx2]
            .into_iter()
            .filter(|&build| widest(build) == build)
            .collect()
    }

    /// Each tree's leaf value on `row`, one tree at a time from its root:
    /// what every build is held to.
    fn per_tree(forest: &RandomForest, row: &[f64]) -> Vec<f64> {
        let starts = &forest.starts[..forest.n_trees()];
        let leaf = |mut at: usize| loop {
            let node = forest.nodes[at];
            if node.right as usize == at {
                return node.threshold;
            }
            let left = row[node.feature as usize] <= node.threshold;
            at = if left { at + 1 } else { node.right as usize };
        };
        starts.iter().map(|&start| leaf(start as usize)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// 1..=17 trees leave every lane remainder of a group and every
        /// remainder of groups in flight; 1..=9 rows every remainder of
        /// rows in flight. Rows hold NaN, both zeros and split
        /// thresholds. `predict_many`, `predict` and
        /// `predict_with_uncertainty` give the same bits on every build.
        #[test]
        fn every_build_gives_every_entry_point_the_same_bits(
            (n_trees, max_depth, seed) in (1usize..=17, 1usize..=6, 0u64..u64::MAX),
            n_rows in 1usize..=9,
            picks in proptest::collection::vec((0u8..5, 0usize..usize::MAX, -3.0f64..3.0), 27),
        ) {
            // Few distinct values, both zeros among them: ties and
            // repeated thresholds.
            let mut rng = StdRng::seed_from_u64(seed);
            let rows = rng.gen_range(8..48);
            let x: Vec<Vec<f64>> = (0..rows)
                .map(|_| {
                    (0..3)
                        .map(|_| match rng.gen_range(-4..=4) {
                            0 if rng.gen_bool(0.5) => -0.0,
                            v => f64::from(v) * 0.5,
                        })
                        .collect()
                })
                .collect();
            let y: Vec<f64> = (0..rows).map(|_| rng.gen_range(-10.0..10.0)).collect();
            let config = ForestConfig {
                n_trees,
                max_depth,
                min_samples_split: 2,
                seed,
                ..ForestConfig::default()
            };
            let mut forest = RandomForest::fit(&x, &y, &config);
            let thresholds: Vec<f64> = (forest.nodes.iter().enumerate())
                .filter(|&(at, node)| node.right as usize != at)
                .map(|(_, node)| node.threshold)
                .collect();
            let value = |&(kind, pick, v): &(u8, usize, f64)| match kind {
                0 => f64::NAN,
                1 => 0.0,
                2 => -0.0,
                3 if !thresholds.is_empty() => thresholds[pick % thresholds.len()],
                _ => v,
            };
            let probes: Vec<Vec<f64>> = picks[..3 * n_rows].chunks(3).map(|row| row.iter().map(value).collect()).collect();
            let n = n_trees as f64;
            let want: Vec<(u64, u64, u64)> = probes
                .iter()
                .map(|row| {
                    let leaves = per_tree(&forest, row);
                    let mean = leaves.iter().sum::<f64>() / n;
                    let variance = leaves.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / n;
                    (mean.to_bits(), mean.to_bits(), variance.sqrt().to_bits())
                })
                .collect();
            for build in builds() {
                forest.cap = build;
                let many = forest.predict_many(&probes);
                let got: Vec<(u64, u64, u64)> = probes
                    .iter()
                    .zip(&many)
                    .map(|(row, many)| {
                        let (mean, std) = forest.predict_with_uncertainty(row);
                        prop_assert_eq!(forest.predict(row).to_bits(), many.to_bits(), "{:?}", build);
                        Ok((many.to_bits(), mean.to_bits(), std.to_bits()))
                    })
                    .collect::<Result<_, TestCaseError>>()?;
                prop_assert_eq!(&got, &want, "{:?} on {:?}", build, probes);
            }
        }
    }

    #[test]
    fn a_row_of_another_width_is_refused_and_leaves_the_block_as_it_was() {
        let (x, y) = toy_data(50, 1);
        let forest = RandomForest::fit(&x, &y, &ForestConfig::default());
        let mut rows = forest.rows(2);
        assert_eq!(rows.push([0.5]), Err(1));
        assert_eq!(rows.push([0.5, 0.25, 1.0]), Err(3));
        assert!(rows.is_empty());
        assert_eq!(rows.push([0.5, 0.25]), Ok(()));
        assert_eq!(rows.push([0.5; 4]), Err(4));
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows.predict()[0].to_bits(),
            forest.predict(&[0.5, 0.25]).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_panic() {
        RandomForest::fit(&[vec![1.0]], &[1.0, 2.0], &ForestConfig::default());
    }
}

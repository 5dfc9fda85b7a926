//! Deterministic model builders for the paper's two image servables.
//!
//! Weights come from a seeded RNG: predictions are meaningless but the
//! arithmetic cost is real, which is what the serving experiments
//! measure (see DESIGN.md, "Substitutions"). Channel counts are scaled
//! down from the originals — CIFAR-10 is 32 MFLOP and Inception
//! 351 MFLOP per inference, about 0.7 ms and 7 ms on one AVX-512 core —
//! while preserving the Inception ≫ CIFAR-10 cost ratio.

use crate::layer::Layer;
use crate::network::{Block, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Glorot initialization draws uniformly in ±sqrt(6/(fan_in+fan_out)).
fn glorot_limit(fan_in: usize, fan_out: usize) -> f32 {
    (6.0 / (fan_in + fan_out) as f64).sqrt() as f32
}

fn conv(
    rng: &mut StdRng,
    c_in: usize,
    c_out: usize,
    k: usize,
    stride: usize,
    padding: usize,
) -> Layer {
    let fan_in = c_in * k * k;
    let limit = glorot_limit(fan_in, c_out);
    Layer::Conv2d {
        weights: (0..c_out * fan_in)
            .map(|_| rng.gen_range(-limit..limit))
            .collect(),
        bias: vec![0.0; c_out],
        c_out,
        kh: k,
        kw: k,
        stride,
        padding,
    }
}

/// The weights are drawn output by output (what a seed means predates
/// the input-major layout) and stored input-major. They are 4 MB for
/// CIFAR-10's first dense layer and every hub builds one at set-up, so
/// there is no second matrix to transpose from: the draws of `STAGE`
/// outputs are staged input-major in a side buffer and go out as one
/// `STAGE`-float run per row of the weights.
fn dense(rng: &mut StdRng, input: usize, out: usize) -> Layer {
    const STAGE: usize = 32;
    let limit = glorot_limit(input, out);
    let mut weights = vec![0.0f32; input * out];
    let mut stage = vec![0.0f32; input * STAGE];
    for o in (0..out).step_by(STAGE) {
        let width = STAGE.min(out - o);
        for r in 0..width {
            for run in stage.chunks_exact_mut(STAGE) {
                run[r] = rng.gen_range(-limit..limit);
            }
        }
        let runs = stage.as_chunks::<STAGE>().0;
        for (row, run) in weights.chunks_exact_mut(out).zip(runs) {
            match <&mut [f32; STAGE]>::try_from(&mut row[o..o + width]) {
                // A vector move. A copy of run-time length is a call to
                // `memcpy` per run, tens of thousands for the 4 MB
                // layer: measured at a fifth of its construction.
                Ok(full) => *full = *run,
                Err(_) => row[o..o + width].copy_from_slice(&run[..width]),
            }
        }
    }
    Layer::Dense {
        weights,
        bias: vec![0.0; out],
        out,
        input,
    }
}

fn batchnorm(rng: &mut StdRng, c: usize) -> Layer {
    Layer::BatchNorm {
        gamma: (0..c).map(|_| rng.gen_range(0.8..1.2)).collect(),
        beta: vec![0.0; c],
        mean: vec![0.0; c],
        var: vec![1.0; c],
    }
}

/// An Inception module: four parallel branches (1×1, 1×1→5×5,
/// 1×1→3×3→3×3, 3×3 pool-proxy) concatenated along channels, exactly
/// the Inception-A topology with the average-pool branch realized as a
/// stride-1 padded convolution.
#[allow(clippy::too_many_arguments)] // mirrors the module's 7 channel widths
fn inception_module(
    rng: &mut StdRng,
    c_in: usize,
    b1: usize,
    b2_mid: usize,
    b2: usize,
    b3_mid: usize,
    b3: usize,
    b4: usize,
) -> Block {
    Block::Branches(vec![
        vec![conv(rng, c_in, b1, 1, 1, 0), Layer::ReLU],
        vec![
            conv(rng, c_in, b2_mid, 1, 1, 0),
            Layer::ReLU,
            conv(rng, b2_mid, b2, 5, 1, 2),
            Layer::ReLU,
        ],
        vec![
            conv(rng, c_in, b3_mid, 1, 1, 0),
            Layer::ReLU,
            conv(rng, b3_mid, b3, 3, 1, 1),
            Layer::ReLU,
            conv(rng, b3, b3, 3, 1, 1),
            Layer::ReLU,
        ],
        vec![conv(rng, c_in, b4, 3, 1, 1), Layer::ReLU],
    ])
}

/// Input shape of [`inception`].
pub const INCEPTION_INPUT: [usize; 3] = [3, 149, 149];
/// Number of classes of [`inception`] (ImageNet-style).
pub const INCEPTION_CLASSES: usize = 1000;

/// Build the Inception-v3-shaped classifier ("Google's 22-layer
/// Inception-v3 model … classifies images into 1000 categories",
/// §V-A). Deterministic for a given `seed`.
pub fn inception(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    // Stem: conv s2, conv, conv, pool — 149 -> 74 -> 36.
    let mut blocks = vec![Block::Seq(vec![
        conv(&mut rng, 3, 16, 3, 2, 0), // 16 x 74 x 74
        batchnorm(&mut rng, 16),
        Layer::ReLU,
        conv(&mut rng, 16, 24, 3, 1, 1),
        batchnorm(&mut rng, 24),
        Layer::ReLU,
        Layer::MaxPool { size: 3, stride: 2 }, // 24 x 36 x 36
        conv(&mut rng, 24, 40, 1, 1, 0),
        Layer::ReLU,
        conv(&mut rng, 40, 96, 3, 1, 1),
        batchnorm(&mut rng, 96),
        Layer::ReLU,
        Layer::MaxPool { size: 3, stride: 2 }, // 96 x 17 x 17
    ])];
    // Three Inception-A-style modules at 17x17.
    blocks.push(inception_module(&mut rng, 96, 32, 24, 32, 32, 48, 16)); // -> 128
    blocks.push(inception_module(&mut rng, 128, 32, 24, 32, 32, 48, 16)); // -> 128
    blocks.push(inception_module(&mut rng, 128, 48, 32, 48, 40, 64, 32)); // -> 192
                                                                          // Reduction + one module at 8x8.
    blocks.push(Block::Seq(vec![Layer::MaxPool { size: 3, stride: 2 }])); // 192 x 8 x 8
    blocks.push(inception_module(&mut rng, 192, 64, 48, 64, 48, 96, 32)); // -> 256
                                                                          // Head.
    blocks.push(Block::Seq(vec![
        Layer::GlobalAvgPool,
        dense(&mut rng, 256, INCEPTION_CLASSES),
        Layer::Softmax,
    ]));
    Network::new("inception-v3", INCEPTION_INPUT.to_vec(), blocks)
}

/// Input shape of [`cifar10`].
pub const CIFAR10_INPUT: [usize; 3] = [3, 32, 32];
/// Number of classes of [`cifar10`].
pub const CIFAR10_CLASSES: usize = 10;

/// Build the multi-layer CIFAR-10 CNN ("a multi-layer convolutional
/// neural network trained on CIFAR-10 … classifies [32×32 RGB images]
/// in 10 categories", §V-A). Deterministic for a given `seed`.
pub fn cifar10(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let blocks = vec![Block::Seq(vec![
        conv(&mut rng, 3, 32, 3, 1, 1),
        Layer::ReLU,
        conv(&mut rng, 32, 32, 3, 1, 1),
        Layer::ReLU,
        Layer::MaxPool { size: 2, stride: 2 }, // 32 x 16 x 16
        conv(&mut rng, 32, 64, 3, 1, 1),
        Layer::ReLU,
        Layer::MaxPool { size: 2, stride: 2 }, // 64 x 8 x 8
        Layer::Flatten,
        dense(&mut rng, 64 * 8 * 8, 256),
        Layer::ReLU,
        dense(&mut rng, 256, CIFAR10_CLASSES),
        Layer::Softmax,
    ])];
    Network::new("cifar10-cnn", CIFAR10_INPUT.to_vec(), blocks)
}

/// Deterministic synthetic input image for a network, varying with
/// `variant` so memoization tests can generate distinct inputs.
pub fn synthetic_image(shape: &[usize], variant: u64) -> crate::tensor::Tensor {
    let mut rng = StdRng::seed_from_u64(0x1_0000 + variant);
    let len = shape.iter().product();
    let data = (0..len).map(|_| rng.gen_range(0.0f32..1.0)).collect();
    crate::tensor::Tensor::new(shape.to_vec(), data).expect("synthetic image shape")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inception_output_is_a_distribution_over_1000() {
        let net = inception(7);
        let img = synthetic_image(&INCEPTION_INPUT, 0);
        let out = net.forward(img);
        assert_eq!(out.shape(), &[1000]);
        assert!((out.data().iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn cifar10_output_is_a_distribution_over_10() {
        let net = cifar10(7);
        let out = net.forward(synthetic_image(&CIFAR10_INPUT, 0));
        assert_eq!(out.shape(), &[10]);
        assert!((out.data().iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn models_are_deterministic_in_seed() {
        let a = inception(3).forward(synthetic_image(&INCEPTION_INPUT, 1));
        let b = inception(3).forward(synthetic_image(&INCEPTION_INPUT, 1));
        assert_eq!(a, b);
        let c = inception(4).forward(synthetic_image(&INCEPTION_INPUT, 1));
        assert_ne!(a, c);
    }

    #[test]
    fn inception_is_much_bigger_than_cifar10() {
        let big = inception(1);
        let small = cifar10(1);
        assert!(big.layer_count() > small.layer_count());
        // The paper calls Inception a 22-layer network; ours counts
        // every op but the weighted depth is comparable.
        assert!(big.layer_count() >= 22);
    }

    #[test]
    fn synthetic_images_vary_with_variant() {
        let a = synthetic_image(&CIFAR10_INPUT, 0);
        let b = synthetic_image(&CIFAR10_INPUT, 1);
        assert_ne!(a, b);
        assert_eq!(a, synthetic_image(&CIFAR10_INPUT, 0));
    }
}

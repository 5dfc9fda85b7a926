//! Networks: sequences of blocks, where a block is either a stack of
//! layers or parallel branches concatenated along channels (the
//! Inception module pattern).

use crate::layer::Layer;
use crate::ops::concat_channels;
use crate::tensor::Tensor;

/// A network building block.
#[derive(Debug, Clone)]
pub enum Block {
    /// Sequential layers.
    Seq(Vec<Layer>),
    /// Parallel branches whose CHW outputs are concatenated along the
    /// channel axis — the Inception module structure.
    Branches(Vec<Vec<Layer>>),
}

impl Block {
    fn forward(&self, input: Tensor) -> Tensor {
        match self {
            Block::Seq(layers) => layers.iter().fold(input, |t, l| l.forward(t)),
            Block::Branches(branches) => {
                let outputs: Vec<Tensor> = branches
                    .iter()
                    .map(|branch| branch.iter().fold(input.clone(), |t, l| l.forward(t)))
                    .collect();
                concat_channels(&outputs)
            }
        }
    }

    fn param_count(&self) -> usize {
        match self {
            Block::Seq(layers) => layers.iter().map(Layer::param_count).sum(),
            Block::Branches(branches) => branches
                .iter()
                .flat_map(|b| b.iter())
                .map(Layer::param_count)
                .sum(),
        }
    }

    /// Output shape and multiply-adds for an input of shape `input`.
    fn shape_and_mul_adds(&self, input: &[usize]) -> (Vec<usize>, usize) {
        let through = |layers: &[Layer]| {
            layers
                .iter()
                .fold((input.to_vec(), 0), |(shape, total), l| {
                    let (shape, spent) = l.shape_and_mul_adds(&shape);
                    (shape, total + spent)
                })
        };
        match self {
            Block::Seq(layers) => through(layers),
            Block::Branches(branches) => {
                let outputs: Vec<_> = branches.iter().map(|b| through(b)).collect();
                let channels = outputs.iter().map(|(shape, _)| shape[0]).sum();
                let total = outputs.iter().map(|(_, spent)| spent).sum();
                (vec![channels, outputs[0].0[1], outputs[0].0[2]], total)
            }
        }
    }

    fn layer_count(&self) -> usize {
        match self {
            Block::Seq(layers) => layers.len(),
            Block::Branches(branches) => branches.iter().map(|b| b.len()).sum(),
        }
    }
}

/// A feed-forward network.
#[derive(Debug, Clone)]
pub struct Network {
    /// Name used by metadata and diagnostics.
    pub name: String,
    /// Expected input shape (CHW for images).
    pub input_shape: Vec<usize>,
    blocks: Vec<Block>,
}

impl Network {
    /// Assemble a network.
    pub fn new(name: impl Into<String>, input_shape: Vec<usize>, blocks: Vec<Block>) -> Self {
        Network {
            name: name.into(),
            input_shape,
            blocks,
        }
    }

    /// Run inference. Panics if the input shape mismatches (the serving
    /// layer validates shapes before dispatch).
    pub fn forward(&self, input: Tensor) -> Tensor {
        assert_eq!(
            input.shape(),
            &self.input_shape[..],
            "input shape mismatch for {}",
            self.name
        );
        self.blocks.iter().fold(input, |t, b| b.forward(t))
    }

    /// Total learned parameters.
    pub fn param_count(&self) -> usize {
        self.blocks.iter().map(Block::param_count).sum()
    }

    /// Multiply-adds of one [`Network::forward`] in its convolution
    /// and dense layers (twice this is the FLOP count benchmarks quote).
    pub fn mul_adds(&self) -> usize {
        let start = (self.input_shape.clone(), 0);
        let (_, total) = self.blocks.iter().fold(start, |(shape, total), b| {
            let (shape, spent) = b.shape_and_mul_adds(&shape);
            (shape, total + spent)
        });
        total
    }

    /// Total layers across all blocks and branches.
    pub fn layer_count(&self) -> usize {
        self.blocks.iter().map(Block::layer_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_net() -> Network {
        Network::new(
            "tiny",
            vec![1, 4, 4],
            vec![
                Block::Seq(vec![
                    Layer::Conv2d {
                        weights: vec![1.0; 4],
                        bias: vec![0.0],
                        c_out: 1,
                        kh: 2,
                        kw: 2,
                        stride: 2,
                        padding: 0,
                    },
                    Layer::ReLU,
                    Layer::Flatten,
                ]),
                Block::Seq(vec![Layer::Softmax]),
            ],
        )
    }

    #[test]
    fn forward_produces_expected_shape() {
        let net = tiny_net();
        let out = net.forward(Tensor::zeros(vec![1, 4, 4]));
        assert_eq!(out.shape(), &[4]);
        assert!((out.data().iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "input shape mismatch")]
    fn forward_rejects_wrong_shape() {
        tiny_net().forward(Tensor::zeros(vec![1, 3, 3]));
    }

    #[test]
    fn branches_concatenate_channels() {
        let branch = |scale: f32| {
            vec![Layer::Conv2d {
                weights: vec![scale],
                bias: vec![0.0],
                c_out: 1,
                kh: 1,
                kw: 1,
                stride: 1,
                padding: 0,
            }]
        };
        let net = Network::new(
            "branchy",
            vec![1, 2, 2],
            vec![Block::Branches(vec![branch(1.0), branch(2.0)])],
        );
        let out = net.forward(Tensor::new(vec![1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap());
        assert_eq!(out.shape(), &[2, 2, 2]);
        assert_eq!(out.data(), &[1.0, 2.0, 3.0, 4.0, 2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn mul_adds_follow_the_shapes() {
        // tiny_net: one 2x2 stride-2 conv over 1x4x4 -> 4 outputs of 4 taps.
        assert_eq!(tiny_net().mul_adds(), 16);
        // The CIFAR-10 CNN's three convolutions and two dense layers.
        assert_eq!(
            crate::models::cifar10(1).mul_adds(),
            32 * 27 * 1024 + 32 * 288 * 1024 + 64 * 288 * 256 + 256 * 4096 + 10 * 256
        );
    }

    #[test]
    fn param_and_layer_counts() {
        let net = tiny_net();
        assert_eq!(net.param_count(), 5);
        assert_eq!(net.layer_count(), 4);
    }
}

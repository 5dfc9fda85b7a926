//! Networks: sequences of blocks, where a block is either a stack of
//! layers or parallel branches concatenated along channels (the
//! Inception module pattern).

use crate::layer::Layer;
use crate::ops::{batchnorm_affine, concat_channels, Kernel, Pool, Tail};
use crate::tensor::Tensor;
use std::ops::Range;

/// A network building block.
#[derive(Debug, Clone)]
pub enum Block {
    /// Sequential layers.
    Seq(Vec<Layer>),
    /// Parallel branches whose CHW outputs are concatenated along the
    /// channel axis — the Inception module structure.
    Branches(Vec<Vec<Layer>>),
}

/// A [`Block`] with each of its layer stacks compiled.
#[derive(Debug, Clone)]
enum Compiled {
    Seq(Stack),
    Branches(Vec<Stack>),
}

/// A layer stack and the passes its forward makes over an activation.
#[derive(Debug, Clone)]
struct Stack {
    layers: Vec<Layer>,
    stages: Vec<Stage>,
}

/// One pass: a layer, or a convolution and the layers its store
/// finishes on the tile.
#[derive(Debug, Clone)]
struct Stage {
    /// The stack's layers this pass stands for; the first one runs it.
    layers: Range<usize>,
    /// What the first layer, a convolution, finishes its output with:
    /// the rest of `layers`.
    tail: Tail,
}

impl Stack {
    /// Compile `layers`: a `Conv2d` absorbs a `BatchNorm`, then a
    /// `ReLU`, then a `MaxPool` or `AvgPool`, each if it comes next.
    fn new(layers: Vec<Layer>) -> Self {
        let mut stages = Vec::new();
        let mut at = 0;
        while at < layers.len() {
            let mut tail = Tail::default();
            let mut next = at + 1;
            if let Layer::Conv2d { .. } = layers[at] {
                if let Some(Layer::BatchNorm {
                    gamma,
                    beta,
                    mean,
                    var,
                }) = layers.get(next)
                {
                    let channels = (0..gamma.len())
                        .map(|ch| batchnorm_affine(gamma[ch], beta[ch], mean[ch], var[ch]));
                    tail.affine = Some(channels.unzip());
                    next += 1;
                }
                if let Some(Layer::ReLU) = layers.get(next) {
                    tail.relu = true;
                    next += 1;
                }
                tail.pool = match layers.get(next) {
                    Some(&Layer::MaxPool { size, stride }) => Some(Pool {
                        size,
                        stride,
                        mean: false,
                    }),
                    Some(&Layer::AvgPool { size, stride }) => Some(Pool {
                        size,
                        stride,
                        mean: true,
                    }),
                    _ => None,
                };
                next += usize::from(tail.pool.is_some());
            }
            stages.push(Stage {
                layers: at..next,
                tail,
            });
            at = next;
        }
        Stack { layers, stages }
    }

    fn forward(&self, input: Tensor, kernel: Kernel) -> Tensor {
        self.stages.iter().fold(input, |t, stage| {
            self.layers[stage.layers.start].forward_on(t, kernel, &stage.tail)
        })
    }

    /// Output shape and multiply-adds for an input of shape `input`.
    fn shape_and_mul_adds(&self, input: &[usize]) -> (Vec<usize>, usize) {
        self.layers
            .iter()
            .fold((input.to_vec(), 0), |(shape, total), l| {
                let (shape, spent) = l.shape_and_mul_adds(&shape);
                (shape, total + spent)
            })
    }

    fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }
}

impl Compiled {
    fn new(block: Block) -> Self {
        match block {
            Block::Seq(layers) => Compiled::Seq(Stack::new(layers)),
            Block::Branches(branches) => {
                Compiled::Branches(branches.into_iter().map(Stack::new).collect())
            }
        }
    }

    fn stacks(&self) -> &[Stack] {
        match self {
            Compiled::Seq(stack) => std::slice::from_ref(stack),
            Compiled::Branches(branches) => branches,
        }
    }

    fn forward(&self, input: Tensor, kernel: Kernel) -> Tensor {
        match self {
            Compiled::Seq(stack) => stack.forward(input, kernel),
            Compiled::Branches(branches) => {
                let outputs: Vec<Tensor> = branches
                    .iter()
                    .map(|branch| branch.forward(input.clone(), kernel))
                    .collect();
                concat_channels(&outputs)
            }
        }
    }

    /// Output shape and multiply-adds for an input of shape `input`.
    fn shape_and_mul_adds(&self, input: &[usize]) -> (Vec<usize>, usize) {
        match self {
            Compiled::Seq(stack) => stack.shape_and_mul_adds(input),
            Compiled::Branches(branches) => {
                let outputs: Vec<_> = branches
                    .iter()
                    .map(|b| b.shape_and_mul_adds(input))
                    .collect();
                let channels = outputs.iter().map(|(shape, _)| shape[0]).sum();
                let total = outputs.iter().map(|(_, spent)| spent).sum();
                (vec![channels, outputs[0].0[1], outputs[0].0[2]], total)
            }
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
    blocks: Vec<Compiled>,
}

impl Network {
    /// Assemble a network, compiling each layer stack (a `Seq` block or
    /// one branch) once into the passes its forward makes: a `Conv2d`
    /// and the `BatchNorm`, `ReLU` and `MaxPool`/`AvgPool` after it
    /// are one pass that writes only its last layer's output, with the
    /// bits of running the layers one by one.
    pub fn new(name: impl Into<String>, input_shape: Vec<usize>, blocks: Vec<Block>) -> Self {
        Network {
            name: name.into(),
            input_shape,
            blocks: blocks.into_iter().map(Compiled::new).collect(),
        }
    }

    /// Run inference. Panics if the input shape mismatches (the serving
    /// layer validates shapes before dispatch).
    pub fn forward(&self, input: Tensor) -> Tensor {
        self.forward_on(input, Kernel::widest())
    }

    /// [`Network::forward`] on `kernel`'s GEMM and dense kernels, which
    /// give the same bits as every other kernel. It exists only so tests
    /// can force each instantiation; serving calls `forward`. Panics if
    /// the CPU cannot run `kernel`.
    #[doc(hidden)]
    pub fn forward_on(&self, input: Tensor, kernel: Kernel) -> Tensor {
        assert_eq!(
            input.shape(),
            &self.input_shape[..],
            "input shape mismatch for {}",
            self.name
        );
        self.blocks.iter().fold(input, |t, b| b.forward(t, kernel))
    }

    /// Total learned parameters.
    pub fn param_count(&self) -> usize {
        self.stacks().map(Stack::param_count).sum()
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
        self.stacks().map(|stack| stack.layers.len()).sum()
    }

    fn stacks(&self) -> impl Iterator<Item = &Stack> {
        self.blocks.iter().flat_map(Compiled::stacks)
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

    /// Each stack's passes, a pass named from its first layer and its
    /// tail, after checking the pass spans exactly the layers it names.
    fn passes(net: &Network) -> Vec<Vec<String>> {
        let passes = |stack: &Stack| -> Vec<String> {
            let name = |stage: &Stage| {
                let tail = &stage.tail;
                let mut name = match &stack.layers[stage.layers.start] {
                    Layer::Conv2d { .. } => "conv",
                    Layer::MaxPool { .. } => "maxpool",
                    Layer::GlobalAvgPool => "gap",
                    Layer::Dense { .. } => "dense",
                    Layer::ReLU => "relu",
                    Layer::Softmax => "softmax",
                    Layer::Flatten => "flatten",
                    other => panic!("no model has a pass starting {other:?}"),
                }
                .to_string();
                if tail.affine.is_some() {
                    name += "+bn";
                }
                if tail.relu {
                    name += "+relu";
                }
                if let Some(Pool { size, stride, mean }) = tail.pool {
                    let kind = if mean { "avg" } else { "max" };
                    name += &format!("+{kind}{size}/{stride}");
                }
                let absorbed = [tail.affine.is_some(), tail.relu, tail.pool.is_some()];
                let count = 1 + absorbed.iter().filter(|&&a| a).count();
                assert_eq!(stage.layers.len(), count, "{name}");
                name
            };
            stack.stages.iter().map(name).collect()
        };
        net.stacks().map(passes).collect()
    }

    #[test]
    fn the_models_compile_each_convolution_with_the_layers_after_it() {
        let cifar: Vec<String> = [
            "conv+relu",
            "conv+relu+max2/2",
            "conv+relu+max2/2",
            "flatten",
            "dense",
            "relu",
            "dense",
            "softmax",
        ]
        .map(String::from)
        .into();
        assert_eq!(passes(&crate::models::cifar10(7)), vec![cifar]);

        let seq = |names: &[&str]| names.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        let module = [
            seq(&["conv+relu"]),
            seq(&["conv+relu", "conv+relu"]),
            seq(&["conv+relu", "conv+relu", "conv+relu"]),
            seq(&["conv+relu"]),
        ];
        let mut inception = vec![seq(&[
            "conv+bn+relu",
            "conv+bn+relu+max3/2",
            "conv+relu",
            "conv+bn+relu+max3/2",
        ])];
        inception.extend(module.iter().cloned().cycle().take(3 * module.len()));
        inception.push(seq(&["maxpool"]));
        inception.extend(module.iter().cloned());
        inception.push(seq(&["gap", "dense", "softmax"]));
        assert_eq!(passes(&crate::models::inception(7)), inception);
    }

    #[test]
    fn param_and_layer_counts() {
        let net = tiny_net();
        assert_eq!(net.param_count(), 5);
        assert_eq!(net.layer_count(), 4);
    }
}

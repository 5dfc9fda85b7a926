//! Layer definitions.

use crate::ops::{self, Conv, Kernel, Tail};
use crate::tensor::Tensor;

/// One network layer. Weights are owned inline; networks are built
/// once and shared behind `Arc` by the serving stack.
#[derive(Debug, Clone)]
pub enum Layer {
    /// 2-D convolution: `weights` is `c_out × (c_in*kh*kw)` row-major.
    Conv2d {
        /// Filter bank.
        weights: Vec<f32>,
        /// Per-output-channel bias.
        bias: Vec<f32>,
        /// Output channels.
        c_out: usize,
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
    },
    /// Max pooling.
    MaxPool {
        /// Window size.
        size: usize,
        /// Stride.
        stride: usize,
    },
    /// Average pooling.
    AvgPool {
        /// Window size.
        size: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling (CHW → C).
    GlobalAvgPool,
    /// Fully connected: `weights` is `input × out` row-major, the `W` of
    /// `y = x·W + bias` (row `i` holds what input `i` sends to each
    /// output), so [`ops::dense`] reads whole rows.
    Dense {
        /// Weight matrix.
        weights: Vec<f32>,
        /// Bias vector.
        bias: Vec<f32>,
        /// Output width.
        out: usize,
        /// Input width.
        input: usize,
    },
    /// Rectified linear activation.
    ReLU,
    /// Softmax over a 1-D tensor.
    Softmax,
    /// Inference-mode batch normalization (per CHW channel).
    BatchNorm {
        /// Scale.
        gamma: Vec<f32>,
        /// Shift.
        beta: Vec<f32>,
        /// Running mean.
        mean: Vec<f32>,
        /// Running variance.
        var: Vec<f32>,
    },
    /// Flatten CHW to a vector.
    Flatten,
}

impl Layer {
    /// Apply the layer.
    pub fn forward(&self, input: Tensor) -> Tensor {
        self.forward_on(input, Kernel::widest(), &Tail::default())
    }

    /// Apply the layer on `kernel`'s GEMM and dense kernels. A `Conv2d`
    /// finishes its output with `tail` as it stores it; every other
    /// layer is given the empty tail.
    pub(crate) fn forward_on(&self, input: Tensor, kernel: Kernel, tail: &Tail) -> Tensor {
        match self {
            Layer::Conv2d {
                weights,
                bias,
                c_out,
                kh,
                kw,
                stride,
                padding,
            } => Conv {
                weights,
                bias,
                c_out: *c_out,
                kh: *kh,
                kw: *kw,
                stride: *stride,
                padding: *padding,
            }
            .run(&input, tail, kernel),
            Layer::MaxPool { size, stride } => ops::maxpool2d(&input, *size, *stride),
            Layer::AvgPool { size, stride } => ops::avgpool2d(&input, *size, *stride),
            Layer::GlobalAvgPool => ops::global_avgpool(&input),
            Layer::Dense {
                weights,
                bias,
                out,
                input: in_w,
            } => {
                let x = input.data();
                assert_eq!(x.len(), *in_w, "dense input width mismatch");
                assert_eq!(bias.len(), *out, "dense bias width mismatch");
                Tensor::from_vec(ops::dense_on(weights, x, bias, kernel))
            }
            Layer::ReLU => {
                let mut t = input;
                ops::relu(&mut t);
                t
            }
            Layer::Softmax => {
                let mut t = input;
                ops::softmax(&mut t);
                t
            }
            Layer::BatchNorm {
                gamma,
                beta,
                mean,
                var,
            } => {
                let mut t = input;
                ops::batchnorm(&mut t, gamma, beta, mean, var);
                t
            }
            Layer::Flatten => {
                let len = input.len();
                input.reshape(vec![len]).expect("flatten preserves length")
            }
        }
    }

    /// The shape [`Layer::forward`] gives an input of shape `input`,
    /// and the multiply-adds it spends on it (convolution and dense
    /// layers; everything else counts as free).
    pub(crate) fn shape_and_mul_adds(&self, input: &[usize]) -> (Vec<usize>, usize) {
        match self {
            Layer::Conv2d {
                c_out,
                kh,
                kw,
                stride,
                padding,
                ..
            } => {
                let oh = ops::windows(input[1], *kh, *stride, *padding);
                let ow = ops::windows(input[2], *kw, *stride, *padding);
                (vec![*c_out, oh, ow], c_out * input[0] * kh * kw * oh * ow)
            }
            Layer::MaxPool { size, stride } | Layer::AvgPool { size, stride } => {
                let side = |dim| ops::windows(dim, *size, *stride, 0);
                (vec![input[0], side(input[1]), side(input[2])], 0)
            }
            Layer::GlobalAvgPool => (vec![input[0]], 0),
            Layer::Dense {
                out, input: in_w, ..
            } => (vec![*out], out * in_w),
            Layer::Flatten => (vec![input.iter().product()], 0),
            Layer::ReLU | Layer::Softmax | Layer::BatchNorm { .. } => (input.to_vec(), 0),
        }
    }

    /// Number of learned parameters in the layer.
    pub fn param_count(&self) -> usize {
        match self {
            Layer::Conv2d { weights, bias, .. } | Layer::Dense { weights, bias, .. } => {
                weights.len() + bias.len()
            }
            Layer::BatchNorm { gamma, .. } => gamma.len() * 4,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_layer_applies_bias() {
        // Input 0 feeds both outputs, input 1 only the second: the
        // out-major reading of the same four numbers gives [21, 24].
        let layer = Layer::Dense {
            weights: vec![1.0, 2.0, 0.0, 1.0],
            bias: vec![10.0, 20.0],
            out: 2,
            input: 2,
        };
        let y = layer.forward(Tensor::from_vec(vec![3.0, 4.0]));
        assert_eq!(y.data(), &[13.0, 30.0]);
    }

    #[test]
    fn flatten_reshapes() {
        let t = Tensor::zeros(vec![2, 3, 4]);
        let y = Layer::Flatten.forward(t);
        assert_eq!(y.shape(), &[24]);
    }

    #[test]
    fn param_counts() {
        let conv = Layer::Conv2d {
            weights: vec![0.0; 27],
            bias: vec![0.0; 3],
            c_out: 3,
            kh: 3,
            kw: 3,
            stride: 1,
            padding: 0,
        };
        assert_eq!(conv.param_count(), 30);
        assert_eq!(Layer::ReLU.param_count(), 0);
        let bn = Layer::BatchNorm {
            gamma: vec![1.0; 8],
            beta: vec![0.0; 8],
            mean: vec![0.0; 8],
            var: vec![1.0; 8],
        };
        assert_eq!(bn.param_count(), 32);
    }
}

//! Training: backpropagation and SGD for sequential networks.
//!
//! DLHub itself does not train (Table II), but the ecosystem around it
//! does: SageMaker "supports both the training of models and the
//! deployment of trained models", and the paper's intro lists
//! "seamless retraining and redeployment of models as new data are
//! available" among the needs DLHub serves (§I). This module provides
//! the substrate: explicit backward passes for the layer types the
//! CIFAR-10 CNN uses (convolution via im2col/col2im, dense, ReLU, max
//! pooling, flatten) with minibatch SGD + momentum and a softmax
//! cross-entropy loss. Inception-style branch blocks and batch norm
//! are inference-only (the paper never retrains Inception either).
//!
//! Gradients are verified against central finite differences in the
//! test suite.

use crate::layer::Layer;
use crate::network::{Block, Network};
use crate::ops;
use crate::par;
use crate::tensor::Tensor;

/// Per-layer cache recorded during the training forward pass.
enum Cache {
    /// Input to a conv layer (im2col is recomputed in backward).
    Conv { input: Tensor },
    /// Input to a dense layer.
    Dense { input: Tensor },
    /// Mask of positive activations.
    ReLU { mask: Vec<bool> },
    /// Input shape plus flat argmax index per output cell.
    MaxPool {
        input_shape: Vec<usize>,
        argmax: Vec<usize>,
    },
    /// Original shape before flattening.
    Flatten { shape: Vec<usize> },
}

/// Gradients for one layer (empty for parameter-free layers).
#[derive(Debug, Clone)]
pub struct LayerGrads {
    /// Weight gradient, matching the layer's weight layout.
    pub weights: Vec<f32>,
    /// Bias gradient.
    pub bias: Vec<f32>,
}

impl LayerGrads {
    fn empty() -> Self {
        LayerGrads {
            weights: Vec::new(),
            bias: Vec::new(),
        }
    }

    fn zeros_like(layer: &Layer) -> Self {
        match layer {
            Layer::Conv2d { weights, bias, .. } | Layer::Dense { weights, bias, .. } => {
                LayerGrads {
                    weights: vec![0.0; weights.len()],
                    bias: vec![0.0; bias.len()],
                }
            }
            _ => LayerGrads::empty(),
        }
    }

    fn accumulate(&mut self, other: &LayerGrads) {
        for (a, b) in self.weights.iter_mut().zip(&other.weights) {
            *a += b;
        }
        for (a, b) in self.bias.iter_mut().zip(&other.bias) {
            *a += b;
        }
    }

    fn scale(&mut self, factor: f32) {
        for v in &mut self.weights {
            *v *= factor;
        }
        for v in &mut self.bias {
            *v *= factor;
        }
    }
}

/// Errors from training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// The network contains a layer with no backward implementation.
    Unsupported(&'static str),
    /// Input/label counts differ or are empty.
    BadDataset(String),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Unsupported(layer) => {
                write!(f, "no backward pass for layer type {layer}")
            }
            TrainError::BadDataset(m) => write!(f, "bad dataset: {m}"),
        }
    }
}

impl std::error::Error for TrainError {}

/// A trainable sequential network: layers + SGD momentum state.
pub struct Trainable {
    /// Expected input shape.
    pub input_shape: Vec<usize>,
    layers: Vec<Layer>,
    velocity: Vec<LayerGrads>,
}

impl Trainable {
    /// Build from layers, rejecting types without a backward pass.
    pub fn new(input_shape: Vec<usize>, layers: Vec<Layer>) -> Result<Self, TrainError> {
        for layer in &layers {
            match layer {
                Layer::Conv2d { .. }
                | Layer::Dense { .. }
                | Layer::ReLU
                | Layer::MaxPool { .. }
                | Layer::Flatten => {}
                Layer::Softmax => {
                    return Err(TrainError::Unsupported(
                        "Softmax (the loss applies it; end the network at logits)",
                    ))
                }
                Layer::BatchNorm { .. } => return Err(TrainError::Unsupported("BatchNorm")),
                Layer::AvgPool { .. } => return Err(TrainError::Unsupported("AvgPool")),
                Layer::GlobalAvgPool => return Err(TrainError::Unsupported("GlobalAvgPool")),
            }
        }
        let velocity = layers.iter().map(LayerGrads::zeros_like).collect();
        Ok(Trainable {
            input_shape,
            layers,
            velocity,
        })
    }

    /// Forward pass producing logits (no softmax).
    pub fn logits(&self, input: Tensor) -> Tensor {
        self.layers.iter().fold(input, |t, l| l.forward(t))
    }

    /// Forward pass that also records per-layer caches for backward.
    fn forward_train(&self, input: Tensor) -> (Tensor, Vec<Cache>) {
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut current = input;
        for layer in &self.layers {
            match layer {
                Layer::Conv2d { .. } => {
                    caches.push(Cache::Conv {
                        input: current.clone(),
                    });
                    current = layer.forward(current);
                }
                Layer::Dense { .. } => {
                    caches.push(Cache::Dense {
                        input: current.clone(),
                    });
                    current = layer.forward(current);
                }
                Layer::ReLU => {
                    let mask: Vec<bool> = current.data().iter().map(|v| *v > 0.0).collect();
                    caches.push(Cache::ReLU { mask });
                    current = layer.forward(current);
                }
                Layer::MaxPool { size, stride } => {
                    let (pooled, argmax) = maxpool_with_argmax(&current, *size, *stride);
                    caches.push(Cache::MaxPool {
                        input_shape: current.shape().to_vec(),
                        argmax,
                    });
                    current = pooled;
                }
                Layer::Flatten => {
                    caches.push(Cache::Flatten {
                        shape: current.shape().to_vec(),
                    });
                    current = layer.forward(current);
                }
                _ => unreachable!("rejected in new()"),
            }
        }
        (current, caches)
    }

    /// Backward pass from `dlogits`, producing per-layer gradients.
    fn backward(&self, caches: &[Cache], dlogits: Tensor) -> Vec<LayerGrads> {
        let mut grads: Vec<LayerGrads> = self.layers.iter().map(LayerGrads::zeros_like).collect();
        let mut dy = dlogits;
        for (idx, layer) in self.layers.iter().enumerate().rev() {
            match (layer, &caches[idx]) {
                (
                    Layer::Dense {
                        weights,
                        out,
                        input: in_w,
                        ..
                    },
                    Cache::Dense { input },
                ) => {
                    let x = input.data();
                    let dy_v = dy.data();
                    let g = &mut grads[idx];
                    // dW[i][o] = x[i] * dy[o]; db = dy; dx[i] = Σₒ dy[o] * W[i][o],
                    // `o` ascending from 0.0.
                    for (gb, d) in g.bias.iter_mut().zip(dy_v) {
                        *gb += d;
                    }
                    let mut dx = vec![0.0f32; *in_w];
                    let rows = g.weights.chunks_exact_mut(*out);
                    for ((g_row, w_row), (xv, dxv)) in rows
                        .zip(weights.chunks_exact(*out))
                        .zip(x.iter().zip(&mut dx))
                    {
                        for ((gw, wv), d) in g_row.iter_mut().zip(w_row).zip(dy_v) {
                            *gw += d * xv;
                            *dxv += d * wv;
                        }
                    }
                    dy = Tensor::from_vec(dx)
                        .reshape(input.shape().to_vec())
                        .expect("dense dx shape");
                }
                (
                    Layer::Conv2d {
                        weights,
                        c_out,
                        kh,
                        kw,
                        stride,
                        padding,
                        ..
                    },
                    Cache::Conv { input },
                ) => {
                    let c_in = input.shape()[0];
                    let (cols, oh, ow) = ops::im2col(input, *kh, *kw, *stride, *padding);
                    let k = c_in * kh * kw;
                    let n = oh * ow;
                    let dy_mat = dy.data(); // c_out x n
                    let g = &mut grads[idx];
                    // dW = dY · cols^T  (c_out x k)
                    for co in 0..*c_out {
                        let dy_row = &dy_mat[co * n..(co + 1) * n];
                        g.bias[co] += dy_row.iter().sum::<f32>();
                        for p in 0..k {
                            let col_row = &cols[p * n..(p + 1) * n];
                            let mut acc = 0.0;
                            for (d, c) in dy_row.iter().zip(col_row) {
                                acc += d * c;
                            }
                            g.weights[co * k + p] += acc;
                        }
                    }
                    // dcols = W^T · dY  (k x n), then col2im -> dx.
                    let mut dcols = vec![0.0f32; k * n];
                    for co in 0..*c_out {
                        let dy_row = &dy_mat[co * n..(co + 1) * n];
                        let w_row = &weights[co * k..(co + 1) * k];
                        for (p, wv) in w_row.iter().enumerate() {
                            if *wv == 0.0 {
                                continue;
                            }
                            let drow = &mut dcols[p * n..(p + 1) * n];
                            for (dc, d) in drow.iter_mut().zip(dy_row) {
                                *dc += wv * d;
                            }
                        }
                    }
                    dy = col2im(&dcols, input.shape(), *kh, *kw, *stride, *padding, oh, ow);
                }
                (Layer::ReLU, Cache::ReLU { mask }) => {
                    let data = dy.data_mut();
                    for (v, keep) in data.iter_mut().zip(mask) {
                        if !keep {
                            *v = 0.0;
                        }
                    }
                }
                (
                    Layer::MaxPool { .. },
                    Cache::MaxPool {
                        input_shape,
                        argmax,
                    },
                ) => {
                    let mut dx = vec![0.0f32; input_shape.iter().product()];
                    for (cell, flat_idx) in argmax.iter().enumerate() {
                        dx[*flat_idx] += dy.data()[cell];
                    }
                    dy = Tensor::new(input_shape.clone(), dx).expect("pool dx shape");
                }
                (Layer::Flatten, Cache::Flatten { shape }) => {
                    dy = dy.reshape(shape.clone()).expect("unflatten shape");
                }
                _ => unreachable!("cache/layer mismatch"),
            }
        }
        grads
    }

    /// Loss + gradient for one `(input, label)` example: softmax
    /// cross-entropy over the logits.
    fn example_grads(&self, input: Tensor, label: usize) -> (f32, Vec<LayerGrads>) {
        let (logits, caches) = self.forward_train(input);
        let mut probs = logits.clone();
        ops::softmax(&mut probs);
        let p = probs.data()[label].max(1e-12);
        let loss = -p.ln();
        // dlogits = probs - onehot(label)
        let mut dlogits = probs;
        dlogits.data_mut()[label] -= 1.0;
        (loss, self.backward(&caches, dlogits))
    }

    /// One SGD-with-momentum step over a minibatch; returns the mean
    /// loss. Per-example gradients are computed in parallel and summed
    /// in batch order.
    pub fn sgd_step(
        &mut self,
        batch: &[(Tensor, usize)],
        learning_rate: f32,
        momentum: f32,
    ) -> Result<f32, TrainError> {
        if batch.is_empty() {
            return Err(TrainError::BadDataset("empty minibatch".into()));
        }
        let zero = (
            0.0,
            self.layers
                .iter()
                .map(LayerGrads::zeros_like)
                .collect::<Vec<_>>(),
        );
        let (total_loss, summed) = par::map(batch.len(), |i| {
            self.example_grads(batch[i].0.clone(), batch[i].1)
        })
        .into_iter()
        .fold(zero, |(l1, mut g1), (l2, g2)| {
            for (a, b) in g1.iter_mut().zip(&g2) {
                a.accumulate(b);
            }
            (l1 + l2, g1)
        });
        let scale = 1.0 / batch.len() as f32;
        for ((layer, grad), vel) in self
            .layers
            .iter_mut()
            .zip(summed)
            .zip(self.velocity.iter_mut())
        {
            let mut grad = grad;
            grad.scale(scale);
            match layer {
                Layer::Conv2d { weights, bias, .. } | Layer::Dense { weights, bias, .. } => {
                    for ((w, v), g) in weights
                        .iter_mut()
                        .zip(vel.weights.iter_mut())
                        .zip(&grad.weights)
                    {
                        *v = momentum * *v - learning_rate * g;
                        *w += *v;
                    }
                    for ((b, v), g) in bias.iter_mut().zip(vel.bias.iter_mut()).zip(&grad.bias) {
                        *v = momentum * *v - learning_rate * g;
                        *b += *v;
                    }
                }
                _ => {}
            }
        }
        Ok(total_loss * scale)
    }

    /// Train for `epochs` over the dataset in minibatches; returns the
    /// per-epoch mean losses.
    pub fn fit(
        &mut self,
        data: &[(Tensor, usize)],
        epochs: usize,
        batch_size: usize,
        learning_rate: f32,
        momentum: f32,
    ) -> Result<Vec<f32>, TrainError> {
        if data.is_empty() {
            return Err(TrainError::BadDataset("empty training set".into()));
        }
        let mut losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut epoch_loss = 0.0;
            let mut batches = 0usize;
            for batch in data.chunks(batch_size.max(1)) {
                epoch_loss += self.sgd_step(batch, learning_rate, momentum)?;
                batches += 1;
            }
            losses.push(epoch_loss / batches as f32);
        }
        Ok(losses)
    }

    /// Classification accuracy over a labelled set.
    pub fn accuracy(&self, data: &[(Tensor, usize)]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let hits = par::map(data.len(), |i| {
            self.logits(data[i].0.clone()).argmax() == Some(data[i].1)
        });
        let correct = hits.into_iter().filter(|&hit| hit).count();
        correct as f64 / data.len() as f64
    }

    /// Freeze into an inference [`Network`] (softmax head appended).
    pub fn into_network(self, name: impl Into<String>) -> Network {
        let mut layers = self.layers;
        layers.push(Layer::Softmax);
        Network::new(name, self.input_shape, vec![Block::Seq(layers)])
    }
}

/// Max pooling that also returns, per output cell, the flat index of
/// the winning input element (for gradient routing).
fn maxpool_with_argmax(input: &Tensor, size: usize, stride: usize) -> (Tensor, Vec<usize>) {
    let shape = input.shape();
    let (c, h, w) = (shape[0], shape[1], shape[2]);
    let oh = (h - size) / stride + 1;
    let ow = (w - size) / stride + 1;
    let mut out = vec![f32::NEG_INFINITY; c * oh * ow];
    let mut argmax = vec![0usize; c * oh * ow];
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0;
                for ky in 0..size {
                    for kx in 0..size {
                        let iy = oy * stride + ky;
                        let ix = ox * stride + kx;
                        let idx = (ch * h + iy) * w + ix;
                        let v = input.data()[idx];
                        if v > best {
                            best = v;
                            best_idx = idx;
                        }
                    }
                }
                let cell = (ch * oh + oy) * ow + ox;
                out[cell] = best;
                argmax[cell] = best_idx;
            }
        }
    }
    (
        Tensor::new(vec![c, oh, ow], out).expect("pool shape"),
        argmax,
    )
}

/// Scatter im2col-layout gradients back to input layout (the adjoint
/// of [`ops::im2col`]).
#[allow(clippy::too_many_arguments)]
fn col2im(
    dcols: &[f32],
    input_shape: &[usize],
    kh: usize,
    kw: usize,
    stride: usize,
    padding: usize,
    oh: usize,
    ow: usize,
) -> Tensor {
    let (c_in, h, w) = (input_shape[0], input_shape[1], input_shape[2]);
    let cols_n = oh * ow;
    let mut dx = vec![0.0f32; c_in * h * w];
    for c in 0..c_in {
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (c * kh + ky) * kw + kx;
                let drow = &dcols[row * cols_n..(row + 1) * cols_n];
                for oy in 0..oh {
                    let iy = (oy * stride + ky) as isize - padding as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * stride + kx) as isize - padding as isize;
                        if ix < 0 || ix as usize >= w {
                            continue;
                        }
                        dx[(c * h + iy as usize) * w + ix as usize] += drow[oy * ow + ox];
                    }
                }
            }
        }
    }
    Tensor::new(input_shape.to_vec(), dx).expect("col2im shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_conv_net(seed: u64) -> Trainable {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rand_vec = |n: usize, scale: f32| -> Vec<f32> {
            (0..n).map(|_| rng.gen_range(-scale..scale)).collect()
        };
        Trainable::new(
            vec![1, 6, 6],
            vec![
                Layer::Conv2d {
                    weights: rand_vec(4 * 9, 0.5),
                    bias: vec![0.0; 4],
                    c_out: 4,
                    kh: 3,
                    kw: 3,
                    stride: 1,
                    padding: 1,
                },
                Layer::ReLU,
                Layer::MaxPool { size: 2, stride: 2 },
                Layer::Flatten,
                Layer::Dense {
                    weights: input_major(rand_vec(3 * 36, 0.5), 3, 36),
                    bias: vec![0.0; 3],
                    out: 3,
                    input: 36,
                },
            ],
        )
        .unwrap()
    }

    /// Dense weights drawn output by output, stored input-major.
    fn input_major(drawn: Vec<f32>, out: usize, input: usize) -> Vec<f32> {
        (0..input * out)
            .map(|p| drawn[p % out * input + p / out])
            .collect()
    }

    fn random_input(seed: u64, shape: &[usize]) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = shape.iter().product();
        Tensor::new(
            shape.to_vec(),
            (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
        .unwrap()
    }

    /// Loss of the network at its current parameters.
    fn loss_of(net: &Trainable, input: &Tensor, label: usize) -> f32 {
        let (logits, _) = net.forward_train(input.clone());
        let mut probs = logits;
        ops::softmax(&mut probs);
        -probs.data()[label].max(1e-12).ln()
    }

    /// Central-difference gradient check for every parameter of every
    /// parameterized layer — the canonical backprop correctness test.
    #[test]
    fn analytic_gradients_match_finite_differences() {
        let mut net = tiny_conv_net(3);
        let input = random_input(1, &[1, 6, 6]);
        let label = 2usize;
        let (_, analytic) = net.example_grads(input.clone(), label);
        const EPS: f32 = 1e-3;
        for layer_idx in [0usize, 4] {
            // Sample a handful of parameters per layer.
            let n_params = match &net.layers[layer_idx] {
                Layer::Conv2d { weights, .. } | Layer::Dense { weights, .. } => weights.len(),
                _ => 0,
            };
            for p in (0..n_params).step_by(n_params / 7 + 1) {
                let set = |net: &mut Trainable, value: f32| match &mut net.layers[layer_idx] {
                    Layer::Conv2d { weights, .. } | Layer::Dense { weights, .. } => {
                        weights[p] = value
                    }
                    _ => unreachable!(),
                };
                let original = match &net.layers[layer_idx] {
                    Layer::Conv2d { weights, .. } | Layer::Dense { weights, .. } => weights[p],
                    _ => unreachable!(),
                };
                set(&mut net, original + EPS);
                let plus = loss_of(&net, &input, label);
                set(&mut net, original - EPS);
                let minus = loss_of(&net, &input, label);
                set(&mut net, original);
                let numeric = (plus - minus) / (2.0 * EPS);
                let got = analytic[layer_idx].weights[p];
                assert!(
                    (numeric - got).abs() < 1e-2 * (1.0 + numeric.abs()),
                    "layer {layer_idx} param {p}: numeric {numeric} vs analytic {got}"
                );
            }
        }
        // Bias gradients too.
        let (_, analytic) = net.example_grads(input.clone(), label);
        let original = match &net.layers[0] {
            Layer::Conv2d { bias, .. } => bias[1],
            _ => unreachable!(),
        };
        let set_bias = |net: &mut Trainable, v: f32| {
            if let Layer::Conv2d { bias, .. } = &mut net.layers[0] {
                bias[1] = v;
            }
        };
        set_bias(&mut net, original + EPS);
        let plus = loss_of(&net, &input, label);
        set_bias(&mut net, original - EPS);
        let minus = loss_of(&net, &input, label);
        set_bias(&mut net, original);
        let numeric = (plus - minus) / (2.0 * EPS);
        assert!((numeric - analytic[0].bias[1]).abs() < 1e-2 * (1.0 + numeric.abs()));
    }

    /// A linearly separable toy task: classify whether the bright blob
    /// sits in the top or bottom half of the image.
    fn blob_dataset(n: usize, seed: u64) -> Vec<(Tensor, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let label = rng.gen_range(0..2usize);
                let mut data = vec![0.0f32; 36];
                let cy = if label == 0 {
                    rng.gen_range(0..2)
                } else {
                    rng.gen_range(4..6)
                };
                let cx = rng.gen_range(0..6);
                data[cy * 6 + cx] = 1.0;
                for v in &mut data {
                    *v += rng.gen_range(-0.05..0.05);
                }
                (Tensor::new(vec![1, 6, 6], data).unwrap(), label)
            })
            .collect()
    }

    fn blob_net(seed: u64) -> Trainable {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rand_vec = |n: usize, scale: f32| -> Vec<f32> {
            (0..n).map(|_| rng.gen_range(-scale..scale)).collect()
        };
        Trainable::new(
            vec![1, 6, 6],
            vec![
                Layer::Conv2d {
                    weights: rand_vec(4 * 9, 0.4),
                    bias: vec![0.0; 4],
                    c_out: 4,
                    kh: 3,
                    kw: 3,
                    stride: 1,
                    padding: 1,
                },
                Layer::ReLU,
                Layer::Flatten,
                Layer::Dense {
                    weights: input_major(rand_vec(2 * 144, 0.2), 2, 144),
                    bias: vec![0.0; 2],
                    out: 2,
                    input: 144,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn training_reduces_loss_and_reaches_high_accuracy() {
        let mut net = blob_net(11);
        let train = blob_dataset(240, 1);
        let test = blob_dataset(80, 2);
        let before = net.accuracy(&test);
        let losses = net.fit(&train, 8, 16, 0.1, 0.9).unwrap();
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "loss did not halve: {losses:?}"
        );
        let after = net.accuracy(&test);
        assert!(after > 0.9, "accuracy {before} -> {after}");
        assert!(after > before);
    }

    #[test]
    fn trained_network_freezes_into_inference_form() {
        let mut net = blob_net(11);
        let train = blob_dataset(240, 1);
        net.fit(&train, 8, 16, 0.1, 0.9).unwrap();
        let frozen = net.into_network("blob-classifier");
        let (sample, label) = &blob_dataset(1, 3)[0];
        let probs = frozen.forward(sample.clone());
        assert!((probs.data().iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert_eq!(probs.argmax(), Some(*label));
    }

    /// FNV-1a over the little-endian `to_bits()` of `values`.
    fn bits_hash(values: impl IntoIterator<Item = f32>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in values.into_iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Both constants were recorded while dense weights were still
    /// stored `out × input`: the layout is not allowed to move a bit of
    /// what training computes.
    #[test]
    fn training_bits_do_not_depend_on_the_dense_layout() {
        let mut net = blob_net(11);
        net.fit(&blob_dataset(240, 1), 2, 16, 0.1, 0.9).unwrap();
        let test = blob_dataset(80, 2);
        let logits = test
            .iter()
            .flat_map(|(x, _)| net.logits(x.clone()).data().to_vec());
        assert_eq!(bits_hash(logits), 0x4886_607b_30ee_05bb);

        let (_, grads) = tiny_conv_net(3).example_grads(random_input(1, &[1, 6, 6]), 2);
        let LayerGrads { weights, bias } = &grads[4];
        // Hashed output by output, the order they were recorded in.
        let (out, input) = (3, 36);
        let by_output = (0..out * input).map(|p| weights[p % input * out + p / input]);
        assert_eq!(
            bits_hash(by_output.chain(bias.iter().copied())),
            0x9fb5_40a1_8604_4312
        );
    }

    #[test]
    fn unsupported_layers_rejected_up_front() {
        let Err(err) = Trainable::new(vec![4], vec![Layer::Softmax]) else {
            panic!("softmax must be rejected");
        };
        assert!(matches!(err, TrainError::Unsupported(_)));
        let bn = Layer::BatchNorm {
            gamma: vec![1.0],
            beta: vec![0.0],
            mean: vec![0.0],
            var: vec![1.0],
        };
        assert!(Trainable::new(vec![1, 2, 2], vec![bn]).is_err());
    }

    #[test]
    fn empty_data_rejected() {
        let mut net = blob_net(1);
        assert!(matches!(
            net.fit(&[], 1, 8, 0.1, 0.9),
            Err(TrainError::BadDataset(_))
        ));
        assert!(net.sgd_step(&[], 0.1, 0.9).is_err());
    }

    #[test]
    fn maxpool_argmax_routes_gradients_to_winners() {
        let input = Tensor::new(
            vec![1, 2, 2],
            vec![1.0, 5.0, 2.0, 3.0], // winner is index 1
        )
        .unwrap();
        let (pooled, argmax) = maxpool_with_argmax(&input, 2, 2);
        assert_eq!(pooled.data(), &[5.0]);
        assert_eq!(argmax, vec![1]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the
        // defining property of the adjoint, which backprop relies on.
        let x = random_input(5, &[2, 5, 5]);
        let (kh, kw, stride, padding) = (3, 3, 2, 1);
        let (cols, oh, ow) = ops::im2col(&x, kh, kw, stride, padding);
        let mut rng = StdRng::seed_from_u64(6);
        let y: Vec<f32> = (0..cols.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
        let back = col2im(&y, x.shape(), kh, kw, stride, padding, oh, ow);
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()),
            "{lhs} vs {rhs}"
        );
    }
}

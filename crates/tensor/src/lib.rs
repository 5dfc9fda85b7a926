#![warn(missing_docs)]

//! # dlhub-tensor
//!
//! A small, real neural-network inference engine, built to stand in for
//! the TensorFlow/Keras runtimes that execute DLHub's image servables.
//!
//! The paper's evaluation (§V-A) serves Google's Inception-v3 and a
//! multi-layer CNN trained on CIFAR-10. We cannot embed TensorFlow, so
//! this crate implements the actual math natively — convolutions as a
//! register-blocked GEMM over panel-wise `im2col` (single-threaded;
//! the kernel width follows the CPU's vector width), pooling, dense
//! layers, batch normalization, softmax and Inception-style parallel
//! branch blocks —
//! and provides builders for two deterministic networks:
//!
//! * [`models::inception`] — an Inception-v3-shaped classifier
//!   (stem convolutions, four inception modules with parallel 1×1/3×3/
//!   5×5/pool branches, global average pooling, 1000-way softmax).
//! * [`models::cifar10`] — the common CIFAR-10 benchmark CNN
//!   (32×32×3 input, 10-way softmax).
//!
//! Weights are pseudo-random from a fixed seed: classification output
//! is meaningless, but the *compute cost* — which is what the serving
//! experiments measure — is real and of the right relative magnitude
//! (Inception ≫ CIFAR-10 ≫ noop), as documented in `DESIGN.md`.

pub mod layer;
pub mod models;
pub mod network;
pub mod ops;
pub mod par;
pub mod tensor;
pub mod train;

pub use layer::Layer;
pub use network::{Block, Network};
pub use tensor::{Tensor, TensorError};
pub use train::{TrainError, Trainable};

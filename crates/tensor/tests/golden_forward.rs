//! Golden test: `Network::forward` produces the same bits as it did
//! before the kernels were rewritten, and `Network::forward_batch`
//! produces them for every input of a batch.
//!
//! The constants were recorded by running this file at the parent of
//! the commit that introduced the register-blocked GEMM (k-outer row
//! loop, full im2col matrix). A kernel change that reorders a sum,
//! contracts a multiply-add or drops a term moves them.

use dlhub_tensor::models::{cifar10, inception, synthetic_image, CIFAR10_INPUT, INCEPTION_INPUT};
use dlhub_tensor::{Network, Tensor};

/// FNV-1a over the little-endian `to_bits()` of every element of
/// `outputs`, in order.
fn bits_hash(outputs: &[Tensor]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in outputs.iter().flat_map(|out| out.data()) {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn images(shape: &[usize]) -> Vec<Tensor> {
    (0..4).map(|v| synthetic_image(shape, v)).collect()
}

/// The hash of `net`'s outputs on `synthetic_image(shape, 0..4)`, one
/// `forward` per image.
fn output_bits_hash(net: &Network, shape: &[usize]) -> u64 {
    let outputs: Vec<Tensor> = images(shape).into_iter().map(|x| net.forward(x)).collect();
    bits_hash(&outputs)
}

/// The same hash with the four images (then a fifth, whose output is
/// dropped) run through `forward_batch` in batches of `n`.
fn batched_bits_hash(net: &Network, shape: &[usize], n: usize) -> u64 {
    let mut inputs = images(shape);
    inputs.push(synthetic_image(shape, 4));
    let mut outputs: Vec<Tensor> = inputs
        .chunks(n)
        .flat_map(|batch| net.forward_batch(batch))
        .collect();
    assert_eq!(outputs.len(), 5);
    outputs.truncate(4);
    bits_hash(&outputs)
}

#[test]
fn cifar10_forward_bits_match_parent_commit() {
    assert_eq!(
        output_bits_hash(&cifar10(7), &CIFAR10_INPUT),
        0x811f_8434_d01f_b976,
        "cifar10(7) output bits changed"
    );
}

#[test]
fn inception_forward_bits_match_parent_commit() {
    assert_eq!(
        output_bits_hash(&inception(7), &INCEPTION_INPUT),
        0xbaae_366b_6c0b_16e4,
        "inception(7) output bits changed"
    );
}

#[test]
fn forward_batch_bits_match_the_same_constants() {
    assert!(cifar10(7).forward_batch(&[]).is_empty());
    for n in [1, 2, 5] {
        assert_eq!(
            batched_bits_hash(&cifar10(7), &CIFAR10_INPUT, n),
            0x811f_8434_d01f_b976,
            "cifar10(7) batched output bits differ at N = {n}"
        );
        assert_eq!(
            batched_bits_hash(&inception(7), &INCEPTION_INPUT, n),
            0xbaae_366b_6c0b_16e4,
            "inception(7) batched output bits differ at N = {n}"
        );
    }
}

//! Golden test: `Network::forward` produces the same bits as it did
//! before the kernels were rewritten.
//!
//! The constants were recorded by running this file at the parent of
//! the commit that introduced the register-blocked GEMM (k-outer row
//! loop, full im2col matrix). A kernel change that reorders a sum,
//! contracts a multiply-add or drops a term moves them.

use dlhub_tensor::models::{cifar10, inception, synthetic_image, CIFAR10_INPUT, INCEPTION_INPUT};
use dlhub_tensor::Network;

/// FNV-1a over the little-endian `to_bits()` of every output element
/// of `net` on `synthetic_image(shape, 0..4)`.
fn output_bits_hash(net: &Network, shape: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for variant in 0..4 {
        let out = net.forward(synthetic_image(shape, variant));
        for v in out.data() {
            for byte in v.to_bits().to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
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

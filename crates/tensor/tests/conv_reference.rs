//! Property tests: the register-blocked GEMM and the panel-wise
//! im2col convolution give exactly the bits of two obviously correct
//! references — the k-outer row loop the crate used before, and a
//! direct convolution — on random inputs and shapes. Exact, not within
//! a tolerance: the kernels promise every output element is the same
//! sum in the same order whatever the tile shape.

use dlhub_tensor::ops::{conv2d, matmul};
use dlhub_tensor::Tensor;
use proptest::prelude::*;

/// `C = A × B` one output row at a time, `k` outermost within the row:
/// the previous implementation of `ops::matmul`, zero-skip included.
fn matmul_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for (i, row) in c.chunks_mut(n).enumerate() {
        for p in 0..k {
            let aip = a[i * k + p];
            if aip == 0.0 {
                continue;
            }
            for (c, &bv) in row.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                *c += aip * bv;
            }
        }
    }
    c
}

/// Direct convolution: the obviously correct O(everything) loop. Each
/// output sums its taps from `0.0` in (channel, ky, kx) order and adds
/// the bias last, the order a GEMM over the im2col matrix has; taps in
/// the padding are skipped (they would add `±0.0`).
#[allow(clippy::too_many_arguments)]
fn conv2d_reference(
    input: &Tensor,
    weights: &[f32],
    bias: &[f32],
    c_out: usize,
    k: usize,
    stride: usize,
    padding: usize,
) -> Tensor {
    let (c_in, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
    let oh = (h + 2 * padding - k) / stride + 1;
    let ow = (w + 2 * padding - k) / stride + 1;
    let mut out = vec![0.0f32; c_out * oh * ow];
    for co in 0..c_out {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0.0;
                for ci in 0..c_in {
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = (oy * stride + ky) as isize - padding as isize;
                            let ix = (ox * stride + kx) as isize - padding as isize;
                            if iy < 0 || ix < 0 || iy as usize >= h || ix as usize >= w {
                                continue;
                            }
                            let wv = weights[((co * c_in + ci) * k + ky) * k + kx];
                            acc += wv * input.at_chw(ci, iy as usize, ix as usize);
                        }
                    }
                }
                out[(co * oh + oy) * ow + ox] = acc + bias[co];
            }
        }
    }
    Tensor::new(vec![c_out, oh, ow], out).unwrap()
}

/// Deterministic values in ±1 with full mantissas, some exactly zero,
/// so a reordered sum or a fused multiply-add shows in the low bits
/// and the reference's zero-skip is exercised.
fn noise(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if state >> 60 == 0 {
                0.0
            } else {
                (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            }
        })
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// m and n on both sides of every tile height and width (4, 8 and
    /// 8, 16, 32), with remainders in both dimensions.
    #[test]
    fn blocked_matmul_matches_row_loop(
        m in 1usize..70,
        k in 1usize..300,
        n in 1usize..70,
        seed in any::<u64>(),
    ) {
        let a = noise(m * k, seed);
        let b = noise(k * n, seed ^ 0x9e37_79b9_7f4a_7c15);
        prop_assert_eq!(
            bits(&matmul(&a, &b, m, k, n)),
            bits(&matmul_reference(&a, &b, m, k, n))
        );
    }

    /// Up to the Inception shapes: 5×5 kernels, stride 2, padding 2,
    /// 40 input channels.
    #[test]
    fn panel_conv_matches_direct_conv(
        c_in in 1usize..41,
        c_out in 1usize..20,
        h in 1usize..14,
        w in 1usize..14,
        k in 1usize..6,
        stride in 1usize..3,
        padding in 0usize..3,
        seed in any::<u64>(),
    ) {
        prop_assume!(h + 2 * padding >= k && w + 2 * padding >= k);
        let input = Tensor::new(vec![c_in, h, w], noise(c_in * h * w, seed)).unwrap();
        let weights = noise(c_out * c_in * k * k, seed ^ 0x5851_f42d_4c95_7f2d);
        let bias = noise(c_out, seed ^ 0x1405_7b7e_f767_814f);

        let fast = conv2d(&input, &weights, &bias, c_out, k, k, stride, padding);
        let slow = conv2d_reference(&input, &weights, &bias, c_out, k, stride, padding);
        prop_assert_eq!(fast.shape(), slow.shape());
        prop_assert_eq!(bits(fast.data()), bits(slow.data()));
    }
}

//! Kernels: register-blocked GEMM, panel-wise im2col convolution, the
//! dense layer, pooling, activations.
//!
//! Every matrix product runs through one micro-kernel, [`tile`]: an
//! `MR×NR` tile of the output is held in registers while `k` runs
//! innermost, left to right, so each output element is the sum
//! `((0 + a₀b₀) + a₁b₁) + …` no matter which tile shape computes it.
//! The multiply and the add stay separate operations (no `mul_add`):
//! a fused multiply-add rounds once instead of twice, so using it
//! only where the CPU has it would make the bits depend on the host.
//! The kernel is compiled three times — portable 4×8, AVX2 4×16,
//! AVX-512 8×32 — and the widest one the CPU reports is taken per call.
//! The dense layer ([`dense`]) is a vector–matrix product over
//! input-major weights under the same two rules: one sequential sum per
//! output, three widths.
//!
//! There are no intra-op threads: the serving stack's unit of
//! parallelism is the servable replica (§IV, Parsl executor).

use crate::tensor::Tensor;

/// The micro-kernel: `sums[r][j] = Σₚ rows[r][p] · panel[p][j]`, each
/// sum taken left to right over `p` from `0.0`, multiply and add
/// rounded separately.
#[inline(always)]
fn tile<const MR: usize, const NR: usize>(
    rows: [&[f32]; MR],
    panel: &[[f32; NR]],
) -> [[f32; NR]; MR] {
    const { assert!(MR <= 8, "tile rows are unrolled by hand up to 8") };
    let mut acc = [[0.0f32; NR]; MR];
    // `acc` must only be indexed by literals. A `for r in 0..MR` loop
    // is too big for LLVM to unroll, and an array indexed by a variable
    // stays on the stack: the kernel then runs scalar at a tenth of the
    // speed. Spelled out, the MR×NR sums live in vector registers.
    macro_rules! rows {
        ($p:ident, $b:ident: $($r:literal)*) => {$(
            if $r < MR {
                let a = rows[$r][$p];
                for j in 0..NR {
                    acc[$r][j] += a * $b[j];
                }
            }
        )*};
    }
    for (p, &b) in panel.iter().enumerate() {
        rows!(p, b: 0 1 2 3 4 5 6 7);
    }
    acc
}

/// One product `C (m×n) = A (m×k) × B (k×n)`, plus `bias[i]` on row `i`
/// if given.
///
/// `B` is never held whole. `fill(j0, cols, panel, ld)` writes its
/// columns `j0..j0 + cols` into `panel` (`k` rows, row stride `ld`);
/// the panel is reused for every column block, so one product touches
/// `k × NR` floats of scratch beside `A` and `C`.
struct Gemm<'a, F> {
    a: &'a [f32],
    m: usize,
    k: usize,
    n: usize,
    bias: Option<&'a [f32]>,
    c: &'a mut [f32],
    fill: F,
}

impl<F: FnMut(usize, usize, &mut [f32], usize)> Gemm<'_, F> {
    #[inline(always)]
    fn run<const MR: usize, const NR: usize>(self) {
        let Gemm {
            a,
            m,
            k,
            n,
            bias,
            c,
            mut fill,
        } = self;
        assert_eq!(a.len(), m * k, "A has wrong length");
        assert_eq!(c.len(), m * n, "C has wrong length");
        if m == 0 {
            return;
        }
        let mut scratch = vec![0.0f32; k * NR];
        for j0 in (0..n).step_by(NR) {
            let cols = NR.min(n - j0);
            // A ragged last block leaves columns `cols..NR` as the
            // previous block wrote them: multiplied but never stored.
            fill(j0, cols, &mut scratch, NR);
            let panel = &scratch.as_chunks::<NR>().0[..k];
            for i0 in (0..m).step_by(MR) {
                // Tile rows past `m` repeat the last row, unstored.
                let rows = std::array::from_fn(|r| {
                    let i = (i0 + r).min(m - 1);
                    &a[i * k..][..k]
                });
                let sums = tile::<MR, NR>(rows, panel);
                for (i, sums) in (i0..m).zip(&sums) {
                    let out = &mut c[i * n + j0..][..cols];
                    match bias {
                        Some(bias) => {
                            for (o, v) in out.iter_mut().zip(sums) {
                                *o = v + bias[i];
                            }
                        }
                        None => out.copy_from_slice(&sums[..cols]),
                    }
                }
            }
        }
    }

    fn run_portable(self) {
        self.run::<4, 8>()
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn run_avx2(self) {
        self.run::<4, 16>()
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn run_avx512(self) {
        self.run::<8, 32>()
    }

    /// Run with the widest tiles the CPU reports support for.
    fn run_widest(self) {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                // SAFETY: the CPU reported avx512f on the line above,
                // the only requirement of `run_avx512`.
                return unsafe { self.run_avx512() };
            }
            if is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU reported avx2 on the line above, the
                // only requirement of `run_avx2`.
                return unsafe { self.run_avx2() };
            }
        }
        self.run_portable()
    }
}

/// `C = A × B` for row-major `A (m×k)` and `B (k×n)`.
///
/// Each `C[i][j]` is the left-to-right sum over `p` of
/// `A[i][p] * B[p][j]`, starting from `0.0`.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(b.len(), k * n, "B has wrong length");
    let mut c = vec![0.0f32; m * n];
    Gemm {
        a,
        m,
        k,
        n,
        bias: None,
        c: &mut c,
        fill: |j0, cols, panel: &mut [f32], ld| {
            for (dst, src) in panel.chunks_exact_mut(ld).zip(b.chunks_exact(n)) {
                dst[..cols].copy_from_slice(&src[j0..j0 + cols]);
            }
        },
    }
    .run_widest();
    c
}

/// Rows of `W` one pass of [`dense`] walks before it moves to the next
/// block of outputs: 16 rows of the CIFAR-10 layer are 16 KB, so the
/// weights are read as one forward stream, and the running sums make
/// the trip to `y` and back once per 16 multiply-adds.
const DENSE_ROWS: usize = 16;

/// `y[o..o + W] += Σᵢ x[i] · rows[i][o..o + W]`, `i` ascending, the
/// `W` sums in registers from the load of `y` to the store.
#[inline(always)]
fn dense_block<const W: usize>(rows: &[f32], n: usize, x: &[f32], o: usize, y: &mut [f32]) {
    let y: &mut [f32; W] = (&mut y[o..o + W]).try_into().expect("W outputs");
    let mut acc = *y;
    for (row, xv) in rows.chunks_exact(n).zip(x) {
        let w: &[f32; W] = row[o..o + W].try_into().expect("W weights");
        for j in 0..W {
            acc[j] += w[j] * xv;
        }
    }
    *y = acc;
}

/// [`dense`] with output blocks of at most `NR` sums.
#[inline(always)]
fn dense_blocked<const NR: usize>(w: &[f32], x: &[f32], bias: &[f32]) -> Vec<f32> {
    let (k, n) = (x.len(), bias.len());
    assert_eq!(w.len(), k * n, "weight shape mismatch");
    // `x + -0.0 == x` for every `x`, `-0.0` included: the additive
    // identity, and what `Iterator::sum` starts from.
    let mut y = vec![-0.0f32; n];
    if n == 0 {
        return y;
    }
    for (rows, x) in w.chunks(DENSE_ROWS * n).zip(x.chunks(DENSE_ROWS)) {
        let mut o = 0;
        // Whatever `n` leaves after the `NR`-wide blocks goes to
        // narrower ones, still a contiguous run of each row.
        macro_rules! blocks {
            ($($width:literal)*) => {$(
                if $width <= NR {
                    while n - o >= $width {
                        dense_block::<$width>(rows, n, x, o, &mut y);
                        o += $width;
                    }
                }
            )*};
        }
        blocks!(128 64 32 16 8 4 2 1);
    }
    for (v, b) in y.iter_mut().zip(bias) {
        *v += b;
    }
    y
}

fn dense_portable(w: &[f32], x: &[f32], bias: &[f32]) -> Vec<f32> {
    dense_blocked::<32>(w, x, bias)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dense_avx2(w: &[f32], x: &[f32], bias: &[f32]) -> Vec<f32> {
    dense_blocked::<64>(w, x, bias)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn dense_avx512(w: &[f32], x: &[f32], bias: &[f32]) -> Vec<f32> {
    dense_blocked::<128>(w, x, bias)
}

/// Fully connected layer `y = x·W + bias` for input-major `W`
/// (`x.len() × bias.len()` row-major: row `i` holds the weights input
/// `i` sends to every output).
///
/// Each `y[o]` is `((-0.0 + W[0][o]·x[0]) + W[1][o]·x[1]) + …` left to
/// right, multiply and add rounded separately, then `+ bias[o]`: the
/// bits `Iterator::sum` over one output's products gives. A block of
/// outputs is summed side by side in registers, so the chains overlap
/// and every load is a contiguous run of a row of `W`.
pub fn dense(w: &[f32], x: &[f32], bias: &[f32]) -> Vec<f32> {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU reported avx512f on the line above, the
            // only requirement of `dense_avx512`.
            return unsafe { dense_avx512(w, x, bias) };
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU reported avx2 on the line above, the only
            // requirement of `dense_avx2`.
            return unsafe { dense_avx2(w, x, bias) };
        }
    }
    dense_portable(w, x, bias)
}

/// How many `size`-wide windows, `stride` apart, fit an axis of `dim`
/// elements padded by `padding` at both ends: the output extent of a
/// convolution or pooling along that axis.
pub(crate) fn windows(dim: usize, size: usize, stride: usize, padding: usize) -> usize {
    (dim + 2 * padding - size) / stride + 1
}

/// Shape of one convolution's im2col matrix: `(c_in·kh·kw) × (oh·ow)`,
/// one column per output pixel.
#[derive(Clone, Copy)]
struct Im2col {
    c_in: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    padding: usize,
    oh: usize,
    ow: usize,
}

impl Im2col {
    fn new(input: &Tensor, kh: usize, kw: usize, stride: usize, padding: usize) -> Self {
        let shape = input.shape();
        assert_eq!(shape.len(), 3, "im2col expects CHW input");
        let (c_in, h, w) = (shape[0], shape[1], shape[2]);
        Im2col {
            c_in,
            h,
            w,
            kh,
            kw,
            stride,
            padding,
            oh: windows(h, kh, stride, padding),
            ow: windows(w, kw, stride, padding),
        }
    }

    fn rows(&self) -> usize {
        self.c_in * self.kh * self.kw
    }

    fn cols(&self) -> usize {
        self.oh * self.ow
    }

    /// Write columns `j0..j0 + cols` of the matrix, all rows, into
    /// `dst` (row stride `ld`), zero padding included.
    ///
    /// The columns are cut into runs that share an output row; along a
    /// run the source pixels of one matrix row are `stride` apart in
    /// one image row, so a stride-1 run is a single slice copy.
    fn fill(&self, data: &[f32], j0: usize, cols: usize, dst: &mut [f32], ld: usize) {
        let &Im2col {
            c_in,
            h,
            w,
            kh,
            kw,
            stride,
            padding,
            ow,
            ..
        } = self;
        let end = j0 + cols;
        let mut j = j0;
        while j < end {
            let (oy, ox0) = (j / ow, j % ow);
            let run = (ow - ox0).min(end - j);
            let at = j - j0;
            for kx in 0..kw {
                // Output columns `lo..hi` of this run read inside the
                // image: `0 <= ox * stride + kx - padding < w`.
                let first_inside = padding.saturating_sub(kx).div_ceil(stride);
                let past_inside = (w + padding)
                    .checked_sub(kx + 1)
                    .map_or(0, |last| last / stride + 1);
                let lo = first_inside.clamp(ox0, ox0 + run);
                let hi = past_inside.clamp(lo, ox0 + run);
                for c in 0..c_in {
                    for ky in 0..kh {
                        let row = (c * kh + ky) * kw + kx;
                        let out = &mut dst[row * ld + at..][..run];
                        let iy = (oy * stride + ky).wrapping_sub(padding);
                        if iy >= h || lo == hi {
                            out.fill(0.0);
                            continue;
                        }
                        out[..lo - ox0].fill(0.0);
                        out[hi - ox0..].fill(0.0);
                        let inside = &mut out[lo - ox0..hi - ox0];
                        let src = &data[(c * h + iy) * w + lo * stride + kx - padding..];
                        if stride == 1 {
                            inside.copy_from_slice(&src[..inside.len()]);
                        } else {
                            for (o, s) in inside.iter_mut().zip(src.iter().step_by(stride)) {
                                *o = *s;
                            }
                        }
                    }
                }
            }
            j += run;
        }
    }
}

/// Lower a CHW image into the im2col matrix for a `kh×kw` kernel with
/// `stride` and `padding`. Output is `(c_in*kh*kw) × (oh*ow)`,
/// column-per-output-pixel, which makes convolution a single GEMM.
/// (The backward pass wants the whole matrix; [`conv2d`] builds it a
/// column panel at a time instead.)
pub fn im2col(
    input: &Tensor,
    kh: usize,
    kw: usize,
    stride: usize,
    padding: usize,
) -> (Vec<f32>, usize, usize) {
    let geom = Im2col::new(input, kh, kw, stride, padding);
    let cols = geom.cols();
    let mut out = vec![0.0f32; geom.rows() * cols];
    geom.fill(input.data(), 0, cols, &mut out, cols);
    (out, geom.oh, geom.ow)
}

/// 2-D convolution of a CHW `input` with `c_out` filters (weights are
/// `c_out × (c_in*kh*kw)` row-major) plus per-channel bias.
///
/// A GEMM of the weights against the im2col matrix, which is built one
/// column panel at a time straight from the image and never exists
/// whole.
#[allow(clippy::too_many_arguments)]
pub fn conv2d(
    input: &Tensor,
    weights: &[f32],
    bias: &[f32],
    c_out: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    padding: usize,
) -> Tensor {
    let geom = Im2col::new(input, kh, kw, stride, padding);
    let (k, n) = (geom.rows(), geom.cols());
    assert_eq!(weights.len(), c_out * k, "weight shape mismatch");
    assert_eq!(bias.len(), c_out, "bias shape mismatch");
    let mut out = vec![0.0f32; c_out * n];
    let data = input.data();
    Gemm {
        a: weights,
        m: c_out,
        k,
        n,
        bias: Some(bias),
        c: &mut out,
        fill: |j0, cols, panel: &mut [f32], ld| geom.fill(data, j0, cols, panel, ld),
    }
    .run_widest();
    Tensor::new(vec![c_out, geom.oh, geom.ow], out).expect("conv output shape")
}

/// Reduce every `size×size` window (step `stride`) of each channel of
/// a CHW tensor to `finish(fold(… fold(init, v₀) …, vₙ))`, the window's
/// values taken row by row.
///
/// An output row starts as `init` and takes in the input rows under it
/// one at a time, so the walk is over whole rows of both tensors and
/// each window still folds in that order.
fn pool2d(
    input: &Tensor,
    size: usize,
    stride: usize,
    init: f32,
    fold: impl Fn(f32, f32) -> f32,
    finish: impl Fn(f32) -> f32,
) -> Tensor {
    let shape = input.shape();
    let (c, h, w) = (shape[0], shape[1], shape[2]);
    let (oh, ow) = (windows(h, size, stride, 0), windows(w, size, stride, 0));
    let mut out = vec![init; c * oh * ow];
    let planes = input.data().chunks_exact(h * w);
    for (plane, out) in planes.zip(out.chunks_exact_mut(oh * ow)) {
        for (oy, out_row) in out.chunks_exact_mut(ow).enumerate() {
            for row in plane[oy * stride * w..][..size * w].chunks_exact(w) {
                for (acc, window) in out_row.iter_mut().zip(row.windows(size).step_by(stride)) {
                    for &v in window {
                        *acc = fold(*acc, v);
                    }
                }
            }
            for acc in out_row {
                *acc = finish(*acc);
            }
        }
    }
    Tensor::new(vec![c, oh, ow], out).expect("pool output shape")
}

/// Max pooling over `size×size` windows with `stride`.
pub fn maxpool2d(input: &Tensor, size: usize, stride: usize) -> Tensor {
    pool2d(input, size, stride, f32::NEG_INFINITY, f32::max, |m| m)
}

/// Average pooling over `size×size` windows with `stride`.
pub fn avgpool2d(input: &Tensor, size: usize, stride: usize) -> Tensor {
    let denom = (size * size) as f32;
    pool2d(input, size, stride, 0.0, |s, v| s + v, |s| s / denom)
}

/// Global average pooling: CHW -> C.
pub fn global_avgpool(input: &Tensor) -> Tensor {
    let shape = input.shape();
    let (c, h, w) = (shape[0], shape[1], shape[2]);
    let plane = h * w;
    let data = input.data();
    let out: Vec<f32> = (0..c)
        .map(|ch| data[ch * plane..(ch + 1) * plane].iter().sum::<f32>() / plane as f32)
        .collect();
    Tensor::from_vec(out)
}

/// In-place ReLU.
pub fn relu(t: &mut Tensor) {
    // A select, not a branch: conv outputs change sign at random and
    // a branch here mispredicts every other element. `-0.0` and NaN
    // are not `< 0.0` and pass through.
    for v in t.data_mut() {
        *v = if *v < 0.0 { 0.0 } else { *v };
    }
}

/// Numerically stable softmax over a 1-D tensor.
pub fn softmax(t: &mut Tensor) {
    let max = t
        .data()
        .iter()
        .fold(f32::NEG_INFINITY, |acc, &v| acc.max(v));
    let mut sum = 0.0;
    for v in t.data_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in t.data_mut() {
            *v /= sum;
        }
    }
}

/// In-place batch normalization (inference mode) per channel of a CHW
/// tensor: `y = gamma * (x - mean)/sqrt(var + eps) + beta`.
pub fn batchnorm(t: &mut Tensor, gamma: &[f32], beta: &[f32], mean: &[f32], var: &[f32]) {
    let plane = t.shape()[1] * t.shape()[2];
    const EPS: f32 = 1e-5;
    for (ch, values) in t.data_mut().chunks_exact_mut(plane.max(1)).enumerate() {
        let scale = gamma[ch] / (var[ch] + EPS).sqrt();
        let shift = beta[ch] - mean[ch] * scale;
        for v in values {
            *v = *v * scale + shift;
        }
    }
}

/// Concatenate CHW tensors along the channel axis; all must share H×W.
pub fn concat_channels(parts: &[Tensor]) -> Tensor {
    assert!(!parts.is_empty());
    let h = parts[0].shape()[1];
    let w = parts[0].shape()[2];
    let total_c: usize = parts
        .iter()
        .map(|p| {
            assert_eq!(p.shape()[1], h, "height mismatch in concat");
            assert_eq!(p.shape()[2], w, "width mismatch in concat");
            p.shape()[0]
        })
        .sum();
    let mut data = Vec::with_capacity(total_c * h * w);
    for p in parts {
        data.extend_from_slice(p.data());
    }
    Tensor::new(vec![total_c, h, w], data).expect("concat shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matmul_small_known() {
        // [1 2; 3 4] x [5 6; 7 8] = [19 22; 43 50]
        let c = matmul(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0], 2, 2, 2);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
    }

    /// Deterministic values with full mantissas, so a reordered sum or
    /// a fused multiply-add changes low bits.
    fn noise(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            })
            .collect()
    }

    /// The bits one instantiation gives a convolution-shaped product:
    /// ragged in both tile dimensions, padded, with bias.
    fn conv_bits(
        run: impl FnOnce(Gemm<'_, &mut dyn FnMut(usize, usize, &mut [f32], usize)>),
    ) -> Vec<u32> {
        let input = Tensor::new(vec![5, 13, 11], noise(5 * 13 * 11, 1)).unwrap();
        let geom = Im2col::new(&input, 3, 3, 1, 1);
        let (m, k, n) = (19, geom.rows(), geom.cols());
        let (weights, bias) = (noise(m * k, 2), noise(m, 3));
        let mut c = vec![0.0f32; m * n];
        run(Gemm {
            a: &weights,
            m,
            k,
            n,
            bias: Some(&bias),
            c: &mut c,
            fill: &mut |j0, cols, panel: &mut [f32], ld| {
                geom.fill(input.data(), j0, cols, panel, ld)
            },
        });
        c.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn every_instantiation_the_host_supports_gives_the_same_bits() {
        let portable = conv_bits(|g| g.run_portable());
        assert_eq!(conv_bits(|g| g.run_widest()), portable);
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU reported avx2 on the line above.
                assert_eq!(conv_bits(|g| unsafe { g.run_avx2() }), portable);
            }
            if is_x86_feature_detected!("avx512f") {
                // SAFETY: the CPU reported avx512f on the line above.
                assert_eq!(conv_bits(|g| unsafe { g.run_avx512() }), portable);
            }
        }
    }

    #[test]
    fn im2col_pads_with_zeros_and_strides() {
        // 1 channel, 3x3 image, 2x2 kernel, stride 2, padding 1:
        // 2x2 outputs whose windows each cover one corner pixel.
        let input = Tensor::new(vec![1, 3, 3], (1..=9).map(|v| v as f32).collect()).unwrap();
        let (cols, oh, ow) = im2col(&input, 2, 2, 2, 1);
        assert_eq!((oh, ow), (2, 2));
        #[rustfmt::skip]
        assert_eq!(cols, vec![
            0.0, 0.0, 0.0, 5.0, // ky 0, kx 0
            0.0, 0.0, 4.0, 6.0, // ky 0, kx 1
            0.0, 2.0, 0.0, 8.0, // ky 1, kx 0
            1.0, 3.0, 7.0, 9.0, // ky 1, kx 1
        ]);
    }

    #[test]
    fn dense_matches_matmul() {
        let w: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let x = vec![1.0, 0.5, -1.0, 2.0];
        assert_eq!(dense(&w, &x, &[0.0; 3]), matmul(&x, &w, 1, 4, 3));
    }

    /// The bits `run` gives `x·W + bias`, beside the bits of summing
    /// one output at a time with `Iterator::sum`.
    fn dense_bits(
        (k, n): (usize, usize),
        run: impl FnOnce(&[f32], &[f32], &[f32]) -> Vec<f32>,
    ) -> (Vec<u32>, Vec<u32>) {
        let (w, x, bias) = (noise(k * n, 4), noise(k, 5), noise(n, 6));
        let one_output_at_a_time = (0..n).map(|o| {
            let products = x.iter().enumerate().map(|(i, xv)| w[i * n + o] * xv);
            products.sum::<f32>() + bias[o]
        });
        (
            run(&w, &x, &bias).iter().map(|v| v.to_bits()).collect(),
            one_output_at_a_time.map(|v| v.to_bits()).collect(),
        )
    }

    #[test]
    fn dense_outputs_keep_their_sequential_sums_in_every_instantiation() {
        // Row chunks short, exact and ragged; output blocks of every
        // width down to one, alone and after full blocks.
        for k in [1, 15, 16, 17, 4096] {
            for n in [1, 10, 31, 32, 33, 256, 1000] {
                let check = |name, (got, want): (Vec<u32>, Vec<u32>)| {
                    assert!(got == want, "{name}, {k} inputs, {n} outputs");
                };
                check("portable", dense_bits((k, n), dense_portable));
                check("widest", dense_bits((k, n), dense));
                #[cfg(target_arch = "x86_64")]
                {
                    if is_x86_feature_detected!("avx2") {
                        // SAFETY: the CPU reported avx2 on the line above.
                        let run = |w: &[f32], x: &[f32], b: &[f32]| unsafe { dense_avx2(w, x, b) };
                        check("avx2", dense_bits((k, n), run));
                    }
                    if is_x86_feature_detected!("avx512f") {
                        // SAFETY: the CPU reported avx512f on the line above.
                        let run =
                            |w: &[f32], x: &[f32], b: &[f32]| unsafe { dense_avx512(w, x, b) };
                        check("avx512", dense_bits((k, n), run));
                    }
                }
            }
        }
    }

    #[test]
    fn conv2d_identity_kernel() {
        // A 1x1 identity kernel must reproduce the input.
        let input = Tensor::new(vec![1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let out = conv2d(&input, &[1.0], &[0.0], 1, 1, 1, 1, 0);
        assert_eq!(out, input);
    }

    #[test]
    fn conv2d_known_3x3() {
        // 3x3 input, 3x3 averaging-ish kernel of ones, no padding:
        // output is the sum of all 9 elements.
        let input = Tensor::new(vec![1, 3, 3], (1..=9).map(|v| v as f32).collect()).unwrap();
        let out = conv2d(&input, &[1.0; 9], &[0.0], 1, 3, 3, 1, 0);
        assert_eq!(out.shape(), &[1, 1, 1]);
        assert_eq!(out.data()[0], 45.0);
    }

    #[test]
    fn conv2d_padding_keeps_size() {
        let input = Tensor::new(vec![1, 4, 4], vec![1.0; 16]).unwrap();
        let out = conv2d(&input, &[1.0; 9], &[0.0], 1, 3, 3, 1, 1);
        assert_eq!(out.shape(), &[1, 4, 4]);
        // Corner sees only 4 ones; centre sees 9.
        assert_eq!(out.at_chw(0, 0, 0), 4.0);
        assert_eq!(out.at_chw(0, 1, 1), 9.0);
    }

    #[test]
    fn conv2d_stride_and_bias() {
        let input = Tensor::new(vec![1, 4, 4], (0..16).map(|v| v as f32).collect()).unwrap();
        let out = conv2d(&input, &[1.0, 0.0, 0.0, 0.0], &[10.0], 1, 2, 2, 2, 0);
        assert_eq!(out.shape(), &[1, 2, 2]);
        // Picks the top-left of each 2x2 window, plus bias.
        assert_eq!(out.data(), &[10.0, 12.0, 18.0, 20.0]);
    }

    #[test]
    fn conv2d_multi_channel_sums_inputs() {
        // Two input channels, kernel of ones: output = c0 + c1 per pixel.
        let input = Tensor::new(
            vec![2, 2, 2],
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0],
        )
        .unwrap();
        let out = conv2d(&input, &[1.0, 1.0], &[0.0], 1, 1, 1, 1, 0);
        assert_eq!(out.data(), &[11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn maxpool_known() {
        let input = Tensor::new(vec![1, 4, 4], (0..16).map(|v| v as f32).collect()).unwrap();
        let out = maxpool2d(&input, 2, 2);
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.data(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn avgpool_known() {
        let input = Tensor::new(vec![1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let out = avgpool2d(&input, 2, 2);
        assert_eq!(out.data(), &[2.5]);
    }

    #[test]
    fn global_avgpool_reduces_planes() {
        let input =
            Tensor::new(vec![2, 2, 2], vec![1.0, 1.0, 1.0, 1.0, 2.0, 4.0, 6.0, 8.0]).unwrap();
        let out = global_avgpool(&input);
        assert_eq!(out.shape(), &[2]);
        assert_eq!(out.data(), &[1.0, 5.0]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut t = Tensor::from_vec(vec![-1.0, 0.0, 2.0]);
        relu(&mut t);
        assert_eq!(t.data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_is_the_branch_it_replaces_bit_for_bit() {
        let specials = [
            -0.0,
            0.0,
            f32::from_bits(0x7fc1_2345), // NaN with a payload
            f32::from_bits(0xffa0_0001), // negative signalling NaN
            f32::INFINITY,
            f32::NEG_INFINITY,
            -f32::from_bits(1),           // smallest negative subnormal
            -f32::from_bits(0x007f_ffff), // largest negative subnormal
            f32::from_bits(1),
            -1.5,
            2.5,
        ];
        // Eleven values cycled over four 16-lane vectors and a tail of
        // seven: every special meets several lanes and the tail.
        let values: Vec<f32> = specials.iter().copied().cycle().take(4 * 16 + 7).collect();
        let want: Vec<u32> = values
            .iter()
            .map(|&v| {
                let mut v = v;
                if v < 0.0 {
                    v = 0.0;
                }
                v.to_bits()
            })
            .collect();
        let mut t = Tensor::from_vec(values);
        relu(&mut t);
        let got: Vec<u32> = t.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
        assert_eq!(got[0], (-0.0f32).to_bits());
        assert_eq!(got[2], 0x7fc1_2345);
        assert_eq!(got[3], 0xffa0_0001);
        assert_eq!(got[5], 0);
        assert_eq!(got[6], 0);
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut t = Tensor::from_vec(vec![1.0, 2.0, 3.0]);
        softmax(&mut t);
        let sum: f32 = t.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(t.data()[2] > t.data()[1] && t.data()[1] > t.data()[0]);
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let mut t = Tensor::from_vec(vec![1000.0, 1001.0]);
        softmax(&mut t);
        assert!(t.data().iter().all(|v| v.is_finite()));
        assert!((t.data().iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn batchnorm_normalizes() {
        let mut t = Tensor::new(vec![1, 1, 2], vec![3.0, 5.0]).unwrap();
        batchnorm(&mut t, &[1.0], &[0.0], &[4.0], &[1.0]);
        assert!((t.data()[0] + 1.0).abs() < 1e-3);
        assert!((t.data()[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn concat_stacks_channels() {
        let a = Tensor::new(vec![1, 1, 2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::new(vec![2, 1, 2], vec![3.0, 4.0, 5.0, 6.0]).unwrap();
        let c = concat_channels(&[a, b]);
        assert_eq!(c.shape(), &[3, 1, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    /// The bits of `reduce` over each pooling window of `input`, the
    /// window's values handed over row by row, left to right.
    fn per_window(
        input: &Tensor,
        size: usize,
        stride: usize,
        reduce: impl Fn(&mut dyn Iterator<Item = f32>) -> f32,
    ) -> Vec<u32> {
        let shape = input.shape();
        let (oh, ow) = (
            windows(shape[1], size, stride, 0),
            windows(shape[2], size, stride, 0),
        );
        (0..shape[0] * oh * ow)
            .map(|cell| {
                let (ch, oy, ox) = (cell / (oh * ow), cell / ow % oh, cell % ow);
                let mut window = (0..size * size)
                    .map(|p| input.at_chw(ch, oy * stride + p / size, ox * stride + p % size));
                reduce(&mut window).to_bits()
            })
            .collect()
    }

    proptest! {
        #[test]
        fn softmax_is_shift_invariant(values in proptest::collection::vec(-10.0f32..10.0, 1..20), shift in -5.0f32..5.0) {
            let mut a = Tensor::from_vec(values.clone());
            let mut b = Tensor::from_vec(values.iter().map(|v| v + shift).collect());
            softmax(&mut a);
            softmax(&mut b);
            for (x, y) in a.data().iter().zip(b.data()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        #[test]
        fn relu_is_idempotent(values in proptest::collection::vec(-10.0f32..10.0, 0..30)) {
            let mut once = Tensor::from_vec(values);
            relu(&mut once);
            let mut twice = once.clone();
            relu(&mut twice);
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn maxpool_never_below_avgpool(
            data in proptest::collection::vec(-5.0f32..5.0, 16)
        ) {
            let t = Tensor::new(vec![1, 4, 4], data).unwrap();
            let mx = maxpool2d(&t, 2, 2);
            let av = avgpool2d(&t, 2, 2);
            for (m, a) in mx.data().iter().zip(av.data()) {
                prop_assert!(m >= a);
            }
        }

        #[test]
        fn pooling_folds_each_window_row_by_row(
            (size, stride) in (1usize..=3, 1usize..=3),
            (c, extra_h, extra_w) in (1usize..=2, 0usize..=4, 0usize..=4),
            values in proptest::collection::vec(
                prop_oneof![Just(-0.0f32), Just(0.0f32), -5.0f32..5.0],
                2 * 7 * 7,
            ),
        ) {
            let (h, w) = (size + extra_h, size + extra_w);
            let input = Tensor::new(vec![c, h, w], values[..c * h * w].to_vec()).unwrap();
            let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(maxpool2d(&input, size, stride)),
                per_window(&input, size, stride, |w| w.fold(f32::NEG_INFINITY, f32::max))
            );
            let area = (size * size) as f32;
            prop_assert_eq!(
                bits(avgpool2d(&input, size, stride)),
                per_window(&input, size, stride, |w| w.fold(0.0, |s, v| s + v) / area)
            );
        }

        #[test]
        fn matmul_distributes_over_scaling(
            a in proptest::collection::vec(-3.0f32..3.0, 6),
            b in proptest::collection::vec(-3.0f32..3.0, 6),
            s in -2.0f32..2.0,
        ) {
            // (sA)B == s(AB)
            let scaled_a: Vec<f32> = a.iter().map(|v| v * s).collect();
            let left = matmul(&scaled_a, &b, 2, 3, 2);
            let right: Vec<f32> = matmul(&a, &b, 2, 3, 2).iter().map(|v| v * s).collect();
            for (l, r) in left.iter().zip(&right) {
                prop_assert!((l - r).abs() < 1e-3);
            }
        }
    }
}

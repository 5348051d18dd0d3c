// Core numeric kernels shared by the layers: GEMM-backed matrix products,
// im2col-lowered convolution forward & backward, and pooling.
//
// The matrix products call the blocked/packed/vectorized SGEMM in
// nn/gemm.h; convolutions are lowered onto the same GEMM through
// im2col/col2im with per-thread scratch-arena buffers (nn/scratch.h), or
// into caller-provided column storage that the backward pass reuses.
// The ops' references live with the tests: tests/nn/gemm_test.cc pins the
// matrix products byte for byte against a scalar in-order k-chain, and
// tests/nn/conv_reference.h holds direct-loop convolution forward and
// backward.

#ifndef FEDMIGR_NN_OPS_H_
#define FEDMIGR_NN_OPS_H_

#include "nn/tensor.h"

namespace fedmigr::nn {

// C = A(MxK) * B(KxN).
Tensor MatMul(const Tensor& a, const Tensor& b);
// C = A(MxK) * B^T(NxK -> KxN view): used for input gradients.
Tensor MatMulTransB(const Tensor& a, const Tensor& b);

// 2-D convolution, NCHW layout, stride 1, symmetric zero padding.
//   input  [N, Cin, H, W]
//   kernel [Cout, Cin, Kh, Kw]
//   bias   [Cout]
//   output [N, Cout, H + 2*pad - Kh + 1, W + 2*pad - Kw + 1]
//
// `columns`, when given, receives the batch's im2col column matrices
// (Conv2dColumnFloats(input, kernel, pad) floats: image by image, each
// [Cin*Kh*Kw, H'*W'] row-major) so a later Conv2dBackward on the same
// input can skip lowering it again. The output is the same bytes either
// way; without it the lowering uses per-image scratch.
Tensor Conv2dForward(const Tensor& input, const Tensor& kernel,
                     const Tensor& bias, int pad, float* columns = nullptr);

// Floats the column matrices of Conv2dForward's `columns` take:
// N * (Cin*Kh*Kw) * (H'*W'). Checks the shapes as Conv2dForward does.
int64_t Conv2dColumnFloats(const Tensor& input, const Tensor& kernel,
                           int pad);

// Gradients of Conv2dForward. grad_output must have the forward output's
// shape (checked). A null grad_input skips the input gradient (its GEMM
// and col2im); the kernel and bias gradients are the same bytes either way.
// `columns`, when given, must be what Conv2dForward wrote for this `input`,
// `kernel` shape and `pad`; the kernel-gradient pass reads it instead of
// lowering the input again, and every output is the same bytes.
void Conv2dBackward(const Tensor& input, const Tensor& kernel, int pad,
                    const Tensor& grad_output, Tensor* grad_input,
                    Tensor* grad_kernel, Tensor* grad_bias,
                    const float* columns = nullptr);

// 2x2 max pooling with stride 2 (the only pooling the paper's models use).
// `argmax` (same shape as output) records the flat input offset of each
// selected element for the backward pass. Each window keeps its first
// maximum in (dy, dx) order under a strict `>`: ties (-0 and +0 included)
// keep the earlier element, and a NaN is kept only in the first position.
Tensor MaxPool2x2Forward(const Tensor& input, Tensor* argmax);
// `input_shape` must be the forward's input shape, [N, C, 2*oh, 2*ow] for
// an argmax of [N, C, oh, ow] (checked): the offsets index into it.
Tensor MaxPool2x2Backward(const Tensor& grad_output, const Tensor& argmax,
                          const Shape& input_shape);

}  // namespace fedmigr::nn

#endif  // FEDMIGR_NN_OPS_H_

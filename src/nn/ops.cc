#include "nn/ops.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "nn/gemm.h"
#include "nn/scratch.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "util/logging.h"

namespace fedmigr::nn {

namespace {

// Calls fn(std::integral_constant<int, W>, std::integral_constant<int, KW>)
// with (W, KW) = (ow, kw) for the zoo convs' 8x8 and 4x4 outputs of 5x5
// kernels and (0, 0) (known only at run time) otherwise. A compile-time row
// width turns each row copy of the lowering into a few inline vector ops
// instead of a memcpy call, and lets Col2im hold a plane row in registers.
template <typename Fn>
void WithRowShape(int ow, int kw, Fn&& fn) {
  using Five = std::integral_constant<int, 5>;
  if (kw == 5 && ow == 8) {
    fn(std::integral_constant<int, 8>{}, Five{});
  } else if (kw == 5 && ow == 4) {
    fn(std::integral_constant<int, 4>{}, Five{});
  } else {
    fn(std::integral_constant<int, 0>{}, std::integral_constant<int, 0>{});
  }
}

// Expands a zero-bordered plane (see Im2col) into the im2col column matrix
// cols[cin*kh*kw, oh*ow]: row (ic, ky, kx), column (oy, ox) holds
// plane(ic, oy + ky, ox + kx), i.e. input(ic, oy + ky - pad, ox + kx - pad)
// or the zero border. Rows are ordered (ic, ky, kx) — the same order the
// legacy conv kernel accumulated taps in, so the GEMM's k-ordered reduction
// reproduces its float association. With the border in the plane, every
// row segment is the same fixed-width copy; no branch depends on the tap.
// Im2colRows and Col2imRows stay out of line and start a cache line, as
// MicroKernelAvx2 does (gemm.cc), so their speed does not move with the
// size of the code around them.
template <int kFixedOw>
__attribute__((noinline, aligned(64))) void Im2colRows(const float* plane,
                                                       int cin, int ph, int pw,
                                                       int kh, int kw, int oh,
                                                       int ow_dynamic,
                                                       float* cols) {
  const int ow = kFixedOw > 0 ? kFixedOw : ow_dynamic;
  float* dst = cols;
  for (int ic = 0; ic < cin; ++ic) {
    const float* plane_c = plane + static_cast<int64_t>(ic) * ph * pw;
    for (int ky = 0; ky < kh; ++ky) {
      for (int kx = 0; kx < kw; ++kx) {
        const float* src = plane_c + ky * pw + kx;
        for (int oy = 0; oy < oh; ++oy, src += pw, dst += ow) {
          std::memcpy(dst, src, static_cast<size_t>(ow) * sizeof(float));
        }
      }
    }
  }
}

// Lowers one NCHW image (cin x h x w) through `plane`, a scratch buffer of
// cin x (h + 2*pad) x (w + 2*pad) floats whose border the caller zeroed:
// the image is copied into the plane's interior (the border is never
// written, so one zeroing serves image after image), then expanded by
// Im2colRows.
void Im2col(const float* in, int cin, int h, int w, int kh, int kw, int pad,
            int oh, int ow, float* plane, float* cols) {
  const int ph = h + 2 * pad, pw = w + 2 * pad;
  for (int ic = 0; ic < cin; ++ic) {
    const float* src = in + static_cast<int64_t>(ic) * h * w;
    float* dst = plane + static_cast<int64_t>(ic) * ph * pw + pad * pw + pad;
    for (int y = 0; y < h; ++y, src += w, dst += pw) {
      std::memcpy(dst, src, static_cast<size_t>(w) * sizeof(float));
    }
  }
  WithRowShape(ow, kw, [&](auto fixed_ow, auto) {
    Im2colRows<fixed_ow()>(plane, cin, ph, pw, kh, kw, oh, ow, cols);
  });
}

// plane(ic, oy + ky, ox + kx) += cols row (ic, ky, kx), column (oy, ox),
// walking (ic, ky, oy, kx, ox): each (ic, ky, oy) step adds the kw column-
// matrix rows (ic, ky, 0..kw-1) at column block oy into plane row oy + ky,
// which is ow + kw - 1 = pw wide. With a compile-time shape that row is
// loaded once, accumulated in registers and stored once; adding the kx taps
// straight into memory would make each tap's loads wait on the previous
// tap's overlapping stores. Every element still receives its taps in
// increasing (ky, kx) order: ky is the outer loop, and a plane row meets
// each ky once, with its kx taps in order.
template <int kFixedOw, int kFixedKw>
__attribute__((noinline, aligned(64))) void Col2imRows(const float* cols,
                                                       int cin, int ph, int pw,
                                                       int kh, int kw_dynamic,
                                                       int oh, int ow_dynamic,
                                                       float* plane) {
  const int ow = kFixedOw > 0 ? kFixedOw : ow_dynamic;
  const int kw = kFixedKw > 0 ? kFixedKw : kw_dynamic;
  const int64_t ohw = static_cast<int64_t>(oh) * ow;  // one cols row
  const float* src_ky = cols;
  for (int ic = 0; ic < cin; ++ic) {
    float* plane_c = plane + static_cast<int64_t>(ic) * ph * pw;
    for (int ky = 0; ky < kh; ++ky, src_ky += kw * ohw) {
      for (int oy = 0; oy < oh; ++oy) {
        float* dst = plane_c + (oy + ky) * pw;
        const float* src = src_ky + oy * ow;
        if constexpr (kFixedOw > 0) {
          constexpr int kRow = kFixedOw + kFixedKw - 1;
          float row[kRow];
          for (int x = 0; x < kRow; ++x) row[x] = dst[x];
          for (int kx = 0; kx < kFixedKw; ++kx) {
            for (int ox = 0; ox < kFixedOw; ++ox) {
              row[kx + ox] += src[kx * ohw + ox];
            }
          }
          for (int x = 0; x < kRow; ++x) dst[x] = row[x];
        } else {
          for (int kx = 0; kx < kw; ++kx) {
            for (int ox = 0; ox < ow; ++ox) dst[kx + ox] += src[kx * ohw + ox];
          }
        }
      }
    }
  }
}

// Transpose of Im2col: scatter-adds the column matrix into `plane` (zeroed
// here), then stores the plane's interior into the image gradient `gin`.
// Each interior element receives its taps in the same (ky, kx) order,
// summed from +0, as a scatter straight into `gin` would give; the border
// collects the padding taps and is discarded. `gin` must be freshly zeroed,
// so the store equals adding the interior to it.
void Col2im(const float* cols, int cin, int h, int w, int kh, int kw, int pad,
            int oh, int ow, float* plane, float* gin) {
  const int ph = h + 2 * pad, pw = w + 2 * pad;
  std::memset(plane, 0, static_cast<size_t>(cin) * ph * pw * sizeof(float));
  WithRowShape(ow, kw, [&](auto fixed_ow, auto fixed_kw) {
    Col2imRows<fixed_ow(), fixed_kw()>(cols, cin, ph, pw, kh, kw, oh, ow,
                                       plane);
  });
  for (int ic = 0; ic < cin; ++ic) {
    const float* src_c =
        plane + static_cast<int64_t>(ic) * ph * pw + pad * pw + pad;
    float* gin_c = gin + static_cast<int64_t>(ic) * h * w;
    for (int y = 0; y < h; ++y, src_c += pw, gin_c += w) {
      std::memcpy(gin_c, src_c, static_cast<size_t>(w) * sizeof(float));
    }
  }
}

// Validated dimensions of a stride-1 convolution of `input` by `kernel`.
struct ConvDims {
  int batch, cin, h, w, cout, kh, kw, oh, ow;
  int kcols() const { return cin * kh * kw; }  // GEMM reduction depth
  int ohw() const { return oh * ow; }
};

ConvDims CheckConvDims(const Tensor& input, const Tensor& kernel, int pad) {
  FEDMIGR_CHECK_EQ(input.ndim(), 4);
  FEDMIGR_CHECK_EQ(kernel.ndim(), 4);
  ConvDims d;
  d.batch = input.dim(0);
  d.cin = input.dim(1);
  d.h = input.dim(2);
  d.w = input.dim(3);
  d.cout = kernel.dim(0);
  d.kh = kernel.dim(2);
  d.kw = kernel.dim(3);
  FEDMIGR_CHECK_EQ(kernel.dim(1), d.cin);
  d.oh = d.h + 2 * pad - d.kh + 1;
  d.ow = d.w + 2 * pad - d.kw + 1;
  FEDMIGR_CHECK_GT(d.oh, 0);
  FEDMIGR_CHECK_GT(d.ow, 0);
  return d;
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  FEDMIGR_CHECK_EQ(a.ndim(), 2);
  FEDMIGR_CHECK_EQ(b.ndim(), 2);
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  FEDMIGR_CHECK_EQ(b.dim(0), k);
  Tensor c({m, n});
  Sgemm(false, false, m, n, k, a.data(), k, b.data(), n, c.data(), n);
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  FEDMIGR_CHECK_EQ(a.ndim(), 2);
  FEDMIGR_CHECK_EQ(b.ndim(), 2);
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  FEDMIGR_CHECK_EQ(b.dim(1), k);
  Tensor c({m, n});
  Sgemm(false, true, m, n, k, a.data(), k, b.data(), k, c.data(), n);
  return c;
}

Tensor Conv2dForward(const Tensor& input, const Tensor& kernel,
                     const Tensor& bias, int pad, float* columns) {
  const ConvDims d = CheckConvDims(input, kernel, pad);
  const int batch = d.batch, cin = d.cin, h = d.h, w = d.w;
  const int cout = d.cout, kh = d.kh, kw = d.kw, oh = d.oh, ow = d.ow;
  FEDMIGR_CHECK_EQ(bias.size(), cout);
  Tensor output({batch, cout, oh, ow});

  const int kcols = d.kcols();
  const int ohw = d.ohw();
  if (obs::Telemetry::enabled()) {
    static obs::Counter* conv_calls =
        obs::Registry::Default().GetCounter("nn/conv_calls");
    static obs::Counter* conv_flops =
        obs::Registry::Default().GetCounter("nn/conv_flops");
    conv_calls->Increment();
    conv_flops->Add(2ll * batch * cout * ohw * kcols);
  }
  const int64_t in_img = static_cast<int64_t>(cin) * h * w;
  const int64_t out_img = static_cast<int64_t>(cout) * ohw;
  const int64_t cols_img = static_cast<int64_t>(kcols) * ohw;
  const float* in = input.data();
  const float* ker = kernel.data();  // [cout, kcols] row-major
  const float* bias_p = bias.data();
  float* out = output.data();

  const int64_t plane_size =
      static_cast<int64_t>(cin) * (h + 2 * pad) * (w + 2 * pad);

  // One scratch set and one zeroing for the batch: Im2col writes only the
  // plane's interior, so the zero border serves every image.
  ScratchArena::Scope scope;
  ScratchArena& arena = ScratchArena::ThreadLocal();
  float* scratch_cols =
      columns == nullptr ? arena.AllocFloats(cols_img) : nullptr;
  float* plane = arena.AllocFloats(plane_size);
  std::memset(plane, 0, static_cast<size_t>(plane_size) * sizeof(float));
  for (int64_t img = 0; img < batch; ++img) {
    float* cols = columns != nullptr ? columns + img * cols_img : scratch_cols;
    Im2col(in + img * in_img, cin, h, w, kh, kw, pad, oh, ow, plane, cols);
    float* out_n = out + img * out_img;
    // Pre-fill with the bias and let the GEMM accumulate on top of it
    // (kSeedFromC), matching the legacy kernel's bias-first reduction.
    for (int oc = 0; oc < cout; ++oc) {
      std::fill(out_n + static_cast<int64_t>(oc) * ohw,
                out_n + static_cast<int64_t>(oc + 1) * ohw, bias_p[oc]);
    }
    Sgemm(false, false, cout, ohw, kcols, ker, kcols, cols, ohw, out_n, ohw,
          GemmAcc::kSeedFromC);
  }
  return output;
}

int64_t Conv2dColumnFloats(const Tensor& input, const Tensor& kernel,
                           int pad) {
  const ConvDims d = CheckConvDims(input, kernel, pad);
  return static_cast<int64_t>(d.batch) * d.kcols() * d.ohw();
}

void Conv2dBackward(const Tensor& input, const Tensor& kernel, int pad,
                    const Tensor& grad_output, Tensor* grad_input,
                    Tensor* grad_kernel, Tensor* grad_bias,
                    const float* columns) {
  const ConvDims d = CheckConvDims(input, kernel, pad);
  const int batch = d.batch, cin = d.cin, h = d.h, w = d.w;
  const int cout = d.cout, kh = d.kh, kw = d.kw, oh = d.oh, ow = d.ow;
  // The lowering sizes its scratch plane from the input and walks the
  // gradient with oh x ow taps, so any other gradient shape reads past it.
  const Shape output_shape{batch, cout, oh, ow};
  FEDMIGR_CHECK(grad_output.shape() == output_shape)
      << "grad_output " << ShapeToString(grad_output.shape())
      << " != conv output " << ShapeToString(output_shape);

  if (grad_input != nullptr) *grad_input = Tensor(input.shape());
  *grad_kernel = Tensor(kernel.shape());
  *grad_bias = Tensor(Shape{cout});

  const int kcols = d.kcols();
  const int ohw = d.ohw();
  if (obs::Telemetry::enabled()) {
    static obs::Counter* conv_calls =
        obs::Registry::Default().GetCounter("nn/conv_calls");
    static obs::Counter* conv_flops =
        obs::Registry::Default().GetCounter("nn/conv_flops");
    conv_calls->Increment();
    // One GEMM per image for the kernel gradient, one more for the input
    // gradient when the caller wants it.
    conv_flops->Add((grad_input != nullptr ? 4ll : 2ll) * batch * cout * ohw *
                    kcols);
  }
  const int64_t in_img = static_cast<int64_t>(cin) * h * w;
  const int64_t out_img = static_cast<int64_t>(cout) * ohw;
  const int64_t cols_img = static_cast<int64_t>(kcols) * ohw;
  const float* in = input.data();
  const float* ker = kernel.data();
  const float* go = grad_output.data();
  float* gker = grad_kernel->data();
  float* gbias = grad_bias->data();

  // Bias gradient: a cheap streaming sum, kept serial and in the legacy
  // element order. The running sum lives in a register: gbias may alias
  // go as far as the compiler knows, so `gbias[oc] += ...` would store and
  // reload it on every element.
  for (int64_t img = 0; img < batch; ++img) {
    const float* go_n = go + img * out_img;
    for (int oc = 0; oc < cout; ++oc) {
      const float* go_c = go_n + static_cast<int64_t>(oc) * ohw;
      float sum = gbias[oc];
      for (int i = 0; i < ohw; ++i) sum += go_c[i];
      gbias[oc] = sum;
    }
  }

  const int64_t plane_size =
      static_cast<int64_t>(cin) * (h + 2 * pad) * (w + 2 * pad);

  // Input gradient, unless the caller drops it: dcols = K^T (kcols x cout)
  // · dY_img (cout x ohw), then scattered back into this image's slice of
  // grad_input. Col2im zeroes the plane itself.
  if (grad_input != nullptr) {
    float* gin = grad_input->data();
    ScratchArena::Scope scope;
    ScratchArena& arena = ScratchArena::ThreadLocal();
    float* cols_grad = arena.AllocFloats(cols_img);
    float* plane = arena.AllocFloats(plane_size);
    for (int64_t img = 0; img < batch; ++img) {
      Sgemm(true, false, kcols, ohw, cout, ker, kcols, go + img * out_img, ohw,
            cols_grad, ohw, GemmAcc::kOverwrite);
      Col2im(cols_grad, cin, h, w, kh, kw, pad, oh, ow, plane,
             gin + img * in_img);
    }
  }

  // Kernel gradient, in image order: each dK_img = dY_img (cout x ohw) ·
  // cols_img^T (ohw x kcols) is reduced in registers and then added into
  // grad_kernel (kAddAfter), giving the fixed tree ((0 + P_0) + P_1) + ...;
  // the columns are the forward's when the caller kept them, else each
  // image is lowered again, and both are the same bytes.
  ScratchArena::Scope scope;
  ScratchArena& arena = ScratchArena::ThreadLocal();
  float* lowered = nullptr;
  float* plane = nullptr;
  if (columns == nullptr) {
    lowered = arena.AllocFloats(cols_img);
    plane = arena.AllocFloats(plane_size);
    std::memset(plane, 0, static_cast<size_t>(plane_size) * sizeof(float));
  }
  for (int64_t img = 0; img < batch; ++img) {
    const float* cols = lowered;
    if (columns != nullptr) {
      cols = columns + img * cols_img;
    } else {
      Im2col(in + img * in_img, cin, h, w, kh, kw, pad, oh, ow, plane,
             lowered);
    }
    Sgemm(false, true, cout, kcols, ohw, go + img * out_img, ohw, cols, ohw,
          gker, kcols, GemmAcc::kAddAfter);
  }
}

Tensor MaxPool2x2Forward(const Tensor& input, Tensor* argmax) {
  FEDMIGR_CHECK_EQ(input.ndim(), 4);
  const int batch = input.dim(0), c = input.dim(1);
  const int h = input.dim(2), w = input.dim(3);
  FEDMIGR_CHECK_EQ(h % 2, 0);
  FEDMIGR_CHECK_EQ(w % 2, 0);
  // argmax stores flat input offsets as floats, which hold every integer
  // up to 2^24 exactly; past that, offsets round and the backward pass
  // would route gradients to the wrong element.
  FEDMIGR_CHECK_LE(input.size(), int64_t{1} << 24);
  const int oh = h / 2, ow = w / 2;
  Tensor output({batch, c, oh, ow});
  *argmax = Tensor({batch, c, oh, ow});
  const float* in = input.data();
  float* out = output.data();
  float* arg = argmax->data();
  const int64_t planes = static_cast<int64_t>(batch) * c;
  // Window offsets as floats: every offset is below 2^24, so each sum
  // below is exact and equals the integer offset converted once.
  const float right = 1.0f, down = static_cast<float>(w),
              down_right = static_cast<float>(w + 1);
  for (int64_t plane = 0; plane < planes; ++plane) {
    const float* in_p = in + plane * h * w;
    const int64_t in_base = plane * h * w;
    for (int oy = 0; oy < oh; ++oy) {
      const float* row0 = in_p + (2 * oy) * w;
      const float* row1 = row0 + w;
      const int32_t row_base =
          static_cast<int32_t>(in_base + static_cast<int64_t>(2 * oy) * w);
      for (int ox = 0; ox < ow; ++ox) {
        const int x = 2 * ox;
        // Strictly-greater selects in (dy, dx) order keep the first
        // maximum, as the branches they replace did: a tie or a NaN never
        // wins a comparison. Selects do not mispredict on random data.
        const float v00 = row0[x], v01 = row0[x + 1];
        const float v10 = row1[x], v11 = row1[x + 1];
        const bool take01 = v01 > v00;
        float best = take01 ? v01 : v00;
        float offset = take01 ? right : 0.0f;
        const bool take10 = v10 > best;
        best = take10 ? v10 : best;
        offset = take10 ? down : offset;
        const bool take11 = v11 > best;
        best = take11 ? v11 : best;
        offset = take11 ? down_right : offset;
        out[ox] = best;
        arg[ox] = static_cast<float>(row_base + x) + offset;
      }
      out += ow;
      arg += ow;
    }
  }
  return output;
}

Tensor MaxPool2x2Backward(const Tensor& grad_output, const Tensor& argmax,
                          const Shape& input_shape) {
  // argmax holds offsets into the forward's input; a smaller input_shape
  // would turn them into out-of-bounds writes.
  FEDMIGR_CHECK(grad_output.SameShape(argmax));
  FEDMIGR_CHECK_EQ(argmax.ndim(), 4);
  const Shape forward_input{argmax.dim(0), argmax.dim(1), 2 * argmax.dim(2),
                            2 * argmax.dim(3)};
  FEDMIGR_CHECK(input_shape == forward_input)
      << "input_shape " << ShapeToString(input_shape) << " != "
      << ShapeToString(forward_input) << " for argmax "
      << ShapeToString(argmax.shape());
  Tensor grad_input(input_shape);
  for (int64_t i = 0; i < grad_output.size(); ++i) {
    const int64_t flat = static_cast<int64_t>(argmax[i]);
    grad_input[flat] += grad_output[i];
  }
  return grad_input;
}

}  // namespace fedmigr::nn

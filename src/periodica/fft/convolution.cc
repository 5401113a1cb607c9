#include "periodica/fft/convolution.h"

#include "periodica/fft/fft.h"

namespace periodica::fft {

std::vector<double> LinearConvolve(std::span<const double> x,
                                   std::span<const double> y) {
  if (x.empty() || y.empty()) return {};
  const std::size_t out_len = x.size() + y.size() - 1;
  const std::size_t n = NextPowerOfTwo(out_len);

  // Pack x into the real lanes and y into the imaginary lanes; the spectra
  // separate by conjugate symmetry, saving one full FFT.
  std::vector<Complex> packed(n, Complex(0, 0));
  for (std::size_t i = 0; i < x.size(); ++i) packed[i] += Complex(x[i], 0);
  for (std::size_t i = 0; i < y.size(); ++i) packed[i] += Complex(0, y[i]);
  const FftPlan& plan = GetPlan(n);
  plan.Forward(packed.data());

  std::vector<Complex> product(n);
  for (std::size_t k = 0; k < n; ++k) {
    const Complex z_k = packed[k];
    const Complex z_conj = std::conj(packed[(n - k) % n]);
    const Complex x_k = 0.5 * (z_k + z_conj);
    const Complex y_k = Complex(0, -0.5) * (z_k - z_conj);
    product[k] = x_k * y_k;
  }
  plan.Inverse(product.data());

  std::vector<double> out(out_len);
  for (std::size_t i = 0; i < out_len; ++i) out[i] = product[i].real();
  return out;
}

std::vector<double> Autocorrelation(std::span<const double> x) {
  if (x.empty()) return {};
  if (x.size() == 1) return {x[0] * x[0]};
  const std::size_t n = x.size();
  const std::size_t padded = NextPowerOfTwo(2 * n);

  // The padding overload zero-extends internally — no O(padded) copy.
  std::vector<Complex> spectrum = RealFftForward(x, padded);
  for (auto& bin : spectrum) {
    bin = Complex(std::norm(bin), 0.0);
  }
  std::vector<double> correlation = RealFftInverse(spectrum, padded);

  correlation.resize(n);
  return correlation;
}

std::vector<double> CrossCorrelation(std::span<const double> x,
                                     std::span<const double> y) {
  if (x.empty() || y.empty()) return {};
  const std::size_t n = NextPowerOfTwo(x.size() + y.size());
  const FftPlan& plan = GetPlan(n);

  std::vector<Complex> packed(n, Complex(0, 0));
  for (std::size_t i = 0; i < x.size(); ++i) packed[i] += Complex(x[i], 0);
  for (std::size_t i = 0; i < y.size(); ++i) packed[i] += Complex(0, y[i]);
  plan.Forward(packed.data());

  // r[p] = sum_i x[i] y[i+p] is the inverse transform of conj(X) .* Y.
  std::vector<Complex> product(n);
  for (std::size_t k = 0; k < n; ++k) {
    const Complex z_k = packed[k];
    const Complex z_conj = std::conj(packed[(n - k) % n]);
    const Complex x_k = 0.5 * (z_k + z_conj);
    const Complex y_k = Complex(0, -0.5) * (z_k - z_conj);
    product[k] = std::conj(x_k) * y_k;
  }
  plan.Inverse(product.data());

  std::vector<double> out(y.size());
  for (std::size_t p = 0; p < y.size(); ++p) out[p] = product[p].real();
  return out;
}

}  // namespace periodica::fft

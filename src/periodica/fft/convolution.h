#ifndef PERIODICA_FFT_CONVOLUTION_H_
#define PERIODICA_FFT_CONVOLUTION_H_

#include <span>
#include <vector>

namespace periodica::fft {

/// Linear convolution (x * y)[i] = sum_j x[j] y[i-j], length |x|+|y|-1.
/// Evaluated with one complex FFT by packing x and y into the real and
/// imaginary lanes; O((|x|+|y|) log(|x|+|y|)).
[[nodiscard]] std::vector<double> LinearConvolve(std::span<const double> x,
                                                 std::span<const double> y);

/// Autocorrelation at non-negative lags: r[p] = sum_i x[i] x[i+p] for
/// p = 0..|x|-1. This is the per-symbol slice of the paper's self-convolution
/// (Sect. 3.1): with x the 0/1 indicator vector of a symbol, r[p] counts the
/// matches of that symbol when the series is compared against itself shifted
/// by p — i.e. |W_{p,k}|. Evaluated with real-input FFTs in O(|x| log |x|).
[[nodiscard]] std::vector<double> Autocorrelation(std::span<const double> x);

/// Cross-correlation at non-negative lags: r[p] = sum_i x[i] y[i+p] for
/// p = 0..|y|-1 (terms with i+p >= |y| or i >= |x| are dropped).
[[nodiscard]] std::vector<double> CrossCorrelation(
    std::span<const double> x, std::span<const double> y);

}  // namespace periodica::fft

#endif  // PERIODICA_FFT_CONVOLUTION_H_

#ifndef PERIODICA_UTIL_BITSET_H_
#define PERIODICA_UTIL_BITSET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "periodica/util/logging.h"

namespace periodica {

/// A fixed-size, heap-backed bitset with the word-level primitives the exact
/// convolution miner needs: shifted AND-counts and shifted AND-collection.
/// Bit i of the set corresponds to position i of the underlying sequence.
///
/// This type is the library's arbitrary-precision binary integer: the paper's
/// weighted-convolution component c'_p is a sum of distinct powers of two, so
/// it is exactly a DynamicBitset whose set bits are the exponents.
class DynamicBitset {
 public:
  DynamicBitset() = default;

  /// Creates a bitset of `num_bits` zero bits.
  explicit DynamicBitset(std::size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  DynamicBitset(const DynamicBitset&) = default;
  DynamicBitset& operator=(const DynamicBitset&) = default;
  DynamicBitset(DynamicBitset&&) = default;
  DynamicBitset& operator=(DynamicBitset&&) = default;

  [[nodiscard]] std::size_t size() const { return num_bits_; }
  [[nodiscard]] bool empty() const { return num_bits_ == 0; }

  void Set(std::size_t i) {
    PERIODICA_DCHECK(i < num_bits_);
    PERIODICA_DCHECK((i >> 6) < words_.size());
    words_[i >> 6] |= (std::uint64_t{1} << (i & 63));
  }
  void Reset(std::size_t i) {
    PERIODICA_DCHECK(i < num_bits_);
    PERIODICA_DCHECK((i >> 6) < words_.size());
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  void SetTo(std::size_t i, bool value) {
    if (value) {
      Set(i);
    } else {
      Reset(i);
    }
  }
  [[nodiscard]] bool Test(std::size_t i) const {
    PERIODICA_DCHECK(i < num_bits_);
    PERIODICA_DCHECK((i >> 6) < words_.size());
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// ORs a whole 64-bit word of bits into word `w` (bits 64*w .. 64*w+63) in
  /// one store. This is the cache-blocked indicator builder's write primitive:
  /// it lets core/fft_miner.cc accumulate one word per symbol in registers
  /// and touch each destination cache line once instead of once per bit.
  /// `bits` must not set positions at or beyond size() (the tail-mask
  /// invariant is the caller's responsibility here, checked in debug builds).
  void OrWord(std::size_t w, std::uint64_t bits) {
    PERIODICA_DCHECK(w < words_.size());
    PERIODICA_DCHECK(w * 64 < num_bits_);
    PERIODICA_DCHECK(num_bits_ - w * 64 >= 64 ||
                     (bits >> (num_bits_ - w * 64)) == 0)
        << "OrWord bits past size()";
    words_[w] |= bits;
  }

  /// Sets every bit to zero without changing the size.
  void Clear();

  /// Appends all of `other`'s bits after this set's bits (sizes add); bit i
  /// of `other` becomes bit size() + i. Supports unaligned sizes.
  void Append(const DynamicBitset& other);

  /// Number of set bits.
  [[nodiscard]] std::size_t Count() const;

  /// Number of positions i with Test(i) && other.Test(i + shift).
  /// Positions where i + shift falls outside `other` contribute nothing.
  /// This is the popcount of (*this & (other >> shift)) and is the inner
  /// loop of the exact convolution miner. The bulk of the work dispatches to
  /// the active SIMD kernel (util/cpu_features.h); every kernel returns the
  /// identical count.
  [[nodiscard]] std::size_t CountAndShifted(const DynamicBitset& other,
                                            std::size_t shift) const;

  /// Appends to `out` every position i with Test(i) && other.Test(i + shift),
  /// in increasing order of i. This is the exact engine's per-period
  /// collection; one scalar word loop serves every SIMD kernel setting.
  void CollectAndShifted(const DynamicBitset& other, std::size_t shift,
                         std::vector<std::size_t>* out) const;

  /// Positions of all set bits, in increasing order.
  [[nodiscard]] std::vector<std::size_t> SetBits() const;

  /// Calls `fn(i)` for every set bit position i, in increasing order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = __builtin_ctzll(word);
        fn(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// In-place intersection; both operands must have equal size.
  DynamicBitset& operator&=(const DynamicBitset& other);
  /// In-place union; both operands must have equal size.
  DynamicBitset& operator|=(const DynamicBitset& other);

  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }

  /// Direct word access (little-endian: word 0 holds bits 0..63).
  [[nodiscard]] const std::vector<std::uint64_t>& words() const {
    return words_;
  }

 private:
  /// Masks the unused high bits of the final word to zero so popcounts stay
  /// exact after word-level operations.
  void MaskTail();

  std::size_t num_bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace periodica

#endif  // PERIODICA_UTIL_BITSET_H_

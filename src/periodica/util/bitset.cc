#include "periodica/util/bitset.h"

#include <algorithm>
#include <bit>

#include "periodica/util/cpu_features.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PERIODICA_HAVE_AVX2_KERNELS 1
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#define PERIODICA_HAVE_NEON_KERNELS 1
#endif

namespace periodica {

void DynamicBitset::Clear() {
  std::fill(words_.begin(), words_.end(), std::uint64_t{0});
}

void DynamicBitset::MaskTail() {
  const std::size_t tail = num_bits_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << tail) - 1;
  }
}

namespace {

// ---------------------------------------------------------------------------
// Bulk kernels.
//
// The shifted-AND kernels share one contract:
//
//   result = sum (AND-popcount, one kernel per SIMD flavour) or emit
//   (collect, scalar only), for w in [0, nw):
//     a[w] & ShiftedWord(b_lo, off, w)
//
// where ShiftedWord reads the 64 bits of b starting `off` bits into word
// b_lo[w]: off == 0 reads b_lo[w] directly; off in [1, 63] combines
// b_lo[w] >> off with b_lo[w + 1] << (64 - off), so b_lo[nw] must be
// readable when off != 0. The caller (CountAndShifted / CollectAndShifted)
// chooses nw so that every read stays inside the operand's word storage and
// no result bit lies at or beyond the count limit — which is why the kernels
// themselves never mask. The popcount kernels are bit-for-bit
// interchangeable; util::ActiveSimdKernel() only picks the fastest one.
// ---------------------------------------------------------------------------

/// The 64 bits of b starting at bit offset `off` within word `w` of `b_lo`.
/// `off` must be in [0, 63]; the off == 0 special case avoids the undefined
/// 64-bit shift.
inline std::uint64_t ShiftedWord(const std::uint64_t* b_lo, unsigned off,
                                 std::size_t w) {
  if (off == 0) return b_lo[w];
  return (b_lo[w] >> off) | (b_lo[w + 1] << (64 - off));
}

std::uint64_t ScalarBulkAndPopcount(const std::uint64_t* a,
                                    const std::uint64_t* b_lo, unsigned off,
                                    std::size_t nw) {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < nw; ++w) {
    total += static_cast<std::uint64_t>(
        std::popcount(a[w] & ShiftedWord(b_lo, off, w)));
  }
  return total;
}

/// Count-trailing-zeros that is defined (and correct for nonzero inputs)
/// even when `x` is 0: forcing bit 63 caps the result at 63 without changing
/// it for any nonzero x. Lets the branchless extractor below issue its
/// speculative writes without an undefined ctz(0).
inline std::size_t Ctz63(std::uint64_t x) {
  return static_cast<std::size_t>(
      __builtin_ctzll(x | (std::uint64_t{1} << 63)));
}

/// Appends the set-bit positions of `word` (offset by `base`) at out[sz...],
/// returning the new sz. Branchless for the first two bits: the stage-2
/// match masks average about one set bit per word, so a plain while-loop
/// exit mispredicts almost every word — the two speculative slots (whose
/// writes only commit via the sz increment when the bit exists) remove that
/// misprediction, and the loop only runs for the rare 3+-bit words. Callers
/// must keep two slots of slack beyond the final committed position.
inline std::size_t ExtractWord(std::uint64_t word, std::size_t base,
                               std::size_t* out, std::size_t sz) {
  out[sz] = base + Ctz63(word);
  sz += static_cast<std::size_t>(word != 0);
  word &= word - 1;
  out[sz] = base + Ctz63(word);
  sz += static_cast<std::size_t>(word != 0);
  word &= word - 1;
  while (word != 0) {
    out[sz++] = base + static_cast<std::size_t>(__builtin_ctzll(word));
    word &= word - 1;
  }
  return sz;
}

void ScalarBulkAndCollect(const std::uint64_t* a, const std::uint64_t* b_lo,
                          unsigned off, std::size_t nw,
                          std::vector<std::size_t>* out) {
  // Single pass with a geometric slack buffer: every word may append up to
  // 64 positions plus the extractor's two speculative slots, so the
  // capacity check keeps 66 free; the final resize trims to the committed
  // count. Repeated calls on a reused vector stabilize at the high-water
  // capacity and stop resizing altogether.
  std::size_t sz = out->size();
  std::size_t cap = out->size();
  for (std::size_t w = 0; w < nw; ++w) {
    if (cap < sz + 66) {
      cap = std::max<std::size_t>(sz + 66, cap + cap / 2);
      out->resize(cap);
    }
    const std::uint64_t word = a[w] & ShiftedWord(b_lo, off, w);
    sz = ExtractWord(word, w * 64, out->data(), sz);
  }
  out->resize(sz);
}

std::uint64_t ScalarBulkCount(const std::uint64_t* words, std::size_t nw) {
  std::uint64_t total = 0;
  for (std::size_t w = 0; w < nw; ++w) {
    total += static_cast<std::uint64_t>(std::popcount(words[w]));
  }
  return total;
}

#if defined(PERIODICA_HAVE_AVX2_KERNELS)

/// Per-64-bit-lane popcount of `v` via the PSHUFB nibble-lookup method
/// (popcount of each byte from a 16-entry table, then a horizontal byte sum
/// per lane with SAD against zero). Four words per vector; no POPCNT
/// instruction needed, which matters because the portable scalar build
/// (plain x86-64 baseline) lowers std::popcount to a bit-twiddling sequence.
__attribute__((target("avx2"))) inline __m256i Popcount256(__m256i v) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                                         _mm256_shuffle_epi8(lookup, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

/// Loads the four shifted b-words for group `w` (see ShiftedWord): two
/// unaligned loads one word apart, lane-shifted and ORed. `shr`/`shl` hold
/// the runtime shift counts off and 64 - off.
__attribute__((target("avx2"))) inline __m256i
LoadShifted256(const std::uint64_t* b_lo, std::size_t w, __m128i shr,
               __m128i shl) {
  const __m256i blo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b_lo + w));
  const __m256i bhi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b_lo + w + 1));
  return _mm256_or_si256(_mm256_srl_epi64(blo, shr),
                         _mm256_sll_epi64(bhi, shl));
}

__attribute__((target("avx2"))) std::uint64_t Avx2BulkAndPopcount(
    const std::uint64_t* a, const std::uint64_t* b_lo, unsigned off,
    std::size_t nw) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t w = 0;
  if (off == 0) {
    for (; w + 4 <= nw; w += 4) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b_lo + w));
      acc = _mm256_add_epi64(acc, Popcount256(_mm256_and_si256(va, vb)));
    }
  } else {
    const __m128i shr = _mm_cvtsi32_si128(static_cast<int>(off));
    const __m128i shl = _mm_cvtsi32_si128(static_cast<int>(64 - off));
    for (; w + 4 <= nw; w += 4) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
      const __m256i vb = LoadShifted256(b_lo, w, shr, shl);
      acc = _mm256_add_epi64(acc, Popcount256(_mm256_and_si256(va, vb)));
    }
  }
  std::uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; w < nw; ++w) {
    total += static_cast<std::uint64_t>(
        std::popcount(a[w] & ShiftedWord(b_lo, off, w)));
  }
  return total;
}

__attribute__((target("avx2"))) std::uint64_t Avx2BulkCount(
    const std::uint64_t* words, std::size_t nw) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t w = 0;
  for (; w + 4 <= nw; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + w));
    acc = _mm256_add_epi64(acc, Popcount256(v));
  }
  std::uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; w < nw; ++w) {
    total += static_cast<std::uint64_t>(std::popcount(words[w]));
  }
  return total;
}

#endif  // PERIODICA_HAVE_AVX2_KERNELS

#if defined(PERIODICA_HAVE_NEON_KERNELS)

/// Per-64-bit-lane popcount: VCNT counts per byte, the VPADDL chain widens
/// byte sums to 64-bit lane sums. Two words per vector.
inline uint64x2_t Popcount128(uint64x2_t v) {
  const uint8x16_t bytes = vcntq_u8(vreinterpretq_u8_u64(v));
  return vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(bytes)));
}

std::uint64_t NeonBulkAndPopcount(const std::uint64_t* a,
                                  const std::uint64_t* b_lo, unsigned off,
                                  std::size_t nw) {
  uint64x2_t acc = vdupq_n_u64(0);
  std::size_t w = 0;
  if (off == 0) {
    for (; w + 2 <= nw; w += 2) {
      const uint64x2_t va = vld1q_u64(a + w);
      const uint64x2_t vb = vld1q_u64(b_lo + w);
      acc = vaddq_u64(acc, Popcount128(vandq_u64(va, vb)));
    }
  } else {
    // NEON has no separate right-shift-by-register; shift left by the
    // negated count instead.
    const int64x2_t shr = vdupq_n_s64(-static_cast<std::int64_t>(off));
    const int64x2_t shl = vdupq_n_s64(static_cast<std::int64_t>(64 - off));
    for (; w + 2 <= nw; w += 2) {
      const uint64x2_t va = vld1q_u64(a + w);
      const uint64x2_t blo = vld1q_u64(b_lo + w);
      const uint64x2_t bhi = vld1q_u64(b_lo + w + 1);
      const uint64x2_t vb =
          vorrq_u64(vshlq_u64(blo, shr), vshlq_u64(bhi, shl));
      acc = vaddq_u64(acc, Popcount128(vandq_u64(va, vb)));
    }
  }
  std::uint64_t total = vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
  for (; w < nw; ++w) {
    total += static_cast<std::uint64_t>(
        std::popcount(a[w] & ShiftedWord(b_lo, off, w)));
  }
  return total;
}

std::uint64_t NeonBulkCount(const std::uint64_t* words, std::size_t nw) {
  uint64x2_t acc = vdupq_n_u64(0);
  std::size_t w = 0;
  for (; w + 2 <= nw; w += 2) {
    acc = vaddq_u64(acc, Popcount128(vld1q_u64(words + w)));
  }
  std::uint64_t total = vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
  for (; w < nw; ++w) {
    total += static_cast<std::uint64_t>(std::popcount(words[w]));
  }
  return total;
}

#endif  // PERIODICA_HAVE_NEON_KERNELS

std::uint64_t DispatchBulkAndPopcount(const std::uint64_t* a,
                                      const std::uint64_t* b_lo, unsigned off,
                                      std::size_t nw) {
  switch (util::ActiveSimdKernel()) {
#if defined(PERIODICA_HAVE_AVX2_KERNELS)
    case util::SimdKernel::kAvx2:
      return Avx2BulkAndPopcount(a, b_lo, off, nw);
#endif
#if defined(PERIODICA_HAVE_NEON_KERNELS)
    case util::SimdKernel::kNeon:
      return NeonBulkAndPopcount(a, b_lo, off, nw);
#endif
    default:
      return ScalarBulkAndPopcount(a, b_lo, off, nw);
  }
}

std::uint64_t DispatchBulkCount(const std::uint64_t* words, std::size_t nw) {
  switch (util::ActiveSimdKernel()) {
#if defined(PERIODICA_HAVE_AVX2_KERNELS)
    case util::SimdKernel::kAvx2:
      return Avx2BulkCount(words, nw);
#endif
#if defined(PERIODICA_HAVE_NEON_KERNELS)
    case util::SimdKernel::kNeon:
      return NeonBulkCount(words, nw);
#endif
    default:
      return ScalarBulkCount(words, nw);
  }
}

/// Reads the 64 bits of `words` starting at bit offset `bit`, treating bits
/// past `num_bits` as zero. The boundary-exact slow path — the bulk kernels
/// above cover the interior, this covers the final partial window.
inline std::uint64_t WordAtBit(const std::vector<std::uint64_t>& words,
                               std::size_t num_bits, std::size_t bit) {
  if (bit >= num_bits) return 0;
  PERIODICA_DCHECK(words.size() * 64 >= num_bits)
      << "word storage shorter than the advertised bit count";
  const std::size_t w = bit >> 6;
  const unsigned off = static_cast<unsigned>(bit & 63);
  std::uint64_t lo = words[w] >> off;
  if (off != 0 && w + 1 < words.size()) {
    lo |= words[w + 1] << (64 - off);
  }
  // Zero out bits beyond num_bits.
  const std::size_t remaining = num_bits - bit;
  if (remaining < 64) {
    lo &= (std::uint64_t{1} << remaining) - 1;
  }
  return lo;
}

}  // namespace

std::size_t DynamicBitset::Count() const {
  // The tail-mask invariant (bits at or past num_bits_ in the last word are
  // zero) makes a raw word popcount exact.
  return static_cast<std::size_t>(
      DispatchBulkCount(words_.data(), words_.size()));
}

void DynamicBitset::Append(const DynamicBitset& other) {
  const std::size_t old_bits = num_bits_;
  PERIODICA_DCHECK(num_bits_ <= SIZE_MAX - other.num_bits_)
      << "bit count overflow in Append";
  num_bits_ += other.num_bits_;
  words_.resize((num_bits_ + 63) / 64, 0);
  const unsigned offset = static_cast<unsigned>(old_bits & 63);
  std::size_t w = old_bits >> 6;
  for (std::size_t base = 0; base < other.num_bits_; base += 64) {
    const std::uint64_t chunk =
        WordAtBit(other.words_, other.num_bits_, base);
    words_[w] |= chunk << offset;
    if (offset != 0 && w + 1 < words_.size()) {
      words_[w + 1] |= chunk >> (64 - offset);
    }
    ++w;
  }
  MaskTail();
}

std::size_t DynamicBitset::CountAndShifted(const DynamicBitset& other,
                                           std::size_t shift) const {
  const std::size_t limit =
      other.num_bits_ > shift ? std::min(num_bits_, other.num_bits_ - shift)
                              : 0;
  // Whole a-words strictly below `limit` need no masking, and every b-bit
  // they pair with (up to limit - 1 + shift < other.num_bits_) is stored, so
  // the bulk kernels can read raw words. When off != 0 the kernels read one
  // word past b_lo[nw - 1]; that word holds bit limit - 1 + shift, so it is
  // in range too.
  const std::size_t full_words = limit >> 6;
  const std::size_t ws = shift >> 6;
  const unsigned off = static_cast<unsigned>(shift & 63);
  std::size_t total = 0;
  if (full_words > 0) {
    total += static_cast<std::size_t>(DispatchBulkAndPopcount(
        words_.data(), other.words_.data() + ws, off, full_words));
  }
  for (std::size_t base = full_words * 64; base < limit; base += 64) {
    const std::uint64_t a = WordAtBit(words_, limit, base);
    const std::uint64_t b =
        WordAtBit(other.words_, other.num_bits_, base + shift);
    total += static_cast<std::size_t>(std::popcount(a & b));
  }
  return total;
}

void DynamicBitset::CollectAndShifted(const DynamicBitset& other,
                                      std::size_t shift,
                                      std::vector<std::size_t>* out) const {
  PERIODICA_DCHECK(out != nullptr);
  const std::size_t limit =
      other.num_bits_ > shift ? std::min(num_bits_, other.num_bits_ - shift)
                              : 0;
  // Same bounds argument as CountAndShifted; the bulk loop appends positions
  // in increasing order, so the bulk prefix plus the tail below yields the
  // same sequence as a single walk.
  const std::size_t full_words = limit >> 6;
  const std::size_t ws = shift >> 6;
  const unsigned off = static_cast<unsigned>(shift & 63);
  if (full_words > 0) {
    ScalarBulkAndCollect(words_.data(), other.words_.data() + ws, off,
                         full_words, out);
  }
  for (std::size_t base = full_words * 64; base < limit; base += 64) {
    const std::uint64_t a = WordAtBit(words_, limit, base);
    const std::uint64_t b =
        WordAtBit(other.words_, other.num_bits_, base + shift);
    std::uint64_t word = a & b;
    while (word != 0) {
      const int bit = __builtin_ctzll(word);
      out->push_back(base + static_cast<std::size_t>(bit));
      word &= word - 1;
    }
  }
}

std::vector<std::size_t> DynamicBitset::SetBits() const {
  std::vector<std::size_t> out;
  out.reserve(Count());
  ForEachSetBit([&out](std::size_t i) { out.push_back(i); });
  return out;
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  PERIODICA_CHECK_EQ(num_bits_, other.num_bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  PERIODICA_CHECK_EQ(num_bits_, other.num_bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  MaskTail();
  return *this;
}

}  // namespace periodica

// Copyright 2026 The MarkoView Authors.
//
// Extended-range floating point: a double mantissa with an explicit 64-bit
// binary exponent.
//
// Why this exists: Eq. 5 evaluates P0(Q ^ NOT W) / P0(NOT W), and P0(NOT W)
// is a product of one factor per MarkoView block — thousands of factors at
// DBLP scale. With the translation's negative probabilities the factors are
// not even bounded by 1, so the product routinely leaves double range in
// both directions (the ratio itself is a perfectly ordinary probability:
// the huge common factor cancels). Every OBDD/MV-index probability
// computation therefore runs in ScaledDouble and converts to double only
// after the final division.
//
// The representation keeps the mantissa normalized to [0.5, 1) in magnitude
// (or exactly 0), so precision is that of a double while the exponent range
// is effectively unbounded. Signs are carried by the mantissa, which keeps
// the negative-probability arithmetic of Section 3.3 untouched.

#ifndef MVDB_UTIL_SCALED_DOUBLE_H_
#define MVDB_UTIL_SCALED_DOUBLE_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

namespace mvdb {

class ScaledDouble {
 public:
  constexpr ScaledDouble() = default;
  ScaledDouble(double v) {  // NOLINT(runtime/explicit): numeric literal use
    mantissa_ = FrexpFast(v, &exponent_);
  }

  static ScaledDouble Zero() { return ScaledDouble(); }
  static ScaledDouble One() { return ScaledDouble(1.0); }

  bool IsZero() const { return mantissa_ == 0.0; }
  bool IsNegative() const { return mantissa_ < 0.0; }

  /// Conversion to double; silently under/overflows outside double range
  /// (callers convert only final, in-range results).
  double ToDouble() const {
    if (mantissa_ == 0.0) return 0.0;
    if (exponent_ > 2000) return mantissa_ > 0 ? HUGE_VAL : -HUGE_VAL;
    if (exponent_ < -2000) return 0.0;
    return std::ldexp(mantissa_, static_cast<int>(exponent_));
  }

  /// Natural logarithm of the magnitude; -inf for zero.
  double LogMagnitude() const {
    if (mantissa_ == 0.0) return -HUGE_VAL;
    return std::log(std::fabs(mantissa_)) +
           static_cast<double>(exponent_) * 0.6931471805599453;
  }

  ScaledDouble operator*(const ScaledDouble& o) const {
    ScaledDouble r;
    r.mantissa_ = mantissa_ * o.mantissa_;
    r.exponent_ = exponent_ + o.exponent_;
    r.Normalize();
    return r;
  }

  ScaledDouble operator/(const ScaledDouble& o) const {
    ScaledDouble r;
    r.mantissa_ = mantissa_ / o.mantissa_;  // division by zero -> inf/nan,
    r.exponent_ = exponent_ - o.exponent_;  // surfaced to the caller
    r.Normalize();
    return r;
  }

  ScaledDouble operator+(const ScaledDouble& o) const {
    if (IsZero()) return o;
    if (o.IsZero()) return *this;
    const ScaledDouble* big = this;
    const ScaledDouble* small = &o;
    if (big->exponent_ < small->exponent_) std::swap(big, small);
    const int64_t diff = big->exponent_ - small->exponent_;
    if (diff > 100) return *big;  // beyond double precision: negligible
    ScaledDouble r;
    r.mantissa_ = big->mantissa_ + LdexpDownFast(small->mantissa_, diff);
    r.exponent_ = big->exponent_;
    r.Normalize();
    return r;
  }

  ScaledDouble operator-(const ScaledDouble& o) const { return *this + o.Negated(); }

  ScaledDouble Negated() const {
    ScaledDouble r = *this;
    r.mantissa_ = -r.mantissa_;
    return r;
  }

  ScaledDouble& operator+=(const ScaledDouble& o) { return *this = *this + o; }
  ScaledDouble& operator*=(const ScaledDouble& o) { return *this = *this * o; }

  /// Exact equality (normalized representation is canonical).
  bool operator==(const ScaledDouble& o) const {
    return mantissa_ == o.mantissa_ && (exponent_ == o.exponent_ || IsZero());
  }

  std::string ToString() const {
    return std::to_string(mantissa_) + "*2^" + std::to_string(exponent_);
  }

  /// Raw IEEE-754 mantissa bits + scale word, for bit-exact serialization
  /// (mvindex/index_io.*). The normalized representation is canonical, so
  /// FromRaw(mantissa_bits(), exponent_word()) reproduces the value bit for
  /// bit — no text conversion, no re-normalization, no rounding anywhere.
  uint64_t mantissa_bits() const {
    uint64_t bits;
    std::memcpy(&bits, &mantissa_, sizeof(bits));
    return bits;
  }
  int64_t exponent_word() const { return exponent_; }
  static ScaledDouble FromRaw(uint64_t mantissa_bits, int64_t exponent) {
    ScaledDouble r;
    std::memcpy(&r.mantissa_, &mantissa_bits, sizeof(r.mantissa_));
    r.exponent_ = exponent;
    return r;
  }

  /// std::frexp of a `v` the caller knows is a finite normal nonzero
  /// double (anything else yields garbage, never UB): exponent-field
  /// arithmetic alone, FrexpFast's fast branch. The MV-index block-product
  /// fold splits its unnormalized running products with it
  /// (mvindex/mv_index.cc, FoldBlockProducts).
  static double FrexpNormal(double v, int64_t* exp) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    *exp = static_cast<int64_t>((bits >> 52) & 0x7ff) - 1022;
    bits = (bits & ~(0x7ffULL << 52)) | (1022ULL << 52);
    double m;
    std::memcpy(&m, &bits, sizeof(m));
    return m;
  }

 private:
  /// std::frexp, minus the libm call on the hot path: frexp of a finite
  /// normal double is exact — mantissa bits are untouched, only the
  /// exponent field moves — so exponent-field arithmetic IS the full
  /// computation. Zeros, subnormals, infinities and NaNs (biased exponent
  /// 0 or 0x7ff) defer to std::frexp, so every input decomposes exactly as
  /// before; this is a pure speedup, never a value change. It matters
  /// because the annotation recurrences (mvindex/flat_obdd.cc) run a
  /// handful of normalizations per OBDD node, and delta repair replays
  /// them over millions of nodes inside a single-digit-ms budget.
  static double FrexpFast(double v, int64_t* exp) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    const uint64_t biased = (bits >> 52) & 0x7ff;
    if (biased == 0 || biased == 0x7ff) {  // zero/subnormal/inf/nan
      int e = 0;
      const double m = std::frexp(v, &e);
      *exp = e;
      return m;
    }
    return FrexpNormal(v, exp);
  }

  /// std::ldexp(m, -diff) for the aligned-addition path: a canonical
  /// nonzero mantissa has |m| in [0.5, 1) (biased exponent 1022) and
  /// diff <= 100, so the scaled value stays normal and the exponent-field
  /// subtraction is exact. Anything that could go subnormal (biased
  /// exponent <= diff, e.g. values built through FromRaw) or is inf/NaN
  /// falls back to std::ldexp for its correct rounding.
  static double LdexpDownFast(double m, int64_t diff) {
    uint64_t bits;
    std::memcpy(&bits, &m, sizeof(bits));
    const uint64_t biased = (bits >> 52) & 0x7ff;
    if (biased <= static_cast<uint64_t>(diff) || biased == 0x7ff) {
      return std::ldexp(m, -static_cast<int>(diff));
    }
    bits -= static_cast<uint64_t>(diff) << 52;
    double r;
    std::memcpy(&r, &bits, sizeof(r));
    return r;
  }

  void Normalize() {
    if (mantissa_ == 0.0 || !std::isfinite(mantissa_)) {
      if (mantissa_ == 0.0) exponent_ = 0;
      return;
    }
    int64_t exp = 0;
    mantissa_ = FrexpFast(mantissa_, &exp);
    exponent_ += exp;
  }

  double mantissa_ = 0.0;   // 0 or magnitude in [0.5, 1)
  int64_t exponent_ = 0;    // binary exponent
};

// The persistent index format memcpy's / maps whole ScaledDouble arrays as
// raw {IEEE-754 mantissa, scale word} pairs; pin the layout those sections
// depend on (a change here is a format change — bump kIndexFormatVersion).
static_assert(std::is_trivially_copyable_v<ScaledDouble>);
static_assert(sizeof(ScaledDouble) == 16);

}  // namespace mvdb

#endif  // MVDB_UTIL_SCALED_DOUBLE_H_

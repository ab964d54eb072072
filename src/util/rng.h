// Deterministic random number generation.
//
// Everything stochastic in this project — censor resynchronization entry,
// Geneva's genetic operators, simulated packet loss — draws from an Rng that
// is seeded explicitly, so every experiment is reproducible bit-for-bit.
// There is deliberately no global generator (see C++ Core Guidelines I.2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace caya {

/// The mt19937_64 engine of [rand.eng.mers], computed on demand.
///
/// It emits exactly std::mt19937_64's stream, and its textual state (<<, >>)
/// is the standard engine's: the 312-word table then the cursor. The
/// standard engine seeds all 312 words and twists all 312 at the first
/// draw; this one runs the seeding recurrence and the twist one word at a
/// time, only as far as draws reach. The first output needs seed words
/// x[0..156] and one twisted word, so a fresh engine that yields a few
/// draws (every Rng::fork() child) costs ~160 multiplies, not ~1250 word
/// operations. Copies move only the words computed so far.
///
/// State: slots [0, ready_) of x_ hold the current generation's twisted
/// words, slots [ready_, n) the previous generation's, which the rest of
/// the twist still reads (the standard engine's in-place twist, run
/// lazily). In the seed generation slots [seeded_, n) are not yet computed.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kWords = 312;  // n
  static constexpr std::size_t kShift = 156;  // m

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~result_type{0};
  }

  explicit Mt19937_64(result_type seed) noexcept { x_[0] = seed; }
  Mt19937_64(const Mt19937_64& other) noexcept { copy_from(other); }
  Mt19937_64& operator=(const Mt19937_64& other) noexcept {
    if (this != &other) copy_from(other);
    return *this;
  }

  result_type operator()() noexcept {
    if (pos_ >= ready_) twist_next();
    result_type z = x_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    z ^= z >> 43;
    return z;
  }

  /// Writes the standard engine's text: n words, then the cursor.
  friend std::ostream& operator<<(std::ostream& os, const Mt19937_64& e);
  /// Reads that text; on failure the engine is left unchanged.
  friend std::istream& operator>>(std::istream& is, Mt19937_64& e);

 private:
  static constexpr result_type kMatrixA = 0xb5026f5aa96619e9ull;
  static constexpr result_type kUpper = ~result_type{0} << 31;  // r = 31
  static constexpr result_type kLower = ~kUpper;
  static constexpr result_type kSeedMultiplier = 6364136223846793005ull;

  void copy_from(const Mt19937_64& other) noexcept {
    std::copy_n(other.x_, other.seeded_, x_);
    seeded_ = other.seeded_;
    ready_ = other.ready_;
    pos_ = other.pos_;
  }

  // Runs the seeding recurrence up to (not including) word `end`.
  void seed_to(std::size_t end) noexcept {
    for (std::size_t i = seeded_; i < end; ++i) {
      const result_type prev = x_[i - 1];
      x_[i] = kSeedMultiplier * (prev ^ (prev >> 62)) + i;
    }
    seeded_ = static_cast<std::uint32_t>(end);
  }

  // Twists the next word of the current generation, opening a new
  // generation once the cursor has passed the end of the table.
  void twist_next() noexcept {
    if (pos_ >= kWords) {
      pos_ = 0;
      ready_ = 0;
    }
    const std::size_t k = ready_;
    const std::size_t km =
        k + kShift < kWords ? k + kShift : k + kShift - kWords;
    if (seeded_ < kWords) seed_to(std::min(kWords, k + kShift + 1));
    const result_type y =
        (x_[k] & kUpper) | (x_[k + 1 == kWords ? 0 : k + 1] & kLower);
    x_[k] = x_[km] ^ (y >> 1) ^ ((y & 1) != 0 ? kMatrixA : 0);
    ++ready_;
  }

  // The full table as the standard engine holds it: every seed word, and
  // the current generation twisted to its end.
  void complete() noexcept {
    seed_to(kWords);
    while (ready_ < kWords) twist_next();
  }

  result_type x_[kWords];  // slots at and past seeded_ are never read
  std::uint32_t seeded_ = 1;
  std::uint32_t ready_ = kWords;
  std::size_t pos_ = kWords;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
    std::uniform_int_distribution<std::uint64_t> dist(lo, hi);
    return dist(engine_);
  }

  /// Uniform integer in [0, n); n must be > 0.
  [[nodiscard]] std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(uniform(0, n - 1));
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double unit() {
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    return dist(engine_);
  }

  /// Bernoulli draw: true with probability p (clamped to [0, 1]).
  [[nodiscard]] bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return unit() < p;
  }

  /// Uniformly chosen element of a non-empty container.
  template <typename Container>
  [[nodiscard]] auto& pick(Container& c) {
    return c[index(c.size())];
  }
  template <typename Container>
  [[nodiscard]] const auto& pick(const Container& c) {
    return c[index(c.size())];
  }

  /// n independent uniform random bytes.
  [[nodiscard]] Bytes bytes(std::size_t n) {
    Bytes out(n);
    for (auto& b : out) b = static_cast<std::uint8_t>(uniform(0, 255));
    return out;
  }

  /// Derives an independent child generator (for parallel-safe subsystems).
  [[nodiscard]] Rng fork() { return Rng(engine_()); }

  /// Full stream state (the mt19937_64 word table and cursor offset) as a
  /// printable string. restore_state() on any Rng resumes the stream at
  /// exactly this point: save -> advance -> restore -> advance replays the
  /// same draws bit-for-bit. This is what checkpoint/resume serializes.
  [[nodiscard]] std::string save_state() const;
  /// Restores a state captured by save_state(); throws std::invalid_argument
  /// on malformed input.
  void restore_state(const std::string& state);

  [[nodiscard]] Mt19937_64& engine() noexcept { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace caya

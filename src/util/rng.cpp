#include "util/rng.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace caya {

std::ostream& operator<<(std::ostream& os, const Mt19937_64& e) {
  Mt19937_64 full = e;
  full.complete();
  const std::ios_base::fmtflags flags = os.flags();
  os.flags(std::ios_base::dec);
  for (const Mt19937_64::result_type word : full.x_) os << word << ' ';
  os << full.pos_;
  os.flags(flags);
  return os;
}

std::istream& operator>>(std::istream& is, Mt19937_64& e) {
  const std::ios_base::fmtflags flags = is.flags();
  is.flags(std::ios_base::dec | std::ios_base::skipws);
  Mt19937_64 read(0);
  for (Mt19937_64::result_type& word : read.x_) is >> word;
  is >> read.pos_;
  is.flags(flags);
  if (!is.fail()) {
    read.seeded_ = Mt19937_64::kWords;
    read.ready_ = Mt19937_64::kWords;
    e = read;
  }
  return is;
}

std::string Rng::save_state() const {
  // operator<< emits the 312-word state table plus the cursor offset as
  // space-separated decimals — exact, portable, and diffable in snapshots.
  std::ostringstream out;
  out << engine_;
  return out.str();
}

void Rng::restore_state(const std::string& state) {
  std::istringstream in(state);
  in >> engine_;  // leaves engine_ unchanged on failure
  if (in.fail()) {
    throw std::invalid_argument("malformed Rng state string");
  }
}

}  // namespace caya

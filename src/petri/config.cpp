#include "petri/config.h"

#include <algorithm>
#include <stdexcept>

namespace ppsc {
namespace petri {

Config Config::unit(std::size_t dimension, std::size_t place, Count count) {
  if (place >= dimension) {
    throw std::invalid_argument("Config::unit: place out of range");
  }
  Config config(dimension);
  config[place] = count;
  return config;
}

Count Config::norm_inf() const {
  Count norm = 0;
  for (Count k : counts_) norm = std::max(norm, k);
  return norm;
}

bool Config::covers(const Config& other) const {
  return ConfigView(*this).covers(other);
}

bool ConfigView::covers(const Config& other) const {
  if (size_ != other.size()) {
    throw std::invalid_argument("covers: dimension mismatch");
  }
  for (std::size_t p = 0; p < size_; ++p) {
    if (counts_[p] < other[p]) return false;
  }
  return true;
}

Config Config::restrict(const std::vector<bool>& keep) const {
  if (keep.size() != counts_.size()) {
    throw std::invalid_argument("Config::restrict: mask dimension mismatch");
  }
  Config out;
  out.counts_.reserve(counts_.size());
  for (std::size_t p = 0; p < counts_.size(); ++p) {
    if (keep[p]) out.counts_.push_back(counts_[p]);
  }
  return out;
}

}  // namespace petri
}  // namespace ppsc

#include "core/protocol.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace ppsc {
namespace core {

Count Protocol::num_leaders() const { return population(leaders_); }

Protocol Protocol::with_flipped_outputs() const {
  Protocol flipped = *this;
  for (int& bit : flipped.outputs_) bit = bit == 0 ? 1 : 0;
  return flipped;
}

Config Protocol::initial_config(const std::vector<Count>& input) const {
  if (input.size() != input_states_.size()) {
    throw std::invalid_argument("initial_config: expected " +
                                std::to_string(input_states_.size()) +
                                " input dimensions, got " +
                                std::to_string(input.size()));
  }
  Config config = leaders_;
  for (std::size_t dim = 0; dim < input.size(); ++dim) {
    if (input[dim] < 0) {
      throw std::invalid_argument("initial_config: negative input");
    }
    config[input_states_[dim]] += input[dim];
  }
  return config;
}

Count Protocol::population(const Config& config) {
  Count total = 0;
  for (Count k : config) total += k;
  return total;
}

std::optional<PairRule> pair_rule(const petri::PetriNet& net, std::size_t t) {
  PairRule rule{};
  // Fills `slots` with the agents of `arcs` in place order; false
  // unless there are exactly two.
  const auto fill = [](util::Span<petri::Arc> arcs,
                       std::array<std::size_t, 2>& slots) {
    std::size_t slot = 0;
    for (const petri::Arc& arc : arcs) {
      for (Count k = 0; k < arc.count; ++k, ++slot) {
        if (slot < 2) slots[slot] = arc.place;
      }
    }
    return slot == 2;
  };
  if (!fill(net.pre(t), rule.pre) || !fill(net.post(t), rule.post)) {
    return std::nullopt;
  }
  return rule;
}

std::size_t ProtocolBuilder::add_state(const std::string& name, bool output) {
  if (built_) {
    throw std::logic_error("ProtocolBuilder: add_state after build()");
  }
  protocol_.state_names_.push_back(name);
  protocol_.outputs_.push_back(output ? 1 : 0);
  leaders_.push_back(0);
  const std::size_t id = protocol_.state_names_.size() - 1;
  protocol_.state_index_.emplace(name, id);  // duplicates keep the first id
  return id;
}

void ProtocolBuilder::add_input(std::size_t state) {
  if (built_) {
    throw std::logic_error("ProtocolBuilder: add_input after build()");
  }
  check_state(state, "<input>");
  protocol_.input_states_.push_back(state);
}

void ProtocolBuilder::add_leaders(std::size_t state, Count count) {
  if (built_) {
    throw std::logic_error("ProtocolBuilder: add_leaders after build()");
  }
  check_state(state, "<leaders>");
  if (count < 0) {
    throw std::invalid_argument("ProtocolBuilder: negative leader count");
  }
  leaders_[state] += count;
}

void ProtocolBuilder::add_rule(
    const std::string& name,
    const std::vector<std::pair<std::size_t, Count>>& pre,
    const std::vector<std::pair<std::size_t, Count>>& post) {
  if (built_) {
    throw std::logic_error("ProtocolBuilder: add_rule after build()");
  }
  for (const auto& entry : pre) check_state(entry.first, name);
  for (const auto& entry : post) check_state(entry.first, name);
  pending_.push_back({arcs_.size(), arcs_.size() + pre.size()});
  for (const auto& entry : pre) arcs_.push_back({entry.first, entry.second});
  for (const auto& entry : post) arcs_.push_back({entry.first, entry.second});
  protocol_.rule_names_.push_back(name);
}

void ProtocolBuilder::add_pair_rule(const std::string& name, std::size_t a,
                                    std::size_t b, std::size_t c,
                                    std::size_t d) {
  if (built_) {
    throw std::logic_error("ProtocolBuilder: add_pair_rule after build()");
  }
  for (std::size_t q : {a, b, c, d}) check_state(q, name);
  // Identity pairs carry no information.
  if ((a == c && b == d) || (a == d && b == c)) return;
  pending_.push_back({arcs_.size(), arcs_.size() + 2});
  arcs_.insert(arcs_.end(), {{a, 1}, {b, 1}, {c, 1}, {d, 1}});
  protocol_.rule_names_.push_back(name);
}

namespace {

std::string trim(const std::string& text) {
  std::size_t first = text.find_first_not_of(" \t");
  if (first == std::string::npos) return "";
  std::size_t last = text.find_last_not_of(" \t");
  return text.substr(first, last - first + 1);
}

// Sorts `arcs` by place and merges repeated places, dropping entries
// that sum to zero; returns the merged list's total count.
Count merge_arcs(std::vector<petri::Arc>& arcs) {
  std::sort(arcs.begin(), arcs.end(),
            [](const petri::Arc& x, const petri::Arc& y) {
              return x.place < y.place;
            });
  std::size_t kept = 0;
  Count total = 0;
  for (std::size_t i = 0; i < arcs.size();) {
    petri::Arc merged = arcs[i];
    for (++i; i < arcs.size() && arcs[i].place == merged.place; ++i) {
      merged.count += arcs[i].count;
    }
    if (merged.count != 0) arcs[kept++] = merged;
    total += merged.count;
  }
  arcs.resize(kept);
  return total;
}

// A hash of a transition's merged pre and post arc lists: one
// multiply per arc, high bits folded down for the table index.
std::uint64_t arc_hash(const std::vector<petri::Arc>& pre,
                       const std::vector<petri::Arc>& post) {
  constexpr std::uint64_t kOdd = 0x9e3779b97f4a7c15ull;
  std::uint64_t h = 0;
  for (const std::vector<petri::Arc>* arcs : {&pre, &post}) {
    for (const petri::Arc& arc : *arcs) {
      h = (h ^ (arc.place << 24) ^ static_cast<std::uint64_t>(arc.count)) *
          kOdd;
    }
    h = (h ^ 1) * kOdd;  // ends the list
  }
  return h ^ (h >> 32);
}

bool same_arcs(util::Span<petri::Arc> x, const std::vector<petri::Arc>& y) {
  return std::equal(x.begin(), x.end(), y.begin(), y.end());
}

}  // namespace

std::size_t ProtocolBuilder::state(const std::string& name, Output output) {
  return add_state(name, output == Output::kOne);
}

void ProtocolBuilder::initial(const std::string& name) {
  add_input(state_id(name, "<input>"));
}

void ProtocolBuilder::rule(const std::string& spec) {
  const std::size_t arrow = spec.find("->");
  if (arrow == std::string::npos) {
    throw std::invalid_argument("ProtocolBuilder: rule '" + spec +
                                "' has no '->'");
  }
  const auto parse_pair = [&](const std::string& side) {
    const std::size_t plus = side.find('+');
    if (plus == std::string::npos) {
      throw std::invalid_argument("ProtocolBuilder: rule '" + spec +
                                  "' side '" + side + "' is not a pair");
    }
    return std::make_pair(state_id(trim(side.substr(0, plus)), spec),
                          state_id(trim(side.substr(plus + 1)), spec));
  };
  const auto pre = parse_pair(spec.substr(0, arrow));
  const auto post = parse_pair(spec.substr(arrow + 2));
  add_pair_rule(trim(spec), pre.first, pre.second, post.first, post.second);
}

std::size_t ProtocolBuilder::state_id(const std::string& name,
                                      const std::string& where) const {
  const auto it = protocol_.state_index_.find(name);
  if (it == protocol_.state_index_.end()) {
    throw std::invalid_argument("ProtocolBuilder: '" + where +
                                "' references unknown state '" + name + "'");
  }
  return it->second;
}

void ProtocolBuilder::check_state(std::size_t state,
                                  const std::string& rule) const {
  if (state >= protocol_.state_names_.size()) {
    throw std::invalid_argument("ProtocolBuilder: rule '" + rule +
                                "' references state " + std::to_string(state) +
                                " before it was added");
  }
}

Protocol ProtocolBuilder::build() {
  if (built_) {
    throw std::logic_error("ProtocolBuilder: build() called twice");
  }
  built_ = true;
  protocol_.net_ = petri::PetriNet(protocol_.state_names_.size());
  protocol_.net_.reserve(pending_.size(), arcs_.size());
  std::vector<petri::Arc> pre;
  std::vector<petri::Arc> post;
  // A transition listed twice keeps only its first copy and name, so
  // every engine fires it with one weight: kept transitions sit in an
  // open-addressed table by arc hash, at most half full.
  constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  std::size_t capacity = 1;
  while (capacity < 2 * pending_.size()) capacity <<= 1;
  std::vector<std::uint32_t> slots(capacity, kEmpty);
  std::size_t kept = 0;
  for (std::size_t r = 0; r < pending_.size(); ++r) {
    const std::string& name = protocol_.rule_names_[r];
    const std::size_t end =
        r + 1 < pending_.size() ? pending_[r + 1].pre_begin : arcs_.size();
    pre.assign(arcs_.begin() + pending_[r].pre_begin,
               arcs_.begin() + pending_[r].post_begin);
    post.assign(arcs_.begin() + pending_[r].post_begin, arcs_.begin() + end);
    const Count consumed = merge_arcs(pre);
    const Count produced = merge_arcs(post);
    const auto negative = [](const petri::Arc& arc) { return arc.count < 0; };
    if (std::any_of(pre.begin(), pre.end(), negative) ||
        std::any_of(post.begin(), post.end(), negative)) {
      throw std::invalid_argument("transition '" + name +
                                  "': negative multiplicity");
    }
    if (consumed != produced) {
      throw std::invalid_argument("transition '" + name +
                                  "': not conservative (consumes " +
                                  std::to_string(consumed) + ", produces " +
                                  std::to_string(produced) + ")");
    }
    if (consumed == 0) {
      throw std::invalid_argument("transition '" + name + "': empty");
    }
    if (pre == post) {
      throw std::invalid_argument("transition '" + name + "': identity");
    }
    const petri::PetriNet& net = protocol_.net_;
    std::size_t slot = arc_hash(pre, post) & (capacity - 1);
    for (; slots[slot] != kEmpty; slot = (slot + 1) & (capacity - 1)) {
      const std::uint32_t t = slots[slot];
      if (same_arcs(net.pre(t), pre) && same_arcs(net.post(t), post)) break;
    }
    if (slots[slot] != kEmpty) continue;  // repeats a kept transition
    slots[slot] = static_cast<std::uint32_t>(kept);
    protocol_.net_.add(pre, post);
    if (kept != r) {
      protocol_.rule_names_[kept] = std::move(protocol_.rule_names_[r]);
    }
    ++kept;
  }
  protocol_.rule_names_.resize(kept);
  protocol_.leaders_ = Config(std::move(leaders_));
  arcs_.clear();
  pending_.clear();
  return std::move(protocol_);
}

}  // namespace core
}  // namespace ppsc

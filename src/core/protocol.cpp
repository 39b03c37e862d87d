#include "core/protocol.h"

#include <algorithm>
#include <stdexcept>

namespace ppsc {
namespace core {

Count Protocol::num_leaders() const {
  Count total = 0;
  for (Count k : leaders_) total += k;
  return total;
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

std::optional<PairRule> pair_rule(const petri::Transition& t) {
  PairRule rule{};
  std::size_t pre_slot = 0;
  std::size_t post_slot = 0;
  for (std::size_t q = 0; q < t.pre.size(); ++q) {
    for (Count k = 0; k < t.pre[q]; ++k, ++pre_slot) {
      if (pre_slot < 2) rule.pre[pre_slot] = q;
    }
    for (Count k = 0; k < t.post[q]; ++k, ++post_slot) {
      if (post_slot < 2) rule.post[post_slot] = q;
    }
  }
  if (pre_slot != 2 || post_slot != 2) return std::nullopt;
  return rule;
}

std::size_t ProtocolBuilder::add_state(const std::string& name, bool output) {
  if (built_) {
    throw std::logic_error("ProtocolBuilder: add_state after build()");
  }
  protocol_.state_names_.push_back(name);
  protocol_.outputs_.push_back(output ? 1 : 0);
  protocol_.leaders_.push_back(0);
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
  protocol_.leaders_[state] += count;
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
    protocol_.net_.add(pre, post);
  }
  arcs_.clear();
  pending_.clear();
  return std::move(protocol_);
}

}  // namespace core
}  // namespace ppsc

#include "petri/petri_net.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ppsc {
namespace petri {

void PetriNet::add(util::Span<Arc> pre, util::Span<Arc> post) {
  Transition dense{Config(num_states_), Config(num_states_)};
  const auto fill = [this](util::Span<Arc> arcs, Config& out) {
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      const Arc& arc = arcs[i];
      if (arc.place >= num_states_ || arc.count <= 0 ||
          (i > 0 && arc.place <= arcs[i - 1].place)) {
        throw std::invalid_argument(
            "PetriNet::add: arcs must have increasing places below the "
            "dimension and positive counts");
      }
      out[arc.place] = arc.count;
    }
  };
  fill(pre, dense.pre);
  fill(post, dense.post);
  const std::size_t t = transitions_.size();
  pre_arcs_.insert(pre_arcs_.end(), pre.begin(), pre.end());
  // Merge the two sorted lists into the nonzero entries of post - pre.
  const Arc* a = pre.begin();
  const Arc* b = post.begin();
  while (a != pre.end() || b != post.end()) {
    const bool pre_first =
        b == post.end() || (a != pre.end() && a->place <= b->place);
    const std::size_t p = pre_first ? a->place : b->place;
    const Count change = dense.post[p] - dense.pre[p];
    if (change != 0) delta_arcs_.push_back({p, change});
    if (a != pre.end() && a->place == p) ++a;
    if (b != post.end() && b->place == p) ++b;
  }
  pre_begin_.push_back(pre_arcs_.size());
  delta_begin_.push_back(delta_arcs_.size());
  if (pre.empty()) {
    empty_pre_.push_back(t);
  } else {
    by_lowest_pre_[pre[0].place].push_back(t);
  }
  transitions_.push_back(std::move(dense));
}

void PetriNet::add(const Config& pre, const Config& post) {
  if (pre.size() != num_states_ || post.size() != num_states_) {
    throw std::invalid_argument("PetriNet::add: dimension mismatch");
  }
  std::vector<Arc> pre_arcs;
  std::vector<Arc> post_arcs;
  for (std::size_t p = 0; p < num_states_; ++p) {
    if (pre[p] < 0 || post[p] < 0) {
      throw std::invalid_argument("PetriNet::add: negative count");
    }
    if (pre[p] != 0) pre_arcs.push_back({p, pre[p]});
    if (post[p] != 0) post_arcs.push_back({p, post[p]});
  }
  add(pre_arcs, post_arcs);
}

void PetriNet::reserve(std::size_t transitions, std::size_t arcs) {
  transitions_.reserve(transitions_.size() + transitions);
  pre_begin_.reserve(pre_begin_.size() + transitions);
  delta_begin_.reserve(delta_begin_.size() + transitions);
  pre_arcs_.reserve(pre_arcs_.size() + arcs);
  delta_arcs_.reserve(delta_arcs_.size() + arcs);
}

Count PetriNet::norm_inf() const {
  Count norm = 0;
  for (const Transition& t : transitions_) {
    norm = std::max({norm, t.pre.norm_inf(), t.post.norm_inf()});
  }
  return norm;
}

Count PetriNet::max_width() const {
  Count width = 0;
  for (const Transition& t : transitions_) {
    width = std::max(width, t.width());
  }
  return width;
}

bool PetriNet::covers_pre(std::size_t t, ConfigView config) const {
  for (const Arc& arc : pre(t)) {
    if (config[arc.place] < arc.count) return false;
  }
  return true;
}

bool PetriNet::enabled(std::size_t t, const Config& config) const {
  if (config.size() != num_states_) {
    throw std::invalid_argument("PetriNet::enabled: dimension mismatch");
  }
  return covers_pre(t, config);
}

Config PetriNet::fire(std::size_t t, const Config& config) const {
  Config next = config;
  for (const Arc& arc : delta(t)) next[arc.place] += arc.count;
  return next;
}

std::size_t PetriNet::enabled_transitions(ConfigView config,
                                          std::vector<std::size_t>& out) const {
  out.assign(empty_pre_.begin(), empty_pre_.end());
  std::size_t tested = empty_pre_.size();
  for (std::size_t p = 0; p < num_states_; ++p) {
    if (config[p] <= 0) continue;
    tested += by_lowest_pre_[p].size();
    for (const std::size_t t : by_lowest_pre_[p]) {
      if (covers_pre(t, config)) out.push_back(t);
    }
  }
  // Buckets are ascending individually; restore the global order.
  std::sort(out.begin(), out.end());
  return tested;
}

PetriNet PetriNet::restrict(const std::vector<bool>& keep) const {
  if (keep.size() != num_states_) {
    throw std::invalid_argument("PetriNet::restrict: mask dimension mismatch");
  }
  std::size_t kept = 0;
  for (bool k : keep) kept += k ? 1 : 0;
  PetriNet out(kept);
  for (const Transition& t : transitions_) {
    bool supported = true;
    for (std::size_t p = 0; p < num_states_; ++p) {
      if (!keep[p] && (t.pre[p] != 0 || t.post[p] != 0)) {
        supported = false;
        break;
      }
    }
    if (supported) out.add(t.pre.restrict(keep), t.post.restrict(keep));
  }
  return out;
}

std::optional<Config> projected_step(const Transition& t,
                                     const std::vector<bool>& keep,
                                     const Config& marking) {
  const Config q_pre = t.pre.restrict(keep);
  if (!marking.covers(q_pre)) return std::nullopt;
  const Config q_post = t.post.restrict(keep);
  Config next = marking;
  for (std::size_t p = 0; p < next.size(); ++p) {
    next[p] += q_post[p] - q_pre[p];
  }
  return next;
}

PetriNet PetriNet::project(const std::vector<bool>& keep) const {
  if (keep.size() != num_states_) {
    throw std::invalid_argument("PetriNet::project: mask dimension mismatch");
  }
  std::size_t kept = 0;
  for (bool k : keep) kept += k ? 1 : 0;
  PetriNet out(kept);
  for (const Transition& t : transitions_) {
    out.add(t.pre.restrict(keep), t.post.restrict(keep));
  }
  return out;
}

}  // namespace petri
}  // namespace ppsc

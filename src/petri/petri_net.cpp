#include "petri/petri_net.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace ppsc {
namespace petri {

void PetriNet::add(util::Span<Arc> pre, util::Span<Arc> post) {
  for (const util::Span<Arc> arcs : {pre, post}) {
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      const Arc& arc = arcs[i];
      if (arc.place >= num_states_ || arc.count <= 0 ||
          (i > 0 && arc.place <= arcs[i - 1].place)) {
        throw std::invalid_argument(
            "PetriNet::add: arcs must have increasing places below the "
            "dimension and positive counts");
      }
    }
  }
  const std::size_t t = num_transitions();
  pre_.arcs.insert(pre_.arcs.end(), pre.begin(), pre.end());
  pre_.close();
  post_.arcs.insert(post_.arcs.end(), post.begin(), post.end());
  post_.close();
  // Merge the two sorted lists into the nonzero entries of post - pre.
  const Arc* a = pre.begin();
  const Arc* b = post.begin();
  while (a != pre.end() || b != post.end()) {
    const bool pre_first =
        b == post.end() || (a != pre.end() && a->place <= b->place);
    const std::size_t p = pre_first ? a->place : b->place;
    Count change = 0;
    if (a != pre.end() && a->place == p) change -= (a++)->count;
    if (b != post.end() && b->place == p) change += (b++)->count;
    if (change != 0) delta_.arcs.push_back({p, change});
  }
  delta_.close();
  if (pre.empty()) {
    empty_pre_.push_back(t);
  } else {
    by_lowest_pre_[pre[0].place].push_back(t);
  }
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
  pre_.reserve(transitions, arcs);
  post_.reserve(transitions, arcs);
  delta_.reserve(transitions, arcs);
}

Count PetriNet::norm_inf() const {
  Count norm = 0;
  for (const Arc& arc : pre_.arcs) norm = std::max(norm, arc.count);
  for (const Arc& arc : post_.arcs) norm = std::max(norm, arc.count);
  return norm;
}

Count PetriNet::width(std::size_t t) const {
  Count consumed = 0;
  for (const Arc& arc : pre(t)) consumed += arc.count;
  return consumed;
}

Count PetriNet::max_width() const {
  Count widest = 0;
  for (std::size_t t = 0; t < num_transitions(); ++t) {
    widest = std::max(widest, width(t));
  }
  return widest;
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
  return sub_net(keep, false, "PetriNet::restrict");
}

PetriNet PetriNet::project(const std::vector<bool>& keep) const {
  return sub_net(keep, true, "PetriNet::project");
}

PetriNet PetriNet::sub_net(const std::vector<bool>& keep, bool keep_all,
                           const char* caller) const {
  if (keep.size() != num_states_) {
    throw std::invalid_argument(std::string(caller) +
                                ": mask dimension mismatch");
  }
  // index[p]: p's place in the sub-net, or kDropped.
  constexpr std::size_t kDropped = static_cast<std::size_t>(-1);
  std::vector<std::size_t> index(num_states_, kDropped);
  std::size_t kept = 0;
  for (std::size_t p = 0; p < num_states_; ++p) {
    if (keep[p]) index[p] = kept++;
  }
  // Copies the kept arcs of `arcs` into `out`, re-indexed (the index
  // is increasing, so the order survives); false if any arc was lost.
  const auto remap = [&index](util::Span<Arc> arcs, std::vector<Arc>& out) {
    out.clear();
    for (const Arc& arc : arcs) {
      if (index[arc.place] != kDropped) {
        out.push_back({index[arc.place], arc.count});
      }
    }
    return out.size() == arcs.size();
  };
  PetriNet out(kept);
  std::vector<Arc> kept_pre;
  std::vector<Arc> kept_post;
  for (std::size_t t = 0; t < num_transitions(); ++t) {
    const bool whole_pre = remap(pre(t), kept_pre);
    const bool whole_post = remap(post(t), kept_post);
    if (keep_all || (whole_pre && whole_post)) out.add(kept_pre, kept_post);
  }
  return out;
}

}  // namespace petri
}  // namespace ppsc

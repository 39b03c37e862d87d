#include "petri/width_reduction.h"

#include <stdexcept>

namespace ppsc {
namespace petri {

Config WidthReduction::embed(const Config& original) const {
  if (original.size() != original_places) {
    throw std::invalid_argument("WidthReduction::embed: dimension mismatch");
  }
  Config out(compiled.num_states());
  for (std::size_t p = 0; p < original_places; ++p) out[p] = original[p];
  return out;
}

Config WidthReduction::project(const Config& compiled_config) const {
  if (compiled_config.size() != compiled.num_states()) {
    throw std::invalid_argument("WidthReduction::project: dimension mismatch");
  }
  Config out(original_places);
  for (std::size_t p = 0; p < original_places; ++p) {
    out[p] = compiled_config[p];
  }
  return out;
}

Config WidthReduction::cleanup(const Config& compiled_config) const {
  if (compiled_config.size() != compiled.num_states()) {
    throw std::invalid_argument("WidthReduction::cleanup: dimension mismatch");
  }
  Config out = compiled_config;
  for (std::size_t c = 0; c < collector_contents.size(); ++c) {
    const std::size_t place = original_places + c;
    const Count held = out[place];
    if (held == 0) continue;
    for (std::size_t p = 0; p < original_places; ++p) {
      out[p] += held * collector_contents[c][p];
    }
    out[place] = 0;
  }
  return out;
}

WidthReduction widen_to_width2(const PetriNet& net) {
  const std::size_t d = net.num_states();
  // First pass: count collector places so the compiled dimension is
  // known before any transition is emitted.
  std::size_t collectors = 0;
  for (std::size_t t = 0; t < net.num_transitions(); ++t) {
    const Count w = net.width(t);
    if (w > 2) collectors += static_cast<std::size_t>(w) - 2;
  }

  WidthReduction reduction;
  reduction.compiled = PetriNet(d + collectors);
  reduction.original_places = d;

  // Original places keep their indices, so arcs carry over unchanged.
  std::size_t next_collector = d;
  for (std::size_t t = 0; t < net.num_transitions(); ++t) {
    if (net.width(t) <= 2) {
      reduction.compiled.add(net.pre(t), net.post(t));
      continue;
    }
    // The pre-multiset as a token list, increasing place order.
    std::vector<std::size_t> pre;
    for (const Arc& arc : net.pre(t)) {
      pre.insert(pre.end(), static_cast<std::size_t>(arc.count), arc.place);
    }
    // Gather steps: pre[0]+pre[1] -> a, a+pre[i] -> a', and the last
    // collector releases the full post.
    std::size_t held = 0;  // current collector place, once gathering
    Config held_contents(d);
    held_contents[pre[0]] += 1;
    for (std::size_t i = 1; i < pre.size(); ++i) {
      held_contents[pre[i]] += 1;
      // The held collector sits above every original place.
      const std::vector<Arc> step =
          i > 1              ? std::vector<Arc>{{pre[i], 1}, {held, 1}}
          : pre[0] == pre[1] ? std::vector<Arc>{{pre[0], 2}}
                             : std::vector<Arc>{{pre[0], 1}, {pre[1], 1}};
      if (i + 1 < pre.size()) {
        held = next_collector++;
        reduction.collector_contents.push_back(held_contents);
        reduction.compiled.add(step, std::vector<Arc>{{held, 1}});
      } else {
        reduction.compiled.add(step, net.post(t));
      }
    }
  }
  return reduction;
}

}  // namespace petri
}  // namespace ppsc

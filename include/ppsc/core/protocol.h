// Core data model: population protocols as conservative Petri nets.
//
// A protocol is a Petri net whose places are the agent states, together
// with an output bit per state, a mapping from input dimensions to input
// states, and a fixed multiset of leader agents. Transitions are
// conservative (they preserve the number of agents), which is what makes
// every configuration space finite for a fixed input and lets the
// verifier in verify/stable.h enumerate it exhaustively.
//
// The net is the petri::PetriNet every engine reads. ProtocolBuilder::
// build() compiles it once from the sparse rules, rejecting negative,
// non-conservative, empty and identity rules and keeping only the first
// of identical ones; rule_name(t) names them.
//
// The width of a transition is the number of agents it consumes; the
// width of a protocol is the maximum over its transitions. The paper's
// Section 4 trades exactly these three resources against each other:
// states, width, and leaders.

#ifndef PPSC_CORE_PROTOCOL_H
#define PPSC_CORE_PROTOCOL_H

#include <array>
#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "petri/petri_net.h"

namespace ppsc {
namespace core {

using Count = petri::Count;

// A configuration is a multiset of agent states, indexed by state id.
using Config = petri::Config;

class ProtocolBuilder;

// Named output bit for the declarative builder spelling
// (state("Y", Output::kOne)); equivalent to add_state's bool.
enum class Output { kZero = 0, kOne = 1 };

// An immutable population protocol. Build one with ProtocolBuilder.
class Protocol {
 public:
  std::size_t num_states() const { return state_names_.size(); }
  const std::string& state_name(std::size_t q) const { return state_names_[q]; }
  // Name -> id for every state (duplicate names keep the first id).
  const std::map<std::string, std::size_t>& states() const {
    return state_index_;
  }
  bool output(std::size_t q) const { return outputs_[q] != 0; }
  // This protocol with every state's output bit flipped.
  Protocol with_flipped_outputs() const;

  std::size_t input_arity() const { return input_states_.size(); }
  std::size_t input_state(std::size_t dim) const { return input_states_[dim]; }

  Count leaders(std::size_t q) const { return leaders_[q]; }
  // The leader multiset as a configuration over all states.
  const Config& leaders() const { return leaders_; }
  Count num_leaders() const;

  // Maximum number of agents consumed by a single transition.
  Count width() const { return net_.max_width(); }

  const petri::PetriNet& net() const { return net_; }
  const std::string& rule_name(std::size_t t) const { return rule_names_[t]; }

  // Leaders plus `input[dim]` agents in each input state.
  Config initial_config(const std::vector<Count>& input) const;

  // Total number of agents in `config`.
  static Count population(const Config& config);

 private:
  friend class ProtocolBuilder;
  Protocol() = default;

  std::vector<std::string> state_names_;
  std::map<std::string, std::size_t> state_index_;
  std::vector<int> outputs_;
  std::vector<std::size_t> input_states_;
  Config leaders_;
  petri::PetriNet net_;
  std::vector<std::string> rule_names_;
};

// A width-2 transition as ordered state pairs pre -> post, each side
// ascending (a state counted twice fills both slots); pre slot i pairs
// with post slot i. The product combinators and sim::PairRuleTable
// both read pairwise rules this way.
struct PairRule {
  std::array<std::size_t, 2> pre;
  std::array<std::size_t, 2> post;
};

// Transition t of `net` as a pair rule; std::nullopt unless it
// consumes and produces exactly two agents.
std::optional<PairRule> pair_rule(const petri::PetriNet& net, std::size_t t);

// Incremental builder so constructions read declaratively.
class ProtocolBuilder {
 public:
  // Returns the id of the new state.
  std::size_t add_state(const std::string& name, bool output);

  // Appends an input dimension mapped to `state`; dimension ids are
  // assigned in call order.
  void add_input(std::size_t state);

  void add_leaders(std::size_t state, Count count);

  // General multiset transition; entries are (state, count) pairs.
  void add_rule(const std::string& name,
                const std::vector<std::pair<std::size_t, Count>>& pre,
                const std::vector<std::pair<std::size_t, Count>>& post);

  // Width-2 convenience: a + b -> c + d. Silently skipped when it would
  // be an identity (the pair {a,b} equals the pair {c,d}).
  void add_pair_rule(const std::string& name, std::size_t a, std::size_t b,
                     std::size_t c, std::size_t d);

  // Declarative by-name spellings for one-off protocols (bench E16's
  // racy-consensus example). `rule` parses exactly the width-2 shape
  // "a + b -> c + d" -- state names therefore must not contain '+' or
  // "->". Unknown names and malformed specs throw std::invalid_argument.
  std::size_t state(const std::string& name, Output output);
  void initial(const std::string& name);
  void rule(const std::string& spec);

  // Compiles the net. A rule whose merged pre and post equal an
  // earlier rule's is dropped with its name, so every engine fires an
  // interaction with one weight.
  Protocol build();

 private:
  void check_state(std::size_t state, const std::string& rule) const;
  std::size_t state_id(const std::string& name, const std::string& where) const;

  // Rule r's pre arcs are arcs_[pre_begin, post_begin), its post arcs
  // run to the next rule's pre_begin; unsorted and possibly repeated
  // until build() merges them.
  struct PendingRule {
    std::size_t pre_begin;
    std::size_t post_begin;
  };

  Protocol protocol_;
  std::vector<Count> leaders_;  // Protocol::leaders_ once built
  std::vector<petri::Arc> arcs_;
  std::vector<PendingRule> pending_;
  bool built_ = false;
};

// A predicate over input vectors, carried alongside the protocol that is
// supposed to stably compute it.
struct Predicate {
  std::string name;
  std::size_t arity = 1;
  std::function<bool(const std::vector<Count>&)> fn;

  bool operator()(const std::vector<Count>& input) const { return fn(input); }
};

// A protocol together with the predicate it claims to compute and a
// human-readable family label, as used by the bench drivers.
struct ConstructedProtocol {
  std::string family;
  Protocol protocol;
  Predicate predicate;
};

}  // namespace core
}  // namespace ppsc

#endif  // PPSC_CORE_PROTOCOL_H

// System-level synthesis specifications.
//
// A specification couples an *application* (tasks and messages forming a
// DAG), an *architecture* (resources joined by directed links) and *mapping
// options* (task -> resource candidates with per-option WCET and energy).
// This is the specification-graph model of the symbolic system synthesis
// literature (Andres et al. LPNMR'13, Biewer et al. DATE'15, Neubauer et al.
// DATE'17/'18) that the DSE explores.
//
// Communication is store-and-forward over hop-bounded simple routes; a link
// traversal of message m costs  payload(m) * hop_delay(link)  time and
// payload(m) * hop_energy(link)  energy.  Link contention is not modelled
// (dedicated-bandwidth links), matching the simplification used in the
// symbolic encodings of the paper series.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "synth/objective_expr.hpp"

namespace aspmt::synth {

using TaskId = std::uint32_t;
using MessageId = std::uint32_t;
using ResourceId = std::uint32_t;
using LinkId = std::uint32_t;

enum class ResourceKind : std::uint8_t { Processor, Router, Bus };

struct Task {
  std::string name;
};

/// A data dependency from `src` to `dst` carrying `payload` units.
struct Message {
  std::string name;
  TaskId src = 0;
  TaskId dst = 0;
  std::int64_t payload = 1;
};

struct Resource {
  std::string name;
  ResourceKind kind = ResourceKind::Processor;
  std::int64_t cost = 0;  ///< monetary/area cost charged when allocated
  /// Maximum number of tasks that may be bound to this resource
  /// (0 = unlimited).
  std::uint32_t capacity = 0;
};

/// Directed communication link.
struct Link {
  ResourceId from = 0;
  ResourceId to = 0;
  std::int64_t hop_delay = 1;   ///< time per payload unit
  std::int64_t hop_energy = 1;  ///< energy per payload unit
};

/// One way of executing a task on a resource.
struct MappingOption {
  TaskId task = 0;
  ResourceId resource = 0;
  std::int64_t wcet = 1;
  std::int64_t energy = 0;
};

class Specification {
 public:
  // The builders throw std::invalid_argument on an id that names no task,
  // resource or scenario added so far.  Everything else about their
  // arguments — self-messages, self-links, non-positive WCETs, negative
  // weights — is validate()'s to reject.
  TaskId add_task(std::string name);
  MessageId add_message(std::string name, TaskId src, TaskId dst,
                        std::int64_t payload = 1);
  ResourceId add_resource(std::string name, ResourceKind kind, std::int64_t cost,
                          std::uint32_t capacity = 0);

  /// Adjust a resource's task capacity after creation (0 = unlimited).
  void set_capacity(ResourceId r, std::uint32_t capacity) {
    resources_[r].capacity = capacity;
  }
  LinkId add_link(ResourceId from, ResourceId to, std::int64_t hop_delay = 1,
                  std::int64_t hop_energy = 1);
  std::size_t add_mapping(TaskId task, ResourceId resource, std::int64_t wcet,
                          std::int64_t energy);

  [[nodiscard]] const std::vector<Task>& tasks() const noexcept { return tasks_; }
  [[nodiscard]] const std::vector<Message>& messages() const noexcept { return messages_; }
  [[nodiscard]] const std::vector<Resource>& resources() const noexcept { return resources_; }
  [[nodiscard]] const std::vector<Link>& links() const noexcept { return links_; }
  [[nodiscard]] const std::vector<MappingOption>& mappings() const noexcept { return mappings_; }

  /// Indices into mappings() for one task.
  [[nodiscard]] const std::vector<std::size_t>& mappings_of(TaskId t) const {
    return mappings_by_task_[t];
  }

  /// Outgoing link ids of a resource.
  [[nodiscard]] const std::vector<LinkId>& links_from(ResourceId r) const {
    return links_from_[r];
  }

  /// Routing hop bound; 0 (default) means "auto": the largest shortest-path
  /// distance between any mapping-candidate pair of any message.
  std::uint32_t max_hops = 0;

  /// Hard end-to-end deadline on the makespan (0 = none).  Implementations
  /// with a larger latency are infeasible, not merely dominated.
  std::int64_t latency_bound = 0;

  /// Effective hop bound (resolves the auto setting).
  [[nodiscard]] std::uint32_t effective_max_hops() const;

  /// All-pairs shortest hop counts over links (kUnreachable when absent).
  static constexpr std::uint32_t kUnreachable = 0xffffffffU;
  [[nodiscard]] std::vector<std::vector<std::uint32_t>> hop_distances() const;

  // ---- objective combinators ----------------------------------------------

  /// Declare a named energy scenario (factors default to 1 per resource).
  std::size_t add_scenario(std::string name);
  /// Set the per-resource energy factor (>= 1) of scenario `s`.
  void set_scenario_factor(std::size_t s, ResourceId r, std::int64_t factor);
  [[nodiscard]] const std::vector<Scenario>& scenarios() const noexcept {
    return scenarios_;
  }
  /// Index of a scenario by name, or npos.
  [[nodiscard]] std::size_t scenario_index(std::string_view name) const noexcept;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Declare one Pareto axis.  With no declared axes the specification uses
  /// the classic latency/energy/cost triple (default_objectives()).
  void add_objective(ObjectiveExpr expr) { objectives_.push_back(std::move(expr)); }
  [[nodiscard]] const std::vector<ObjectiveExpr>& objective_exprs() const noexcept {
    return objectives_;
  }
  /// The classic latency/energy/cost axes used when none are declared.
  [[nodiscard]] static std::vector<ObjectiveExpr> default_objectives();
  /// Declared axes, or the default triple when none are declared.
  [[nodiscard]] std::vector<ObjectiveExpr> effective_objectives() const;
  /// Number of Pareto axes the exploration sees.
  [[nodiscard]] std::size_t axis_count() const noexcept {
    return objectives_.empty() ? 3 : objectives_.size();
  }

  /// Structural sanity: every task has a mapping, every message joins two
  /// distinct existing tasks, every link two distinct resources, and every
  /// message admits at least one routable candidate binding pair.  Also validates scenario declarations and
  /// objective expressions.  Returns an empty string when sound.
  [[nodiscard]] std::string validate() const;
  /// Throws std::invalid_argument carrying validate()'s diagnostic unless
  /// the specification is sound: the runtime check the encoder and the
  /// explorers make before any work.
  void require_valid() const;

 private:
  std::vector<Task> tasks_;
  std::vector<Message> messages_;
  std::vector<Resource> resources_;
  std::vector<Link> links_;
  std::vector<MappingOption> mappings_;
  std::vector<std::vector<std::size_t>> mappings_by_task_;
  std::vector<std::vector<LinkId>> links_from_;
  std::vector<Scenario> scenarios_;
  std::vector<ObjectiveExpr> objectives_;
};

}  // namespace aspmt::synth

#include "synth/spec.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>

namespace aspmt::synth {
namespace {

/// The builders' runtime argument check: an id must name an element that
/// already exists.  Self-messages, self-links and non-positive WCETs are
/// well-formed calls that validate() rejects.
void require_id(std::size_t id, std::size_t count, const char* what) {
  if (id >= count) {
    throw std::invalid_argument(std::string("unknown ") + what + " id " +
                                std::to_string(id) + " (have " +
                                std::to_string(count) + ")");
  }
}

}  // namespace

TaskId Specification::add_task(std::string name) {
  const TaskId id = static_cast<TaskId>(tasks_.size());
  tasks_.push_back(Task{std::move(name)});
  mappings_by_task_.emplace_back();
  return id;
}

MessageId Specification::add_message(std::string name, TaskId src, TaskId dst,
                                     std::int64_t payload) {
  require_id(src, tasks_.size(), "task");
  require_id(dst, tasks_.size(), "task");
  const MessageId id = static_cast<MessageId>(messages_.size());
  messages_.push_back(Message{std::move(name), src, dst, payload});
  return id;
}

ResourceId Specification::add_resource(std::string name, ResourceKind kind,
                                       std::int64_t cost, std::uint32_t capacity) {
  const ResourceId id = static_cast<ResourceId>(resources_.size());
  resources_.push_back(Resource{std::move(name), kind, cost, capacity});
  links_from_.emplace_back();
  return id;
}

LinkId Specification::add_link(ResourceId from, ResourceId to,
                               std::int64_t hop_delay, std::int64_t hop_energy) {
  require_id(from, resources_.size(), "resource");
  require_id(to, resources_.size(), "resource");
  const LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{from, to, hop_delay, hop_energy});
  links_from_[from].push_back(id);
  return id;
}

std::size_t Specification::add_mapping(TaskId task, ResourceId resource,
                                       std::int64_t wcet, std::int64_t energy) {
  require_id(task, tasks_.size(), "task");
  require_id(resource, resources_.size(), "resource");
  const std::size_t idx = mappings_.size();
  mappings_.push_back(MappingOption{task, resource, wcet, energy});
  mappings_by_task_[task].push_back(idx);
  return idx;
}

std::vector<std::vector<std::uint32_t>> Specification::hop_distances() const {
  const std::size_t n = resources_.size();
  std::vector<std::vector<std::uint32_t>> dist(
      n, std::vector<std::uint32_t>(n, kUnreachable));
  for (ResourceId s = 0; s < n; ++s) {
    dist[s][s] = 0;
    std::deque<ResourceId> queue{s};
    while (!queue.empty()) {
      const ResourceId u = queue.front();
      queue.pop_front();
      for (const LinkId l : links_from_[u]) {
        const ResourceId v = links_[l].to;
        if (dist[s][v] == kUnreachable) {
          dist[s][v] = dist[s][u] + 1;
          queue.push_back(v);
        }
      }
    }
  }
  return dist;
}

std::uint32_t Specification::effective_max_hops() const {
  if (max_hops != 0) return max_hops;
  const auto dist = hop_distances();
  std::uint32_t needed = 0;
  for (const Message& m : messages_) {
    for (const std::size_t so : mappings_by_task_[m.src]) {
      for (const std::size_t do_ : mappings_by_task_[m.dst]) {
        const std::uint32_t d =
            dist[mappings_[so].resource][mappings_[do_].resource];
        if (d != kUnreachable) needed = std::max(needed, d);
      }
    }
  }
  return needed;
}

std::size_t Specification::add_scenario(std::string name) {
  scenarios_.push_back(Scenario{std::move(name), {}});
  return scenarios_.size() - 1;
}

void Specification::set_scenario_factor(std::size_t s, ResourceId r,
                                        std::int64_t factor) {
  require_id(s, scenarios_.size(), "scenario");
  require_id(r, resources_.size(), "resource");
  auto& f = scenarios_[s].factor;
  if (f.size() <= r) f.resize(r + 1, 1);
  f[r] = factor;
}

std::size_t Specification::scenario_index(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < scenarios_.size(); ++i) {
    if (scenarios_[i].name == name) return i;
  }
  return npos;
}

std::vector<ObjectiveExpr> Specification::default_objectives() {
  std::vector<ObjectiveExpr> axes(3);
  axes[0].metric = "latency";
  axes[1].metric = "energy";
  axes[2].metric = "cost";
  return axes;
}

std::vector<ObjectiveExpr> Specification::effective_objectives() const {
  return objectives_.empty() ? default_objectives() : objectives_;
}

std::string Specification::validate() const {
  for (TaskId t = 0; t < tasks_.size(); ++t) {
    if (mappings_by_task_[t].empty()) {
      return "task '" + tasks_[t].name + "' has no mapping option";
    }
  }
  const auto dist = hop_distances();
  const std::uint32_t hops = effective_max_hops();
  for (const Message& m : messages_) {
    if (m.src >= tasks_.size() || m.dst >= tasks_.size()) {
      return "message '" + m.name + "' references an unknown task";
    }
    if (m.src == m.dst) {
      return "message '" + m.name + "' goes from a task to itself";
    }
    if (m.payload < 0) return "message '" + m.name + "' has negative payload";
    bool routable = false;
    for (const std::size_t so : mappings_by_task_[m.src]) {
      for (const std::size_t do_ : mappings_by_task_[m.dst]) {
        const std::uint32_t d =
            dist[mappings_[so].resource][mappings_[do_].resource];
        if (d != kUnreachable && d <= hops) {
          routable = true;
          break;
        }
      }
      if (routable) break;
    }
    if (!routable) {
      return "message '" + m.name + "' admits no routable binding pair";
    }
  }
  for (const MappingOption& o : mappings_) {
    if (o.wcet < 1) return "mapping with non-positive WCET";
    if (o.energy < 0) return "mapping with negative energy";
  }
  for (const Resource& r : resources_) {
    if (r.cost < 0) return "resource '" + r.name + "' has negative cost";
  }
  for (const Link& l : links_) {
    if (l.from == l.to) {
      return "link from resource '" + resources_[l.from].name + "' to itself";
    }
    if (l.hop_delay < 0 || l.hop_energy < 0) return "link with negative weights";
  }
  for (std::size_t s = 0; s < scenarios_.size(); ++s) {
    const Scenario& sc = scenarios_[s];
    if (sc.name.empty()) return "scenario with empty name";
    for (std::size_t t = 0; t < s; ++t) {
      if (scenarios_[t].name == sc.name) {
        return "duplicate scenario '" + sc.name + "'";
      }
    }
    if (sc.factor.size() > resources_.size()) {
      return "scenario '" + sc.name + "' names an unknown resource";
    }
    for (const std::int64_t f : sc.factor) {
      if (f < 1) return "scenario '" + sc.name + "' has a factor below 1";
    }
  }
  for (const ObjectiveExpr& expr : objectives_) {
    const std::string err = validate_objective_expr(*this, expr);
    if (!err.empty()) return "objective " + to_string(expr) + ": " + err;
  }
  return {};
}

void Specification::require_valid() const {
  const std::string err = validate();
  if (!err.empty()) {
    throw std::invalid_argument("invalid specification: " + err);
  }
}

}  // namespace aspmt::synth

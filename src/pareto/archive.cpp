#include "pareto/archive.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "pareto/quadtree.hpp"

namespace aspmt::pareto {

bool LinearArchive::insert(const Vec& p) {
  for (const Vec& q : points_) {
    count_comparison();
    if (weakly_dominates(q, p)) return false;
  }
  std::erase_if(points_, [&](const Vec& q) {
    count_comparison();
    return weakly_dominates(p, q);
  });
  points_.push_back(p);
  return true;
}

std::size_t LinearArchive::erase_dominated_by(const Vec& p) {
  return std::erase_if(points_, [&](const Vec& q) {
    count_comparison();
    return q != p && weakly_dominates(p, q);
  });
}

const Vec* LinearArchive::find_weak_dominator(const Vec& q) const {
  for (const Vec& p : points_) {
    count_comparison();
    if (weakly_dominates(p, q)) return &p;
  }
  return nullptr;
}

std::vector<Vec> LinearArchive::points() const {
  std::vector<Vec> out = points_;
  std::sort(out.begin(), out.end());
  return out;
}

void check_dimensions(const Vec& p, std::size_t dimensions) {
  if (p.size() != dimensions) {
    throw std::invalid_argument("point has " + std::to_string(p.size()) +
                                " objectives, archive has " +
                                std::to_string(dimensions));
  }
}

std::unique_ptr<Archive> make_archive(const std::string& kind,
                                      std::size_t dimensions) {
  if (kind == "linear") return std::make_unique<LinearArchive>();
  if (kind == "quadtree") return std::make_unique<QuadTreeArchive>(dimensions);
  throw std::invalid_argument("unknown archive kind: " + kind);
}

}  // namespace aspmt::pareto

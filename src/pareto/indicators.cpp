#include "pareto/indicators.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace aspmt::pareto {
namespace {

/// Recursive slicing over the last dimension (HSO).  `pts` are clipped,
/// non-dominated, and of dimension k >= 1.
double hv_recursive(std::vector<Vec> pts, const Vec& ref, std::size_t k) {
  if (pts.empty()) return 0.0;
  if (k == 1) {
    std::int64_t best = ref[0];
    for (const Vec& p : pts) best = std::min(best, p[0]);
    return static_cast<double>(ref[0] - best);
  }
  // Sort by the last coordinate ascending and sweep slices.
  std::sort(pts.begin(), pts.end(), [k](const Vec& a, const Vec& b) {
    return a[k - 1] < b[k - 1];
  });
  double volume = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const std::int64_t lo = pts[i][k - 1];
    const std::int64_t hi = (i + 1 < pts.size()) ? pts[i + 1][k - 1] : ref[k - 1];
    if (hi <= lo) continue;
    // Points contributing to this slice: those with last coord <= lo.
    std::vector<Vec> slice;
    for (std::size_t j = 0; j <= i; ++j) {
      slice.push_back(Vec(pts[j].begin(), pts[j].end() - 1));
    }
    slice = non_dominated_filter(std::move(slice));
    volume += static_cast<double>(hi - lo) * hv_recursive(std::move(slice), ref, k - 1);
  }
  return volume;
}

}  // namespace

double hypervolume(std::vector<Vec> front, const Vec& ref) {
  if (front.empty()) return 0.0;
  const std::size_t k = ref.size();
  std::vector<Vec> clipped;
  for (const Vec& p : front) {
    assert(p.size() == k);
    if (weakly_dominates(p, ref)) clipped.push_back(p);
  }
  clipped = non_dominated_filter(std::move(clipped));
  return hv_recursive(std::move(clipped), ref, k);
}

std::int64_t additive_epsilon(const std::vector<Vec>& approximation,
                              const std::vector<Vec>& reference) {
  if (reference.empty()) return 0;
  if (approximation.empty()) return std::numeric_limits<std::int64_t>::max();
  std::int64_t eps = 0;
  for (const Vec& r : reference) {
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (const Vec& a : approximation) {
      std::int64_t worst = std::numeric_limits<std::int64_t>::min();
      for (std::size_t i = 0; i < r.size(); ++i) {
        worst = std::max(worst, a[i] - r[i]);
      }
      best = std::min(best, worst);
    }
    eps = std::max(eps, best);
  }
  return eps;
}

double coverage_ratio(const std::vector<Vec>& approximation,
                      const std::vector<Vec>& reference) {
  if (reference.empty()) return 1.0;
  std::size_t hit = 0;
  for (const Vec& r : reference) {
    if (std::find(approximation.begin(), approximation.end(), r) !=
        approximation.end()) {
      ++hit;
    }
  }
  return static_cast<double>(hit) / static_cast<double>(reference.size());
}

}  // namespace aspmt::pareto

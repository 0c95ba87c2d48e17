// Front-quality indicators used by the Figure 1 comparison between the
// exact front and the evolutionary approximation.
#pragma once

#include <cstdint>
#include <vector>

#include "pareto/point.hpp"

namespace aspmt::pareto {

/// Hypervolume dominated by `front` w.r.t. reference point `ref`
/// (minimisation; every front point should be <= ref componentwise — points
/// beyond the reference are clipped away).  Exact recursive slicing; fine
/// for the small fronts of this domain.
[[nodiscard]] double hypervolume(std::vector<Vec> front, const Vec& ref);

/// Additive epsilon indicator eps(A, R): the smallest e such that every
/// reference point r in R is weakly dominated by some a in A shifted by e
/// (a_i - e <= r_i).  Zero iff A covers R.
[[nodiscard]] std::int64_t additive_epsilon(const std::vector<Vec>& approximation,
                                            const std::vector<Vec>& reference);

/// Fraction of reference points that appear (exactly) in `approximation`.
[[nodiscard]] double coverage_ratio(const std::vector<Vec>& approximation,
                                    const std::vector<Vec>& reference);

}  // namespace aspmt::pareto

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

/// Remaining-hypervolume estimate per epsilon slice of objective 0.
///
/// `splits` are the ascending interior bounds the portfolio's slice
/// scheduler cuts (dse::SliceScheduler::seed); slice i is the objective-0 band
/// (splits[i-1], splits[i]] (the first band starts at the front's
/// objective-0 minimum).  The score of a band is the volume of its
/// bounding box — spanned by the band on objective 0 and by the front's
/// per-objective [min, max+1) ranges elsewhere — minus the part of the box
/// already dominated by the (clipped) front.  A large gap means the
/// incumbent front leaves much of the band unexplained, so a worker
/// constrained to that slice has the most hypervolume left to win; this is
/// the score the portfolio scheduler ranks slices by.
///
/// Returns one non-negative score per split; empty when `front` has fewer
/// than two points or `splits` is empty.
[[nodiscard]] std::vector<double> slice_hypervolume_gaps(
    const std::vector<Vec>& front, const std::vector<std::int64_t>& splits);

}  // namespace aspmt::pareto

#include "tracking/detection.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/vec2.h"

namespace rfp::tracking {

namespace {

bool isLocalMax(const radar::RangeAngleMap& map, std::size_t r,
                std::size_t a) {
  const double v = map.at(r, a);
  const std::size_t r0 = r > 0 ? r - 1 : r;
  const std::size_t r1 = std::min(r + 1, map.numRanges() - 1);
  const std::size_t a0 = a > 0 ? a - 1 : a;
  const std::size_t a1 = std::min(a + 1, map.numAngles() - 1);
  for (std::size_t rr = r0; rr <= r1; ++rr) {
    for (std::size_t aa = a0; aa <= a1; ++aa) {
      if (rr == r && aa == a) continue;
      if (map.at(rr, aa) > v) return false;
    }
  }
  return true;
}

}  // namespace

PeakDetector::PeakDetector(DetectorOptions options) : options_(options) {}

void PeakDetector::suppressAndConvert(
    const radar::RangeAngleMap& map, const radar::Processor& processor,
    std::vector<std::pair<std::size_t, std::size_t>>& candidates,
    std::vector<Detection>& out) const {
  // Strongest-first greedy non-maximum suppression.
  std::sort(candidates.begin(), candidates.end(),
            [&](const auto& x, const auto& y) {
              return map.at(x.first, x.second) > map.at(y.first, y.second);
            });

  out.clear();
  for (const auto& [r, a] : candidates) {
    const double range = map.rangesM[r];
    const double angle = map.anglesRad[a];
    if (options_.bounds.has_value() &&
        !options_.bounds->contains(processor.toWorld(range, angle))) {
      continue;
    }
    const bool tooClose = std::any_of(
        out.begin(), out.end(), [&](const Detection& d) {
          return std::fabs(d.rangeM - range) < options_.minSeparationM &&
                 rfp::common::angularDistance(d.angleRad, angle) <
                     options_.minSeparationRad;
        });
    if (tooClose) continue;

    Detection det;
    det.rangeM = range;
    det.angleRad = angle;
    det.power = map.at(r, a);
    det.world = processor.toWorld(range, angle);
    det.timestampS = map.timestampS;
    out.push_back(det);
    if (out.size() >= options_.maxDetections) break;
  }

  // Dynamic-range cut relative to the strongest accepted peak.
  if (!out.empty() && options_.dynamicRangeDb > 0.0) {
    const double floor =
        out.front().power * std::pow(10.0, -options_.dynamicRangeDb / 10.0);
    std::erase_if(out,
                  [&](const Detection& d) { return d.power < floor; });
  }
}

void PeakDetector::detectInto(const radar::RangeAngleMap& map,
                              const radar::Processor& processor,
                              DetectScratch& scratch,
                              std::vector<Detection>& out) const {
  // Noise floor: the median cell power, on the reused median scratch.
  double floorValue = 0.0;
  const std::size_t total = map.power.size();
  scratch.cells.assign(map.power.begin(), map.power.end());
  if (total > 0) {
    const std::size_t mid = total / 2;
    std::nth_element(scratch.cells.begin(), scratch.cells.begin() + mid,
                     scratch.cells.end());
    floorValue = scratch.cells[mid];
  }
  const double threshold = floorValue * options_.thresholdFactor;
  scratch.candidates.clear();
  // Flat row-major sweep (same (r, a) visit order as the nested loop).
  // Blocks with no cell above threshold -- the overwhelming majority --
  // are skipped on one vectorizable compare-reduce.
  const double* p = map.power.data();
  const std::size_t nA = map.numAngles();
  constexpr std::size_t kBlock = 16;
  std::size_t idx = 0;
  while (idx < total) {
    const std::size_t end = std::min(idx + kBlock, total);
    bool any = false;
    for (std::size_t i = idx; i < end; ++i) any |= p[i] > threshold;
    if (any) {
      for (std::size_t i = idx; i < end; ++i) {
        if (p[i] > threshold) {
          const std::size_t r = i / nA;
          const std::size_t a = i % nA;
          if (isLocalMax(map, r, a)) scratch.candidates.emplace_back(r, a);
        }
      }
    }
    idx = end;
  }
  suppressAndConvert(map, processor, scratch.candidates, out);
}

std::vector<Detection> PeakDetector::detect(
    const radar::RangeAngleMap& map,
    const radar::Processor& processor) const {
  DetectScratch scratch;
  std::vector<Detection> out;
  detectInto(map, processor, scratch, out);
  return out;
}

std::vector<Detection> PeakDetector::detectCfar(
    const radar::RangeAngleMap& map,
    const radar::Processor& processor) const {
  const std::size_t numRanges = map.numRanges();
  const std::size_t train = options_.cfarTrainCells;
  const std::size_t guard = options_.cfarGuardCells;

  std::vector<std::pair<std::size_t, std::size_t>> candidates;
  for (std::size_t a = 0; a < map.numAngles(); ++a) {
    for (std::size_t r = 0; r < numRanges; ++r) {
      // Average the training cells on both sides of the guard interval.
      double sum = 0.0;
      std::size_t count = 0;
      for (std::size_t k = guard + 1; k <= guard + train; ++k) {
        if (r >= k) {
          sum += map.at(r - k, a);
          ++count;
        }
        if (r + k < numRanges) {
          sum += map.at(r + k, a);
          ++count;
        }
      }
      if (count == 0) continue;
      const double local = sum / static_cast<double>(count);
      if (map.at(r, a) > options_.cfarScale * local &&
          isLocalMax(map, r, a)) {
        candidates.emplace_back(r, a);
      }
    }
  }
  std::vector<Detection> out;
  suppressAndConvert(map, processor, candidates, out);
  return out;
}

}  // namespace rfp::tracking

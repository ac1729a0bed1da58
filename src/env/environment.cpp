#include "env/environment.h"

#include "common/thread_pool.h"

namespace rfp::env {

int Environment::addHuman(TimedPath path, BreathingModel breathing,
                          double baseAmplitude) {
  const int id = static_cast<int>(humans_.size());
  humans_.emplace_back(id, std::move(path), breathing, baseAmplitude);
  return id;
}

std::vector<PointScatterer> Environment::snapshot(
    double t, rfp::common::Rng& rng, const SnapshotOptions& opts) const {
  std::vector<PointScatterer> out;
  snapshotInto(out, t, rng, opts);
  return out;
}

void Environment::snapshotInto(std::vector<PointScatterer>& out, double t,
                               rfp::common::Rng& rng,
                               const SnapshotOptions& opts) const {
  out.clear();
  // Stochastic draws first, in human order, on the caller's sequential
  // Rng (the seeded-stream contract); geometry fans out afterwards.
  // Per-thread scratch: contents are fully rewritten every call, so reuse
  // cannot leak state between frames (or between scenarios sharing a
  // worker thread) -- it only spares the per-frame allocations.
  static thread_local std::vector<PointScatterer> primaries;
  static thread_local std::vector<std::vector<PointScatterer>> images;
  primaries.clear();
  for (const Human& h : humans_) {
    primaries.push_back(h.scatterAt(t, rng, opts.rcsJitter));
  }

  if (opts.includeMultipath) {
    multipathImagesBatchInto(plan_, primaries, opts.multipathLoss,
                             opts.multipathObserver, images);
    for (std::size_t i = 0; i < primaries.size(); ++i) {
      out.push_back(primaries[i]);
      out.insert(out.end(), images[i].begin(), images[i].end());
    }
  } else {
    out.insert(out.end(), primaries.begin(), primaries.end());
  }

  if (opts.includeClutter) {
    for (const PointScatterer& c : plan_.clutter()) out.push_back(c);
  }
}

void multipathImagesBatchInto(
    const FloorPlan& plan, std::span<const PointScatterer> primaries,
    double extraLoss, std::optional<rfp::common::Vec2> observer,
    std::vector<std::vector<PointScatterer>>& images) {
  images.resize(primaries.size());
  rfp::common::ThreadPool::global().parallelFor(
      0, primaries.size(), [&](std::size_t i) {
        plan.multipathImagesInto(primaries[i], extraLoss, observer,
                                 images[i]);
      });
}

}  // namespace rfp::env

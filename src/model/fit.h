#ifndef LIMBO_MODEL_FIT_H_
#define LIMBO_MODEL_FIT_H_

#include "model/model_bundle.h"
#include "relation/relation.h"
#include "util/result.h"

namespace limbo::model {

/// Parameters of a model fit — the union of the batch pipeline's knobs
/// that matter at serving time.
struct FitOptions {
  /// Tuple-clustering accuracy φ_T (Phase-1 merge threshold φ_T·I/n).
  double phi_t = 0.1;
  /// Value-clustering accuracy φ_V.
  double phi_v = 0.0;
  /// FD-RANK ψ.
  double psi = 0.5;
  /// Number of tuple clusters for the Phase-3 assignment map (clipped to
  /// the Phase-1 leaf count, like LimboOptions::k).
  size_t k = 10;
  /// Association margin for the near-duplicate check: a row counts as a
  /// duplicate only if its assignment loss is at most margin × threshold.
  double association_margin = 2.0;
  /// Worker lanes (0 = LIMBO_THREADS / hardware). Results bit-identical
  /// at every value.
  size_t threads = 0;
  /// When true (default), the bundle carries the frozen Phase-1 tree and
  /// per-row leaf-entry ids so `limbo-tool refit` can absorb new rows
  /// incrementally. Disable to shave the extra section off the file.
  bool refit_state = true;
  /// When true, mine approximate acyclic schemes (src/schemes) over the
  /// fitted relation and persist them in the bundle's tag-11 section, so
  /// the serve layer can answer `schemes` queries without re-mining.
  bool mine_schemes = false;
  /// J-measure acceptance bound, in bits, for the mined schemes.
  double schemes_epsilon = 0.05;
  /// Largest separator cardinality the miner enumerates.
  size_t schemes_max_separator = 2;
};

/// Freezes one full LIMBO run over `rel` into a bundle: RunLimbo for the
/// tuple representatives/assignments and core::DeriveStructure for the
/// value groups, dendrogram and ranked FDs (the fit has no use for
/// SummarizeStructure's profile and duplicate pass, so it skips them). The bundle's representatives and
/// assignments are exactly the batch RunLimbo output — a serve-side
/// re-assignment of the same rows reproduces them bit for bit.
util::Result<ModelBundle> FitModel(const relation::Relation& rel,
                                   const FitOptions& options = FitOptions());

}  // namespace limbo::model

#endif  // LIMBO_MODEL_FIT_H_

// Seeded workload inputs: AIGER pairs written to disk, each with the verdict
// known independently of every CEC engine (from construction, confirmed or
// established by the benchmark's own bit-parallel simulation).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/aig/aig.h"
#include "src/cec/result.h"

namespace cecbench {

enum class EngineKind { kSweep, kMonolithic };

/// One AIGER pair on disk and its independently known verdict.
struct PairFiles {
  std::string name;
  std::string leftPath;
  std::string rightPath;
  cp::cec::Verdict expected = cp::cec::Verdict::kEquivalent;
};

/// One certification: which pair, by which engine.
struct JobSpec {
  std::size_t pair = 0;
  EngineKind engine = EngineKind::kSweep;
};

struct Workload {
  std::string name;
  std::vector<PairFiles> pairs;
  std::vector<JobSpec> jobs;  ///< one round, in submission order
};

/// Generates `name`'s inputs from `seed` into `dir` (created if missing).
/// The same seed writes the same files. Throws std::invalid_argument for an
/// unknown workload and std::runtime_error when a generated pair disagrees
/// with its constructed verdict under the benchmark's own simulation.
Workload generateWorkload(const std::string& name, std::uint64_t seed,
                          const std::string& dir);

/// True when the circuits' outputs differ on `inputs`, evaluated by
/// aig::Aig::evaluate on each circuit separately: the counterexample replay
/// of the correctness gate.
bool outputsDiffer(const cp::aig::Aig& left, const cp::aig::Aig& right,
                   const std::vector<bool>& inputs);

}  // namespace cecbench

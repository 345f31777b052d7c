// The steps of cec::checkMiter, called one public function at a time so the
// traced run can time each layer from the benchmark's own files: encode,
// audit, engine with a streaming CPF writer, trim, in-memory check and the
// on-disk streaming check. The results must reproduce checkMiter's.
#pragma once

#include <cstdint>

#include "cecbench/src/trace.h"
#include "src/aig/aig.h"
#include "src/cec/certify.h"
#include "src/cnf/audit.h"
#include "src/proof/checker.h"
#include "src/proof/proof_log.h"
#include "src/proof/trim.h"
#include "src/proofio/reader.h"
#include "src/proofio/writer.h"

namespace cecbench {

struct ChainResult {
  cp::cec::CecResult cec;
  cp::cnf::AuditStats audit;
  cp::proofio::WriteStats write;
  cp::proof::ProofLog rawLog;
  cp::proof::TrimmedProof trimmed;  ///< empty unless equivalent
  cp::proof::CheckResult check;
  cp::proof::CheckResult diskCheck;
  cp::proofio::StreamCheckStats stream;
  /// Accepted in memory and from disk (equivalent verdicts only).
  bool proofChecked = false;
  /// Wall time of the steps checkMiter itself performs.
  double seconds = 0.0;
};

/// Runs checkMiter's chain for a sweep or monolithic `config` with
/// auditEncoding set and a proofPath, recording spans under `job`.
ChainResult runChain(const cp::aig::Aig& miter,
                     const cp::cec::EngineConfig& config, Trace& trace,
                     std::uint64_t job);

}  // namespace cecbench

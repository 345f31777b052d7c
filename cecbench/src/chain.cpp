#include "cecbench/src/chain.h"

#include <stdexcept>
#include <variant>

#include "src/base/diagnostics.h"
#include "src/base/stopwatch.h"
#include "src/cec/monolithic_cec.h"
#include "src/cec/sweeping_cec.h"
#include "src/cnf/cnf.h"

namespace cecbench {

namespace cec = cp::cec;

namespace {

/// Detaches the writer from the log on every exit path, as checkMiter does.
class SinkGuard {
 public:
  SinkGuard(cp::proof::ProofLog& log, cp::proof::ProofSink* sink) : log_(log) {
    log_.setSink(sink);
  }
  ~SinkGuard() { log_.setSink(nullptr); }
  SinkGuard(const SinkGuard&) = delete;
  SinkGuard& operator=(const SinkGuard&) = delete;

 private:
  cp::proof::ProofLog& log_;
};

}  // namespace

ChainResult runChain(const cp::aig::Aig& miter, const cec::EngineConfig& config,
                     Trace& trace, std::uint64_t job) {
  if (!config.auditEncoding || config.proofPath.empty()) {
    throw std::invalid_argument("runChain needs auditEncoding and proofPath");
  }
  ChainResult r;
  cp::Stopwatch wall;
  const cp::cnf::VarMap varMap = cp::cnf::VarMap::identity(miter.numNodes());
  {
    cp::cnf::Cnf cnf;
    {
      Trace::Scope s(&trace, "cnf.encode", job);
      cnf = cp::cnf::encodeWithOutputAssertion(miter);
    }
    Trace::Scope s(&trace, "cnf.audit", job);
    cp::diag::DiagnosticCollector findings(cp::diag::Severity::kWarning);
    cp::cnf::AuditOptions options;
    options.parallel = config.check;
    r.audit = cp::cnf::auditEncoding(miter, cnf, varMap, findings, options);
  }

  {
    cp::proofio::ProofWriter writer(config.proofPath);
    writer.setVarMap(varMap.varOf);
    {
      SinkGuard guard(r.rawLog, &writer);
      if (const auto* sweep = std::get_if<cec::SweepOptions>(&config.engine)) {
        Trace::Scope s(&trace, "cec.sweep", job);
        r.cec = cec::sweepingCheck(miter, *sweep, &r.rawLog);
      } else if (const auto* mono =
                     std::get_if<cec::MonolithicOptions>(&config.engine)) {
        Trace::Scope s(&trace, "cec.mono", job);
        r.cec = cec::monolithicCheck(miter, *mono, &r.rawLog);
      } else {
        throw std::invalid_argument("runChain runs the sweep or mono engine");
      }
    }
    Trace::Scope s(&trace, "proofio.finish", job);
    r.write = writer.finish();
  }

  if (r.cec.verdict == cec::Verdict::kInequivalent) {
    Trace::Scope s(&trace, "cec.cex_check", job);
    if (!miter.evaluate(r.cec.counterexample).at(0)) {
      throw std::logic_error("counterexample does not set the miter output");
    }
  }
  if (r.cec.verdict != cec::Verdict::kEquivalent) {
    r.seconds = wall.seconds();
    return r;
  }

  {
    Trace::Scope s(&trace, "proof.trim", job);
    r.trimmed = cp::proof::trimProof(r.rawLog);
  }
  std::function<bool(std::span<const cp::sat::Lit>)> validator;
  {
    Trace::Scope s(&trace, "proof.axioms", job);
    validator = cec::miterAxiomValidator(miter);
  }
  {
    Trace::Scope s(&trace, "proof.check", job);
    cp::proof::CheckOptions options;
    options.requireRoot = true;
    options.axiomValidator = validator;
    options.parallel.numThreads = config.check.numThreads;
    r.check = cp::proof::checkProof(r.trimmed.log, options);
  }
  {
    Trace::Scope s(&trace, "proofio.stream_check", job);
    cp::proofio::StreamCheckOptions options;
    options.requireRoot = true;
    options.axiomValidator = validator;
    r.diskCheck =
        cp::proofio::checkProofFile(config.proofPath, options, &r.stream);
  }
  r.proofChecked = r.check.ok && r.diskCheck.ok;
  r.seconds = wall.seconds();
  return r;
}

}  // namespace cecbench

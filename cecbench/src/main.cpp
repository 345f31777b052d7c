// cecbench: the repository benchmark. Certified CEC from a seeded AIGER pair
// to a checked verdict, on three workloads (see cecbench/README.md).
//
//   cecbench --workload <mul_single|batch_shared|batch_unique> --seed <n>
//            --seconds <s> --trace <0|1> --work <dir>
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it times
// the calls into each layer from this file and prints the per-layer
// metrics. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}, and the exit code is
// non-zero when any job misses the correctness gate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cecbench/src/chain.h"
#include "cecbench/src/inputs.h"
#include "cecbench/src/trace.h"
#include "src/aig/aiger.h"
#include "src/base/stopwatch.h"
#include "src/cec/certify.h"
#include "src/cec/miter.h"
#include "src/serve/service.h"

namespace cecbench {
namespace {

namespace cec = cp::cec;
namespace serve = cp::serve;
using cp::Stopwatch;
using cp::aig::Aig;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work;
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--work") {
      a.work = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || a.work.empty() ||
      a.seconds <= 0.0) {
    throw std::invalid_argument(
        "usage: cecbench --workload W --seed N --seconds S --trace 0|1 "
        "--work DIR");
  }
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

std::string cpuModel() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool optimizedBuild() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Metrics in print order, each with its unit.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    list_.push_back({name, value, unit});
  }

  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    for (const auto& m : list_) {
      std::printf("metric %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < list_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", list_[i].name.c_str(), list_[i].value,
                  list_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> list_;
};

/// Per-round values of the traced run; the run reports each one's median.
using RoundValues = std::map<std::string, double>;

struct LoadedPair {
  Aig left;
  Aig right;
  Aig miter;
};

class Bench {
 public:
  Bench(Args args, Workload workload)
      : args_(std::move(args)),
        workload_(std::move(workload)),
        nproc_(std::max(1u, std::thread::hardware_concurrency())),
        isBatch_(workload_.name != "mul_single"),
        proofDir_(args_.work + "/proofs") {
    std::filesystem::create_directories(proofDir_);
  }

  int run() {
    printFingerprint();
    setup();
    Stopwatch measuring;
    do {
      if (isBatch_) {
        batchRound();
      } else {
        singleRound();
      }
      std::printf("round %zu: wall %.4f s\n", rounds_.size(),
                  rounds_.back().at("wall_s"));
    } while (measuring.seconds() < args_.seconds);
    if (isBatch_ && !args_.trace) replayCounterexamples();
    report();
    return correct() ? 0 : 1;
  }

 private:
  // ---- set-up: parse every AIGER pair, build its miter, start the service

  void setup() {
    // Back-to-back repetitions inside one process all land in one machine
    // state, and per-process medians then differed by a third between runs;
    // a pause before each repetition samples a cold start every time.
    constexpr int kReps = 25;
    std::vector<double> total, parse, miter;
    for (int rep = 0; rep < kReps; ++rep) {
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
      const std::size_t from = trace_.size();
      Trace* t = args_.trace ? &trace_ : nullptr;
      Stopwatch sw;
      std::vector<LoadedPair> pairs;
      pairs.reserve(workload_.pairs.size());
      for (const PairFiles& f : workload_.pairs) {
        LoadedPair p;
        {
          Trace::Scope s(t, "aig.parse", 0);
          p.left = cp::aig::readAigerFile(f.leftPath);
          p.right = cp::aig::readAigerFile(f.rightPath);
        }
        Trace::Scope s(t, "aig.miter", 0);
        p.miter = cec::buildMiter(p.left, p.right);
        pairs.push_back(std::move(p));
      }
      std::unique_ptr<serve::BatchService> service;
      if (isBatch_) {
        Trace::Scope s(t, "serve.start", 0);
        service = std::make_unique<serve::BatchService>(serviceOptions());
      }
      total.push_back(sw.seconds());
      parse.push_back(trace_.total("aig.parse", from, trace_.size()));
      miter.push_back(trace_.total("aig.miter", from, trace_.size()));
      pairs_ = std::move(pairs);
    }
    setupSeconds_ = median(total);
    parseSeconds_ = median(parse);
    miterSeconds_ = median(miter);
  }

  serve::ServiceOptions serviceOptions() const {
    // Library defaults (one worker per hardware thread, lemma cache on),
    // with admission bounded to one queued job per worker so the single
    // submitting thread runs the batch as a closed loop.
    serve::ServiceOptions options;
    options.maxQueuedJobs = nproc_;
    return options;
  }

  cec::EngineConfig engineConfig(const JobSpec& job,
                                 const std::string& proofPath) const {
    cec::EngineConfig config;
    if (job.engine == EngineKind::kMonolithic) {
      config.engine = cec::MonolithicOptions();
    }
    config.auditEncoding = true;
    config.proofPath = proofPath;
    config.check.numThreads = isBatch_ ? 1 : nproc_;
    return config;
  }

  std::string proofPath(const std::string& tag, std::size_t job) const {
    return proofDir_ + "/" + tag + std::to_string(job) + ".cpf";
  }

  /// Unlinks every proof file once its job is checked, outside the timed
  /// spans. Rewriting an existing file through a truncating open makes
  /// ext4 flush it to disk on close, which a stream of fresh files does
  /// not pay; reusing names across rounds must not add that cost.
  void removeProofs() const {
    for (const auto& entry : std::filesystem::directory_iterator(proofDir_)) {
      std::filesystem::remove(entry.path());
    }
  }

  // ---- correctness gate -------------------------------------------------

  bool fail(const std::string& job, const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "FAILED %s: %s\n", job.c_str(), why.c_str());
    return false;
  }

  /// Verdict, audit and proof checks on a standalone certification.
  /// A null `cex` defers the counterexample replay (batch records).
  bool gate(const JobSpec& job, const cec::Verdict verdict, bool auditOk,
            bool proofAccepted, const std::vector<bool>* cex) {
    const PairFiles& f = workload_.pairs[job.pair];
    const LoadedPair& p = pairs_[job.pair];
    if (verdict != f.expected) {
      return fail(f.name, std::string("verdict ") + cec::toString(verdict) +
                              ", expected " + cec::toString(f.expected));
    }
    if (!auditOk) return fail(f.name, "encoding audit not clean");
    if (verdict == cec::Verdict::kEquivalent && !proofAccepted) {
      return fail(f.name, "proof not accepted in memory and from disk");
    }
    if (verdict == cec::Verdict::kInequivalent && cex != nullptr &&
        !outputsDiffer(p.left, p.right, *cex)) {
      return fail(f.name, "counterexample does not replay");
    }
    return true;
  }

  bool gateReport(const JobSpec& job, const cec::CertifyReport& r) {
    return gate(job, r.cec.verdict, r.audit.ran && r.audit.ok,
                r.proofChecked && r.check.ok && r.disk.checked,
                &r.cec.counterexample);
  }

  // ---- mul_single: one client, checkMiter at a time ----------------------

  void singleRound() {
    const std::size_t from = trace_.size();
    double wall = 0.0;
    double chainSeconds = 0.0;
    RoundValues v;
    for (std::size_t j = 0; j < workload_.jobs.size(); ++j) {
      const JobSpec& job = workload_.jobs[j];
      const cec::EngineConfig config = engineConfig(job, proofPath("mul", j));
      Stopwatch sw;
      const cec::CertifyReport report =
          cec::checkMiter(pairs_[job.pair].miter, config);
      const double seconds = sw.seconds();
      ++attempted_;
      gateReport(job, report);
      wall += seconds;
      latencies_.push_back(seconds);
      v["proof_bytes"] += static_cast<double>(report.disk.write.bytes);
      v["proof_resolutions"] +=
          static_cast<double>(report.trim.resolutionsAfter);
      if (args_.trace) {
        chainSeconds += tracedJob(j, report, v);
      }
      removeProofs();
    }
    v["wall_s"] = wall;
    if (args_.trace) {
      layerTimes(from, v);
      v["trace.overhead_share"] = (chainSeconds - wall) / wall;
    }
    rounds_.push_back(std::move(v));
  }

  // ---- batch_*: one submitting thread through serve::BatchService --------

  void batchRound() {
    std::vector<serve::JobSpec> specs;
    specs.reserve(workload_.jobs.size());
    for (std::size_t j = 0; j < workload_.jobs.size(); ++j) {
      serve::JobOptions options;
      options.engine = engineConfig(workload_.jobs[j], proofPath("job", j));
      const std::size_t pair = workload_.jobs[j].pair;
      specs.push_back(serve::makeMiterJob(workload_.pairs[pair].name,
                                          pairs_[pair].miter, options));
    }
    serve::BatchService service(serviceOptions());
    Stopwatch sw;
    for (serve::JobSpec& spec : specs) (void)service.submit(std::move(spec));
    const std::vector<serve::JobRecord> records = service.drain();
    const double wall = sw.seconds();
    const serve::ServiceMetrics metrics = service.metrics();
    removeProofs();

    RoundValues v;
    v["wall_s"] = wall;
    std::vector<double> queueWaits;
    double busy = 0.0;
    double spliced = 0.0;
    for (std::size_t j = 0; j < records.size(); ++j) {
      const serve::JobRecord& r = records[j];
      const JobSpec& job = workload_.jobs[j];
      const PairFiles& f = workload_.pairs[job.pair];
      ++attempted_;
      latencies_.push_back(r.queuedSeconds + r.runSeconds);
      queueWaits.push_back(r.queuedSeconds);
      busy += r.runSeconds;
      spliced += static_cast<double>(r.stats.lemmaCacheSpliced);
      v["proof_bytes"] += static_cast<double>(r.proofBytes);
      v["proof_resolutions"] += static_cast<double>(r.proofResolutions);
      if (r.state != serve::JobState::kDone) {
        fail(f.name, std::string("job state ") + serve::toString(r.state) +
                         " " + r.error);
      } else {
        // The counterexample is not part of a JobRecord; inequivalent jobs
        // are replayed after the measured rounds (replayCounterexamples).
        if (gate(job, r.verdict, r.auditRan && r.auditOk,
                 r.proofChecked && r.proofBytes > 0, nullptr) &&
            r.verdict == cec::Verdict::kInequivalent) {
          cexJobs_.push_back(j);
        }
      }
    }
    if (args_.trace) {
      v["serve.queue_wait_p50_s"] = median(queueWaits);
      v["serve.busy_share"] =
          busy / (wall * static_cast<double>(service.numWorkers()));
      v["cache.lookups"] = static_cast<double>(metrics.cache.lookups);
      v["cache.hit_rate"] =
          metrics.cache.lookups == 0
              ? 0.0
              : static_cast<double>(metrics.cache.hits) /
                    static_cast<double>(metrics.cache.lookups);
      v["cache.spliced"] = spliced;
      v["cache.resident_bytes"] = static_cast<double>(metrics.cache.bytes);
      replayRound(v);
    }
    rounds_.push_back(std::move(v));
  }

  /// Traced batch round, second half: every job once, on one thread and
  /// without the lemma cache, through checkMiter and the decomposed chain.
  void replayRound(RoundValues& v) {
    const std::size_t from = trace_.size();
    double refSeconds = 0.0;
    double chainSeconds = 0.0;
    for (std::size_t j = 0; j < workload_.jobs.size(); ++j) {
      const JobSpec& job = workload_.jobs[j];
      Stopwatch sw;
      const cec::CertifyReport report = cec::checkMiter(
          pairs_[job.pair].miter, engineConfig(job, proofPath("ref", 0)));
      refSeconds += sw.seconds();
      ++attempted_;
      gateReport(job, report);
      chainSeconds += tracedJob(j, report, v);
      removeProofs();
    }
    layerTimes(from, v);
    v["trace.overhead_share"] = (chainSeconds - refSeconds) / refSeconds;
  }

  // ---- traced chain -----------------------------------------------------

  /// Runs job `j` through the decomposed chain, checks it reproduces
  /// `ref` exactly, and accumulates its counts. Returns the chain's wall
  /// time over the steps checkMiter performs.
  double tracedJob(std::size_t j, const cec::CertifyReport& ref,
                   RoundValues& v) {
    const JobSpec& job = workload_.jobs[j];
    const PairFiles& f = workload_.pairs[job.pair];
    const cec::EngineConfig config = engineConfig(job, proofPath("chain", 0));
    const std::uint64_t id = ++traceJobs_;
    ChainResult c = runChain(pairs_[job.pair].miter, config, trace_, id);
    ++attempted_;
    if (gate(job, c.cec.verdict, c.audit.ok(), c.proofChecked,
             &c.cec.counterexample)) {
      // The traced numbers describe checkMiter only if the chain is
      // checkMiter, step for step.
      if (c.cec.verdict != ref.cec.verdict ||
          c.trimmed.stats.resolutionsAfter != ref.trim.resolutionsAfter ||
          c.write.bytes != ref.disk.write.bytes ||
          c.cec.stats.conflicts != ref.cec.stats.conflicts ||
          c.cec.stats.propagations != ref.cec.stats.propagations ||
          c.audit.matchedClauses != ref.audit.stats.matchedClauses) {
        fail(f.name, "decomposed chain differs from checkMiter");
      }
    }

    // Layer rates measured beside the chain, outside its wall time.
    if (c.cec.verdict == cec::Verdict::kEquivalent) {
      if (config.check.numThreads != 1) {
        cp::proof::CheckOptions options;
        options.axiomValidator =
            cec::miterAxiomValidator(pairs_[job.pair].miter);
        Trace::Scope s(&trace_, "proof.check_1t", id);
        if (!cp::proof::checkProof(c.trimmed.log, options).ok) {
          fail(f.name, "proof rejected by the 1-thread check");
        }
      }
      cp::proofio::FooterSections sections;
      sections.varMap = cp::cnf::VarMap::identity(
                            pairs_[job.pair].miter.numNodes())
                            .varOf;
      cp::proofio::WriteStats rewrite;
      {
        Trace::Scope s(&trace_, "proofio.write", id);
        rewrite = cp::proofio::writeProofFile(c.rawLog, proofPath("rewrite", 0),
                                              {}, &sections);
      }
      if (rewrite.bytes != c.write.bytes) {
        fail(f.name, "re-serialized proof differs from the streamed one");
      }
      v["proof.raw_resolutions"] +=
          static_cast<double>(c.trimmed.stats.resolutionsBefore);
      v["proofio.checked_bytes"] += static_cast<double>(c.write.bytes);
      v["proofio.checked_resolutions"] +=
          static_cast<double>(c.write.resolutions);
    }
    const cec::CecStats& st = c.cec.stats;
    const bool mono = job.engine == EngineKind::kMonolithic;
    v["sat.conflicts"] += static_cast<double>(st.conflicts);
    v["sat.propagations"] += static_cast<double>(st.propagations);
    v[mono ? "mono_props" : "sweep_props"] +=
        static_cast<double>(st.propagations);
    v["cec.sat_calls"] += static_cast<double>(st.satCalls);
    v["cec.sat_merges"] += static_cast<double>(st.satMerges);
    v["cec.skipped_pairs"] += static_cast<double>(st.skippedCandidates);
    v["cec.cex_refinements"] += static_cast<double>(st.counterexamples);
    v["cec.structural_steps"] += static_cast<double>(st.proofStructuralSteps);
    v["cnf.audit_matched_clauses"] +=
        static_cast<double>(c.audit.matchedClauses);
    v["proof.resolutions"] +=
        static_cast<double>(c.trimmed.stats.resolutionsAfter);
    v["proofio.cpf_bytes"] += static_cast<double>(c.write.bytes);
    v["proofio.live_clauses_peak"] =
        std::max(v["proofio.live_clauses_peak"],
                 static_cast<double>(c.stream.liveClausesPeak));
    return c.seconds;
  }

  /// Turns the spans of one traced round into per-layer times and rates.
  void layerTimes(std::size_t from, RoundValues& v) {
    const std::size_t to = trace_.size();
    auto t = [&](const char* name) { return trace_.total(name, from, to); };
    v["cnf.encode_s"] = t("cnf.encode");
    v["cnf.audit_s"] = t("cnf.audit");
    v["cnf.audit_clauses_per_s"] =
        v["cnf.audit_matched_clauses"] / v["cnf.audit_s"];
    v["cec.sweep_s"] = t("cec.sweep");
    v["cec.mono_s"] = t("cec.mono");
    // The SAT rate is taken over the monolithic engine (one SAT call) where
    // it ran, else over the sweep engine's span.
    v["sat.props_per_s"] = v["cec.mono_s"] > 0.0
                               ? v["mono_props"] / v["cec.mono_s"]
                               : v["sweep_props"] / v["cec.sweep_s"];
    v["cec.merge_yield"] = v["cec.sat_merges"] / v["cec.sat_calls"];
    v["proof.trim_s"] = t("proof.trim");
    v["proof.trim_kept_share"] =
        v["proof.resolutions"] / v["proof.raw_resolutions"];
    v["proof.check_s"] = t("proof.check");
    v["proof.check_res_per_s"] = v["proof.resolutions"] / v["proof.check_s"];
    const double check1t = isBatch_ ? t("proof.check") : t("proof.check_1t");
    v["proof.check_res_per_s_1t"] = v["proof.resolutions"] / check1t;
    v["proofio.write_mb_per_s"] =
        v["proofio.checked_bytes"] / 1e6 / t("proofio.write");
    v["proofio.stream_check_s"] = t("proofio.stream_check");
    v["proofio.stream_check_mb_per_s"] =
        v["proofio.checked_bytes"] / 1e6 / v["proofio.stream_check_s"];
    v["proofio.bytes_per_resolution"] =
        v["proofio.checked_bytes"] / v["proofio.checked_resolutions"];
  }

  /// Batch records carry no counterexample: each inequivalent job is
  /// decided again by checkMiter alone (outside the measured rounds) and its
  /// counterexample replayed on the two parsed circuits.
  void replayCounterexamples() {
    std::sort(cexJobs_.begin(), cexJobs_.end());
    cexJobs_.erase(std::unique(cexJobs_.begin(), cexJobs_.end()),
                   cexJobs_.end());
    for (const std::size_t j : cexJobs_) {
      const JobSpec& job = workload_.jobs[j];
      cec::EngineConfig config = engineConfig(job, "");
      const cec::CertifyReport r =
          cec::checkMiter(pairs_[job.pair].miter, config);
      gate(job, r.cec.verdict, true, true, &r.cec.counterexample);
    }
  }

  // ---- output -----------------------------------------------------------

  void printFingerprint() const {
    std::printf("fingerprint {\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, "
                "\"build_type\": %s, \"optimized\": %s}\n",
                nproc_, jsonString(cpuModel()).c_str(),
                jsonString(std::string("g++ ") + __VERSION__).c_str(),
                jsonString(CECBENCH_BUILD_TYPE).c_str(),
                optimizedBuild() ? "true" : "false");
    if (!optimizedBuild()) {
      std::printf("WARNING: non-optimised build; timings are not "
                  "comparable\n");
    }
  }

  double roundMedian(const std::string& key) const {
    std::vector<double> values;
    for (const RoundValues& r : rounds_) {
      const auto it = r.find(key);
      values.push_back(it == r.end() ? 0.0 : it->second);
    }
    return median(values);
  }

  bool correct() const { return failed_ == 0; }

  void report() {
    const double jobs = static_cast<double>(workload_.jobs.size());
    std::printf("workload %s seed %llu: %zu rounds of %zu jobs, %zu latency "
                "samples, failed_share %.6g\n",
                workload_.name.c_str(),
                static_cast<unsigned long long>(args_.seed), rounds_.size(),
                workload_.jobs.size(), latencies_.size(),
                static_cast<double>(failed_) /
                    static_cast<double>(std::max<std::uint64_t>(1, attempted_)));
    Metrics m;
    if (!args_.trace) {
      std::vector<double> rates;
      for (const RoundValues& r : rounds_) rates.push_back(jobs / r.at("wall_s"));
      m.add("setup_s", setupSeconds_, "s");
      m.add("wall_s", roundMedian("wall_s"), "s");
      m.add("jobs_per_s", median(rates), "1/s");
      m.add("job_latency_p50_s", quantile(latencies_, 0.5), "s");
      m.add("job_latency_p90_s", quantile(latencies_, 0.9), "s");
      m.add("proof_bytes", roundMedian("proof_bytes"), "bytes");
      m.add("proof_resolutions", roundMedian("proof_resolutions"), "count");
      m.add("peak_rss_mb", peakRssMb(), "MB");
    } else {
      const std::string path = args_.work + "/trace-" + workload_.name + "-" +
                               std::to_string(args_.seed) + ".json";
      if (!trace_.writeChromeTrace(path)) {
        std::fprintf(stderr, "could not write %s\n", path.c_str());
        ++failed_;
      }
      m.add("aig.parse_s", parseSeconds_, "s");
      m.add("aig.miter_s", miterSeconds_, "s");
      static const std::vector<std::pair<const char*, const char*>> layers = {
          {"cnf.encode_s", "s"},
          {"cnf.audit_s", "s"},
          {"cnf.audit_clauses_per_s", "1/s"},
          {"cnf.audit_matched_clauses", "count"},
          {"sat.conflicts", "count"},
          {"sat.propagations", "count"},
          {"sat.props_per_s", "1/s"},
          {"cec.sweep_s", "s"},
          {"cec.mono_s", "s"},
          {"cec.sat_calls", "count"},
          {"cec.merge_yield", "ratio"},
          {"cec.skipped_pairs", "count"},
          {"cec.cex_refinements", "count"},
          {"cec.structural_steps", "count"},
          {"cache.lookups", "count"},
          {"cache.hit_rate", "ratio"},
          {"cache.spliced", "count"},
          {"cache.resident_bytes", "bytes"},
          {"proof.trim_s", "s"},
          {"proof.trim_kept_share", "ratio"},
          {"proof.check_s", "s"},
          {"proof.check_res_per_s", "1/s"},
          {"proof.check_res_per_s_1t", "1/s"},
          {"proof.resolutions", "count"},
          {"proofio.write_mb_per_s", "MB/s"},
          {"proofio.stream_check_s", "s"},
          {"proofio.stream_check_mb_per_s", "MB/s"},
          {"proofio.live_clauses_peak", "count"},
          {"proofio.bytes_per_resolution", "bytes"},
          {"proofio.cpf_bytes", "bytes"},
          {"serve.queue_wait_p50_s", "s"},
          {"serve.busy_share", "ratio"},
          {"trace.overhead_share", "ratio"},
      };
      for (const auto& [name, unit] : layers) {
        m.add(name, roundMedian(name), unit);
      }
    }
    std::fflush(stdout);
    m.print(correct(), attempted_, failed_);
  }

  Args args_;
  Workload workload_;
  unsigned nproc_;
  bool isBatch_;
  std::string proofDir_;
  std::vector<LoadedPair> pairs_;
  Trace trace_;
  std::uint64_t traceJobs_ = 0;
  double setupSeconds_ = 0.0;
  double parseSeconds_ = 0.0;
  double miterSeconds_ = 0.0;
  std::vector<RoundValues> rounds_;
  std::vector<double> latencies_;
  std::vector<std::size_t> cexJobs_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace
}  // namespace cecbench

int main(int argc, char** argv) {
  try {
    const cecbench::Args args = cecbench::parseArgs(argc, argv);
    cp::Stopwatch generating;
    cecbench::Workload workload = cecbench::generateWorkload(
        args.workload, args.seed,
        args.work + "/inputs-" + args.workload + "-" +
            std::to_string(args.seed));
    std::printf("inputs generated in %.3f s\n", generating.seconds());
    cecbench::Bench bench(args, std::move(workload));
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cecbench: %s\n", e.what());
    return 2;
  }
}

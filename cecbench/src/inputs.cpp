#include "cecbench/src/inputs.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "src/aig/aiger.h"
#include "src/base/rng.h"
#include "src/gen/arith.h"
#include "src/gen/prefix_adders.h"
#include "src/gen/random_aig.h"
#include "src/rewrite/restructure.h"

namespace cecbench {

using cp::Rng;
using cp::aig::Aig;
using cp::aig::Edge;
using cp::cec::Verdict;

namespace {

/// Bit-parallel simulation, 64 input patterns per word. Independent of the
/// library's sim module so that expected verdicts never rest on code the
/// engines use.
class WordSimulator {
 public:
  explicit WordSimulator(const Aig& graph) : graph_(graph) {}

  /// Output words for one word per primary input.
  const std::vector<std::uint64_t>& run(
      const std::vector<std::uint64_t>& inputWords) {
    values_.assign(graph_.numNodes(), 0);
    for (std::uint32_t i = 0; i < graph_.numInputs(); ++i) {
      values_[graph_.inputNode(i)] = inputWords[i];
    }
    for (std::uint32_t n = 1; n < graph_.numNodes(); ++n) {
      if (graph_.isAnd(n)) {
        values_[n] = edge(graph_.fanin0(n)) & edge(graph_.fanin1(n));
      }
    }
    outputs_.clear();
    for (const Edge e : graph_.outputs()) outputs_.push_back(edge(e));
    return outputs_;
  }

 private:
  std::uint64_t edge(Edge e) const {
    return e.complemented() ? ~values_[e.node()] : values_[e.node()];
  }

  const Aig& graph_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> outputs_;
};

/// Searches for an input pattern on which the two circuits' outputs differ:
/// every pattern when `exhaustive`, else `randomWords` x 64 seeded random
/// patterns. Returns the first witness found.
std::optional<std::vector<bool>> findDifference(const Aig& left,
                                                const Aig& right,
                                                bool exhaustive,
                                                std::uint32_t randomWords,
                                                Rng& rng) {
  const std::uint32_t n = left.numInputs();
  if (exhaustive && n > 26) {
    throw std::logic_error("exhaustive simulation beyond 26 inputs");
  }
  static constexpr std::uint64_t kLow[6] = {
      0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
      0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
  const std::uint64_t words =
      exhaustive ? (n > 6 ? std::uint64_t{1} << (n - 6) : 1) : randomWords;
  const std::uint64_t validMask =
      exhaustive && n < 6 ? (std::uint64_t{1} << (1u << n)) - 1 : ~0ULL;

  WordSimulator simLeft(left);
  WordSimulator simRight(right);
  std::vector<std::uint64_t> in(n);
  for (std::uint64_t w = 0; w < words; ++w) {
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!exhaustive) {
        in[i] = rng.next64();
      } else if (i < 6) {
        in[i] = kLow[i];
      } else {
        in[i] = ((w >> (i - 6)) & 1) != 0 ? ~0ULL : 0;
      }
    }
    const std::vector<std::uint64_t>& a = simLeft.run(in);
    const std::vector<std::uint64_t>& b = simRight.run(in);
    for (std::size_t o = 0; o < a.size(); ++o) {
      const std::uint64_t diff = (a[o] ^ b[o]) & validMask;
      if (diff == 0) continue;
      const int bit = __builtin_ctzll(diff);
      std::vector<bool> witness(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        witness[i] = ((in[i] >> bit) & 1) != 0;
      }
      return witness;
    }
  }
  return std::nullopt;
}

/// Rebuilds `graph` with primary input j taken from old input perm[j] and,
/// when faultNode is an AND node, that node's first fanin complemented: a
/// single-gate fault.
Aig rebuild(const Aig& graph, const std::vector<std::uint32_t>& perm,
            std::uint32_t faultNode) {
  Aig out;
  std::vector<Edge> image(graph.numNodes());
  image[0] = cp::aig::kFalse;
  for (std::uint32_t j = 0; j < graph.numInputs(); ++j) {
    image[graph.inputNode(perm[j])] = out.addInput();
  }
  auto map = [&](Edge e) { return image[e.node()] ^ e.complemented(); };
  for (std::uint32_t n = 1; n < graph.numNodes(); ++n) {
    if (!graph.isAnd(n)) continue;
    const Edge a = map(graph.fanin0(n));
    image[n] = out.addAnd(n == faultNode ? !a : a, map(graph.fanin1(n)));
  }
  for (const Edge e : graph.outputs()) out.addOutput(map(e));
  return out;
}

std::vector<std::uint32_t> identityPerm(std::uint32_t n) {
  std::vector<std::uint32_t> perm(n);
  for (std::uint32_t i = 0; i < n; ++i) perm[i] = i;
  return perm;
}

template <class T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

/// A single-gate fault in `graph` that random simulation shows observable
/// against `reference`, with the witness pattern; nullopt when none of the
/// sampled gates yields one (near-constant outputs hide most faults).
std::optional<std::pair<Aig, std::vector<bool>>> observableGateFault(
    const Aig& graph, const Aig& reference, Rng& rng) {
  std::vector<std::uint32_t> gates;
  for (const std::uint32_t n : graph.coneOf(graph.outputs())) {
    if (graph.isAnd(n)) gates.push_back(n);
  }
  for (int attempt = 0; attempt < 64 && !gates.empty(); ++attempt) {
    const std::uint32_t node =
        gates[static_cast<std::size_t>(rng.below(gates.size()))];
    Aig faulty = rebuild(graph, identityPerm(graph.numInputs()), node);
    if (auto witness = findDifference(reference, faulty, false, 64, rng)) {
      return std::make_pair(std::move(faulty), std::move(*witness));
    }
  }
  return std::nullopt;
}

class Writer {
 public:
  Writer(const std::string& dir, Workload& workload)
      : dir_(dir), workload_(workload) {
    std::filesystem::create_directories(dir);
  }

  /// Confirms `expected` with the benchmark's own simulation, writes the
  /// pair as binary AIGER files and returns its index. An inequivalent pair
  /// needs a witness: the given one, replayed by evaluation, else one found
  /// by simulation (exhaustive up to 22 inputs). An equivalent pair is
  /// simulated exhaustively up to 16 inputs, else on random patterns.
  std::size_t add(const std::string& name, const Aig& left, const Aig& right,
                  Verdict expected, Rng& rng,
                  const std::vector<bool>* witness = nullptr) {
    const bool inequivalent = expected == Verdict::kInequivalent;
    const bool exhaustive = left.numInputs() <= (inequivalent ? 22 : 16);
    const bool differ =
        witness != nullptr
            ? outputsDiffer(left, right, *witness)
            : findDifference(left, right, exhaustive, 64, rng).has_value();
    // A constructed-equivalent pair that simulation separates, or an
    // injected fault that simulation cannot observe, means the generator
    // (not an engine) is wrong: refuse the workload.
    if (differ != inequivalent) {
      throw std::runtime_error("generated pair " + name +
                               " contradicts its constructed verdict");
    }
    PairFiles files;
    files.name = name;
    files.leftPath = dir_ + "/" + name + ".L.aig";
    files.rightPath = dir_ + "/" + name + ".R.aig";
    files.expected = expected;
    cp::aig::writeAigerFile(left, files.leftPath);
    cp::aig::writeAigerFile(right, files.rightPath);
    workload_.pairs.push_back(std::move(files));
    return workload_.pairs.size() - 1;
  }

 private:
  std::string dir_;
  Workload& workload_;
};

// mul_single: the array-vs-Wallace multipliers of width 6 and 7, each
// certified by the sweep and the monolithic engine. The circuits are the
// same for every seed and the seed only orders the four jobs: permuting the
// primary inputs per seed was tried and moved the round's wall time by
// 12-16 s between seeds, more than any bound the benchmark could keep.
void mulSingle(std::uint64_t seed, Writer& writer, Workload& w) {
  Rng rng(seed);
  for (const std::uint32_t width : {6u, 7u}) {
    const std::size_t pair = writer.add(
        "mul" + std::to_string(width), cp::gen::arrayMultiplier(width),
        cp::gen::wallaceMultiplier(width), Verdict::kEquivalent, rng);
    w.jobs.push_back({pair, EngineKind::kSweep});
    w.jobs.push_back({pair, EngineKind::kMonolithic});
  }
  shuffle(w.jobs, rng);
}

struct Template {
  const char* name;
  std::function<Aig()> left;
  std::function<Aig()> right;
};

std::vector<Template> sharedTemplates() {
  using namespace cp::gen;
  std::vector<Template> t;
  t.push_back({"add16_rca_cla", [] { return rippleCarryAdder(16); },
               [] { return carryLookaheadAdder(16, 4); }});
  t.push_back({"add16_csel_ks", [] { return carrySelectAdder(16, 4); },
               [] { return koggeStoneAdder(16); }});
  t.push_back({"add16_cskip_sk", [] { return carrySkipAdder(16, 4); },
               [] { return sklanskyAdder(16); }});
  t.push_back({"add24_rca_csel", [] { return rippleCarryAdder(24); },
               [] { return carrySelectAdder(24, 4); }});
  t.push_back({"add24_cla_sk", [] { return carryLookaheadAdder(24, 4); },
               [] { return sklanskyAdder(24); }});
  t.push_back({"add24_ks_cskip", [] { return koggeStoneAdder(24); },
               [] { return carrySkipAdder(24, 4); }});
  t.push_back({"add32_rca_ks", [] { return rippleCarryAdder(32); },
               [] { return koggeStoneAdder(32); }});
  t.push_back({"add32_cla_cskip", [] { return carryLookaheadAdder(32, 4); },
               [] { return carrySkipAdder(32, 4); }});
  t.push_back({"add32_sk_csel", [] { return sklanskyAdder(32); },
               [] { return carrySelectAdder(32, 4); }});
  t.push_back({"cmp16_ripple_tree", [] { return rippleComparator(16); },
               [] { return treeComparator(16); }});
  t.push_back({"cmp32_ripple_tree", [] { return rippleComparator(32); },
               [] { return treeComparator(32); }});
  t.push_back({"shift8_lsb_msb", [] { return barrelShifterLsbFirst(8); },
               [] { return barrelShifterMsbFirst(8); }});
  t.push_back({"shift16_lsb_msb", [] { return barrelShifterLsbFirst(16); },
               [] { return barrelShifterMsbFirst(16); }});
  t.push_back({"alu4_a_b", [] { return aluVariantA(4); },
               [] { return aluVariantB(4); }});
  t.push_back({"alu8_a_b", [] { return aluVariantA(8); },
               [] { return aluVariantB(8); }});
  t.push_back({"mul4_array_wallace", [] { return arrayMultiplier(4); },
               [] { return wallaceMultiplier(4); }});
  t.push_back({"mul5_array_wallace", [] { return arrayMultiplier(5); },
               [] { return wallaceMultiplier(5); }});
  t.push_back({"mul4_csa_array", [] { return carrySaveMultiplier(4); },
               [] { return arrayMultiplier(4); }});
  return t;
}

// batch_shared: the templates in twelve passes, each pass one copy of every
// template in a seeded order, so a circuit recurs one pass after its last
// use. Per template, ten copies are equivalent (the recurring sub-circuits
// the lemma cache can reuse) and two are inequivalent, by a complemented
// output or an observable single-gate fault. The seed picks the faulty
// copies, the faults and the order within each pass.
void batchShared(std::uint64_t seed, Writer& writer, Workload& w) {
  Rng rng(seed);
  constexpr std::uint32_t kPasses = 12;
  constexpr std::uint32_t kFaultyPerTemplate = 2;
  const std::vector<Template> templates = sharedTemplates();
  std::vector<Aig> lefts, rights;
  std::vector<std::vector<char>> faulty;
  for (const Template& t : templates) {
    lefts.push_back(t.left());
    rights.push_back(t.right());
    std::vector<char> f(kPasses, 0);
    std::fill(f.begin(), f.begin() + kFaultyPerTemplate, 1);
    shuffle(f, rng);
    faulty.push_back(std::move(f));
  }
  std::vector<std::size_t> order(templates.size());
  for (std::size_t t = 0; t < order.size(); ++t) order[t] = t;
  for (std::uint32_t pass = 0; pass < kPasses; ++pass) {
    shuffle(order, rng);
    for (const std::size_t t : order) {
      const std::string name =
          std::string(templates[t].name) + "_" + std::to_string(pass);
      if (faulty[t][pass] == 0) {
        w.jobs.push_back({writer.add(name, lefts[t], rights[t],
                                     Verdict::kEquivalent, rng),
                          EngineKind::kSweep});
        continue;
      }
      const bool breakLeft = rng.flip();
      const Aig& other = breakLeft ? rights[t] : lefts[t];
      Aig broken = breakLeft ? lefts[t] : rights[t];
      std::vector<bool> witness;
      auto fault = rng.flip() ? observableGateFault(broken, other, rng)
                              : std::nullopt;
      if (fault) {
        std::tie(broken, witness) = std::move(*fault);
      } else {
        // A complemented output differs on every pattern.
        const std::size_t o = rng.below(broken.numOutputs());
        broken.setOutput(o, !broken.output(o));
        witness.assign(broken.numInputs(), false);
      }
      w.jobs.push_back({writer.add(name, other, broken,
                                   Verdict::kInequivalent, rng, &witness),
                        EngineKind::kSweep});
    }
  }
}

// batch_unique: seeded random AIGs paired with a restructured copy of
// themselves, so no circuit recurs between jobs; a quarter of the copies
// carry a single-gate fault that exhaustive simulation shows observable.
void batchUnique(std::uint64_t seed, Writer& writer, Workload& w) {
  Rng rng(seed);
  constexpr std::uint32_t kJobs = 240;
  std::vector<char> faulty(kJobs, 0);
  std::fill(faulty.begin(), faulty.begin() + kJobs / 4, 1);
  shuffle(faulty, rng);
  cp::gen::RandomAigOptions options;
  options.numInputs = 20;
  options.numAnds = 1000;
  options.numOutputs = 8;
  for (std::uint32_t j = 0; j < kJobs; ++j) {
    Aig base = cp::gen::randomAig(options, rng);
    Aig copy = cp::rewrite::restructure(base, rng);
    Verdict expected = Verdict::kEquivalent;
    if (faulty[j]) {
      // Redraw the circuit until a fault shows. The random witness is then
      // dropped: add() re-establishes observability by exhaustive
      // simulation over all 2^20 patterns.
      auto fault = observableGateFault(copy, base, rng);
      for (int redraw = 0; !fault; ++redraw) {
        if (redraw == 64) {
          throw std::runtime_error("no observable single-gate fault found");
        }
        base = cp::gen::randomAig(options, rng);
        copy = cp::rewrite::restructure(base, rng);
        fault = observableGateFault(copy, base, rng);
      }
      copy = std::move(fault->first);
      expected = Verdict::kInequivalent;
    }
    w.jobs.push_back(
        {writer.add("rand" + std::to_string(j), base, copy, expected, rng),
         EngineKind::kSweep});
  }
}

}  // namespace

Workload generateWorkload(const std::string& name, std::uint64_t seed,
                          const std::string& dir) {
  Workload w;
  w.name = name;
  Writer writer(dir, w);
  if (name == "mul_single") {
    mulSingle(seed, writer, w);
  } else if (name == "batch_shared") {
    batchShared(seed, writer, w);
  } else if (name == "batch_unique") {
    batchUnique(seed, writer, w);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

bool outputsDiffer(const Aig& left, const Aig& right,
                   const std::vector<bool>& inputs) {
  return left.evaluate(inputs) != right.evaluate(inputs);
}

}  // namespace cecbench

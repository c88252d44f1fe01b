#include "suite.hpp"

#include <sstream>
#include <unordered_map>

#include "aig/aiger_io.hpp"
#include "bench_circuits/generators.hpp"

namespace paperbench {

namespace bc = itpseq::bench;
using itpseq::aig::Aig;

std::uint32_t reseed(std::uint32_t base, std::uint64_t seed) {
  // splitmix64 finaliser of the workload seed, folded to 32 bits; the XOR
  // keeps seed 0 the identity.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return base ^ static_cast<std::uint32_t>(z ^ (z >> 32));
}

namespace {

struct IndustrialCfg {
  unsigned width, stages, variant, param;
  std::uint32_t seed;
};

// Mirrors the seeded rows of bench::make_suite() (src/bench_circuits/
// suite.cpp); check_seed0_matches_make_suite() keeps the two in step.
std::unordered_map<std::string, Aig> seeded_models(std::uint64_t seed) {
  std::unordered_map<std::string, Aig> out;
  struct Feistel {
    unsigned w, m;
    std::uint32_t seed;
  };
  for (const Feistel& f : {Feistel{8, 6, 11}, Feistel{12, 8, 12},
                           Feistel{16, 10, 13}, Feistel{16, 12, 14},
                           Feistel{12, 20, 15}, Feistel{16, 24, 16}})
    out.emplace("feistel" + std::to_string(f.w) + "m" + std::to_string(f.m),
                bc::feistel_mixer(f.w, f.m, reseed(f.seed, seed)));
  struct Lock {
    unsigned len, bits;
  };
  for (const Lock& l : {Lock{4, 2}, Lock{8, 2}, Lock{12, 3}, Lock{16, 3},
                        Lock{24, 4}}) {
    std::uint32_t s = reseed(0x90 + l.len, seed);
    std::string name = "lock" + std::to_string(l.len);
    out.emplace(name + "open", bc::combination_lock(l.len, l.bits, s));
    out.emplace(name + "safe",
                bc::combination_lock(l.len, l.bits, s, /*unopenable=*/true));
  }
  const IndustrialCfg cfgs[] = {
      {24, 6, 0, 8, 101},  {24, 6, 1, 6, 102},   {32, 8, 0, 10, 201},
      {32, 8, 1, 8, 202},  {40, 10, 0, 12, 301}, {40, 10, 1, 10, 302},
      {48, 12, 0, 8, 401}, {48, 12, 1, 12, 402}, {56, 14, 0, 10, 501},
      {56, 14, 1, 9, 502}, {32, 5, 0, 16, 601},  {16, 20, 0, 6, 701},
      {24, 8, 1, 14, 801}, {40, 8, 0, 20, 901},  {28, 10, 1, 16, 111},
      {36, 12, 0, 24, 121},
  };
  for (std::size_t i = 0; i < std::size(cfgs); ++i) {
    const IndustrialCfg& c = cfgs[i];
    std::string name = std::string("industrial") +
                       static_cast<char>('A' + i / 2) + std::to_string(i % 2 + 1);
    out.emplace(name, bc::industrial(c.width, c.stages, c.variant, c.param,
                                     reseed(c.seed, seed)));
  }
  return out;
}

std::string aiger_text(const Aig& g) {
  std::ostringstream os;
  itpseq::aig::write_aiger_ascii(g, os);
  return os.str();
}

}  // namespace

std::vector<Instance> paper_suite(std::uint64_t seed) {
  std::vector<Instance> suite = bc::make_suite();
  std::unordered_map<std::string, Aig> seeded = seeded_models(seed);
  for (Instance& inst : suite) {
    auto it = seeded.find(inst.name);
    if (it != seeded.end()) inst.model = std::move(it->second);
  }
  return suite;
}

std::vector<Instance> large_suite(std::uint64_t seed) {
  // About 1,000 to 2,300 latches and 3.4k to 7.7k ANDs: the working set of
  // one unrolling no longer fits in cache.  Variant 1 FAILs at exactly
  // `param` and its cost barely moves with the seed, so it is re-seeded.
  // Variant 0 PASSes, but ITPSEQ's convergence bound on it swings between
  // 3 and more than 16 with the random logic, so re-seeding it would make
  // the workload measure the seed: the PASS designs keep their seeds.
  const IndustrialCfg cfgs[] = {
      {48, 22, 0, 4, 1001}, {48, 22, 1, 4, 1002}, {64, 20, 0, 4, 1003},
      {64, 20, 1, 4, 1004}, {80, 22, 0, 4, 1005}, {80, 22, 1, 4, 1006},
      {96, 24, 0, 4, 1007}, {96, 24, 1, 4, 1008},
  };
  std::vector<Instance> out;
  for (const IndustrialCfg& c : cfgs) {
    bool pass = c.variant == 0;
    Instance inst;
    inst.name = "large" + std::to_string(c.width) + "x" +
                std::to_string(c.stages) + (pass ? "pass" : "fail");
    inst.family = "industrial-large";
    inst.model = bc::industrial(c.width, c.stages, c.variant, c.param,
                                pass ? c.seed : reseed(c.seed, seed));
    inst.expected = pass ? bc::Expected::kPass : bc::Expected::kFail;
    inst.fail_depth = pass ? -1 : static_cast<int>(c.param);
    inst.industrial = true;
    out.push_back(std::move(inst));
  }
  return out;
}

std::string check_seed0_matches_make_suite() {
  std::unordered_map<std::string, Aig> seeded = seeded_models(0);
  std::size_t matched = 0;
  for (const Instance& inst : bc::make_suite()) {
    auto it = seeded.find(inst.name);
    if (it == seeded.end()) continue;
    if (aiger_text(it->second) != aiger_text(inst.model)) return inst.name;
    ++matched;
  }
  return matched == seeded.size() ? "" : "(seeded instance missing from suite)";
}

}  // namespace paperbench

// suite.hpp — seeded instance sets of the paper benchmark.
//
// The paper suite is bench::make_suite() with the seeded generator
// families (industrial, feistel_mixer, combination_lock) re-seeded from the
// workload seed; every other family is seed-free.  Seed 0 reproduces
// bench::make_suite() exactly.  The large set scales bench::industrial up
// to 1,000-2,300 latches.  Every instance's verdict holds by construction,
// so a verdict that disagrees with Instance::expected is an engine fault.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_circuits/suite.hpp"

namespace paperbench {

using itpseq::bench::Instance;

/// Seed of a seeded-family instance under workload seed `seed`.  The
/// identity at seed 0.
std::uint32_t reseed(std::uint32_t base, std::uint64_t seed);

/// The paper's 102-instance suite under workload seed `seed`.
std::vector<Instance> paper_suite(std::uint64_t seed);

/// Eight scaled-up industrial pipelines (four PASS, four FAIL).
std::vector<Instance> large_suite(std::uint64_t seed);

/// Compare the seed-0 regeneration of every seeded instance against
/// bench::make_suite(); returns the name of the first mismatch or "".
std::string check_seed0_matches_make_suite();

}  // namespace paperbench

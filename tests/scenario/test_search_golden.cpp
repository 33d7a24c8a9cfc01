// Golden pins for the search engines: the archives, counters and final
// hypervolume of three full-budget scenarios, recorded once and compared
// exactly. The other search tests are relative (thread counts, scalar vs
// memoized, with or without telemetry), so a change that reorders ties
// in a sort or shifts one PRNG draw would pass them; these would not.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario/campaign.hpp"
#include "scenario/registry.hpp"
#include "util/json.hpp"

namespace wsnex::scenario {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// 64-bit FNV-1a, continued from `hash`.
std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct SearchPin {
  const char* preset;
  OptimizerKind kind;
  std::uint64_t archives_fnv1a;  ///< pareto.csv then feasible.csv
  std::size_t evaluations;
  std::size_t front_size;
  std::uint64_t final_hypervolume_bits;  ///< last progress.jsonl record
};

class SearchGoldenTest : public ::testing::TestWithParam<SearchPin> {
 protected:
  fs::path root_ =
      fs::path(::testing::TempDir()) /
      (std::string("wsnex_search_golden_") + GetParam().preset);

  void TearDown() override { fs::remove_all(root_); }
};

TEST_P(SearchGoldenTest, FullBudgetRunMatchesPins) {
  const SearchPin& pin = GetParam();
  ScenarioSpec spec = preset(pin.preset);
  spec.optimizer.kind = pin.kind;
  CampaignOptions options;
  options.out_dir = root_.string();
  options.threads = 1;
  options.progress = true;
  ResultStore store(options.out_dir);
  store.initialize({spec}, false);
  const ScenarioStatus status =
      execute_scenario(spec, options, store, nullptr, nullptr);

  const std::uint64_t hash =
      fnv1a(read_file(store.feasible_csv_path(spec.name)),
            fnv1a(read_file(store.pareto_csv_path(spec.name))));
  EXPECT_EQ(hash, pin.archives_fnv1a) << std::hex << hash;
  EXPECT_EQ(status.evaluations, pin.evaluations);
  EXPECT_EQ(status.front_size, pin.front_size);

  std::ifstream progress(store.progress_jsonl_path(spec.name));
  std::string line, last;
  while (std::getline(progress, line)) last = line;
  ASSERT_FALSE(last.empty());
  const double hv = util::Json::parse(last).at("hypervolume").as_double();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(hv), pin.final_hypervolume_bits)
      << std::hex << std::bit_cast<std::uint64_t>(hv);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, SearchGoldenTest,
    ::testing::Values(
        SearchPin{"hospital_ward_6", OptimizerKind::kNsga2,
                  0x38bdecc8d2b91e93ULL, 3904, 187, 0x4078583b1a1f976cULL},
        SearchPin{"degraded_channel_6", OptimizerKind::kNsga2,
                  0x4ed6f003cc7825f3ULL, 3904, 197, 0x407861873b2450f5ULL},
        SearchPin{"relaxed_quality_mosa_6", OptimizerKind::kMosa,
                  0x378e27b4b0e1010eULL, 4001, 70, 0x4090a6373dae0b65ULL}),
    [](const ::testing::TestParamInfo<SearchPin>& info) {
      return std::string(info.param.preset);
    });

}  // namespace
}  // namespace wsnex::scenario

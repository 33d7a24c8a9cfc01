// util::failpoint semantics: the arming grammar (error/torn/crash/sleep/
// off and the #K one-shot selector), deterministic triggering, hit
// accounting, and the compiled-out build's no-op
// contract. Grammar tests skip on default builds, where evaluate() is an
// inline no-op; the no-op contract is asserted instead.
#include "util/failpoint.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <stdexcept>

namespace wsnex::util::failpoint {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
};

TEST_F(FailpointTest, UnarmedSiteReturnsNone) {
  const Action action = evaluate("test.unarmed");
  EXPECT_FALSE(action);
  EXPECT_EQ(action.kind, ActionKind::kNone);
}

TEST_F(FailpointTest, CompiledOutBuildArmsNothing) {
  if (compiled_in()) GTEST_SKIP() << "failpoints are compiled in";
  // configure() must warn, not throw — an armed WSNEX_FAILPOINTS against
  // a default build downgrades to a no-op, never a crash.
  EXPECT_NO_THROW(configure("test.off_build=error(EIO)"));
  EXPECT_FALSE(evaluate("test.off_build"));
  EXPECT_EQ(hits("test.off_build"), 0u);
}

TEST_F(FailpointTest, ErrorModeCarriesSymbolicErrno) {
  if (!compiled_in()) GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  configure("test.error=error(ENOSPC)");
  const Action action = evaluate("test.error");
  ASSERT_TRUE(action);
  EXPECT_EQ(action.kind, ActionKind::kError);
  EXPECT_EQ(action.error_errno, ENOSPC);
  // Armed sites keep firing on every evaluation by default.
  EXPECT_TRUE(evaluate("test.error"));
}

TEST_F(FailpointTest, ErrorModeAcceptsDecimalErrno) {
  if (!compiled_in()) GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  configure("test.error=error(28)");
  const Action action = evaluate("test.error");
  ASSERT_EQ(action.kind, ActionKind::kError);
  EXPECT_EQ(action.error_errno, 28);
}

TEST_F(FailpointTest, TornModeCarriesSurvivingByteCount) {
  if (!compiled_in()) GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  configure("test.torn=torn@128");
  const Action action = evaluate("test.torn");
  ASSERT_EQ(action.kind, ActionKind::kTorn);
  EXPECT_EQ(action.torn_bytes, 128u);
}

TEST_F(FailpointTest, OffDisarmsAPreviouslyArmedSite) {
  if (!compiled_in()) GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  configure("test.toggled=error(EIO)");
  ASSERT_TRUE(evaluate("test.toggled"));
  configure("test.toggled=off");
  EXPECT_FALSE(evaluate("test.toggled"));
}

TEST_F(FailpointTest, KthEvaluationSelectorFiresExactlyOnce) {
  if (!compiled_in()) GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  configure("test.kth=error(EIO)#3");
  EXPECT_FALSE(evaluate("test.kth"));
  EXPECT_FALSE(evaluate("test.kth"));
  EXPECT_TRUE(evaluate("test.kth"));
  EXPECT_FALSE(evaluate("test.kth"));
  EXPECT_FALSE(evaluate("test.kth"));
}

TEST_F(FailpointTest, MultiSiteSpecArmsEverySite) {
  if (!compiled_in()) GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  configure("test.a=error(ENOSPC);test.b=torn@7");
  EXPECT_EQ(evaluate("test.a").kind, ActionKind::kError);
  EXPECT_EQ(evaluate("test.b").kind, ActionKind::kTorn);
}

TEST_F(FailpointTest, HitsCountEvaluationsEvenWhenUnarmed) {
  if (!compiled_in()) GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  EXPECT_EQ(hits("test.counted"), 0u);
  evaluate("test.counted");
  evaluate("test.counted");
  EXPECT_EQ(hits("test.counted"), 2u);
}

TEST_F(FailpointTest, InvalidSpecsThrowNamingTheToken) {
  if (!compiled_in()) GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  EXPECT_THROW(configure("test.bad=warble"), std::invalid_argument);
  EXPECT_THROW(configure("test.bad=error(EBOGUS)"), std::invalid_argument);
  EXPECT_THROW(configure("test.bad=error(ENOSPC"), std::invalid_argument);
  EXPECT_THROW(configure("test.bad=torn@"), std::invalid_argument);
  EXPECT_THROW(configure("test.bad=error(EIO)#0"), std::invalid_argument);
  EXPECT_THROW(configure("no_equals_sign"), std::invalid_argument);
  EXPECT_THROW(configure("=error(EIO)"), std::invalid_argument);
  // A bad entry must not leave earlier entries half-armed silently — but
  // parsing is per-entry, so the earlier valid entry does arm. Verify the
  // documented behavior: the throw happens, the valid prefix is live.
  reset();
  EXPECT_THROW(configure("test.good=error(EIO);test.bad=warble"),
               std::invalid_argument);
  EXPECT_TRUE(evaluate("test.good"));
}

TEST_F(FailpointTest, CrashExitsWithTheSentinelCode) {
  if (!compiled_in()) GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  configure("test.crash=crash");
  EXPECT_EXIT(evaluate("test.crash"),
              ::testing::ExitedWithCode(kCrashExitCode), "");
}

TEST_F(FailpointTest, SleepModeStallsAndReturnsNone) {
  if (!compiled_in()) GTEST_SKIP() << "built without WSNEX_FAILPOINTS";
  configure("test.sleep=sleep(30)");
  const auto start = std::chrono::steady_clock::now();
  const Action action = evaluate("test.sleep");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(action);
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            25);
}

}  // namespace
}  // namespace wsnex::util::failpoint

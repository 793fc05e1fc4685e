#include "common/logging.h"

#include <gtest/gtest.h>

namespace dycuckoo {
namespace {

TEST(LoggingTest, DefaultLevelIsWarning) {
  // The suite may have mutated it; set and read back instead of assuming.
  SetLogLevel(LogLevel::kWarning);
  EXPECT_EQ(GetLogLevel(), LogLevel::kWarning);
}

TEST(LoggingTest, SetAndGetRoundTrip) {
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(LogLevel::kWarning);
}

TEST(LoggingTest, SuppressedMessagesDoNotCrash) {
  SetLogLevel(LogLevel::kError);
  DYCUCKOO_LOG(Debug) << "dropped " << 1;
  DYCUCKOO_LOG(Info) << "dropped " << 2;
  DYCUCKOO_LOG(Warning) << "dropped " << 3;
  SetLogLevel(LogLevel::kWarning);
}

TEST(LoggingTest, CheckPassesOnTrue) {
  DYCUCKOO_CHECK(1 + 1 == 2);  // must not abort
}

TEST(LoggingDeathTest, CheckAbortsOnFalse) {
  EXPECT_DEATH({ DYCUCKOO_CHECK(false); }, "check failed");
}

TEST(LoggingDeathTest, CheckMessageNamesExpression) {
  EXPECT_DEATH({ DYCUCKOO_CHECK(2 > 3); }, "2 > 3");
}

#if DYCUCKOO_DCHECK_IS_ON
TEST(LoggingDeathTest, DcheckActiveInDebugBuilds) {
  EXPECT_DEATH({ DYCUCKOO_DCHECK(false); }, "check failed");
}
#else
TEST(LoggingTest, DcheckCompiledOutInReleaseBuilds) {
  DYCUCKOO_DCHECK(false);  // must be a no-op
}
#endif

}  // namespace
}  // namespace dycuckoo

#include "common/status.h"

#include <gtest/gtest.h>

namespace dycuckoo {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, OkFactory) {
  EXPECT_TRUE(Status::OK().ok());
}

TEST(StatusTest, InvalidArgumentCarriesMessage) {
  Status st = Status::InvalidArgument("bad d");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad d");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad d");
}

TEST(StatusTest, AllCodesRoundTrip) {
  EXPECT_TRUE(Status::CapacityExceeded("x").IsCapacityExceeded());
  EXPECT_TRUE(Status::InsertionFailure("x").IsInsertionFailure());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::OutOfMemory("x").IsOutOfMemory());
  EXPECT_TRUE(Status::DeadlineExceeded("x").IsDeadlineExceeded());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::DataLoss("x").IsDataLoss());
}

TEST(StatusTest, EveryFactoryMatchesItsCodeExactly) {
  struct Case {
    Status status;
    StatusCode code;
  };
  const Case cases[] = {
      {Status::OK(), StatusCode::kOk},
      {Status::InvalidArgument("m"), StatusCode::kInvalidArgument},
      {Status::CapacityExceeded("m"), StatusCode::kCapacityExceeded},
      {Status::InsertionFailure("m"), StatusCode::kInsertionFailure},
      {Status::NotSupported("m"), StatusCode::kNotSupported},
      {Status::Internal("m"), StatusCode::kInternal},
      {Status::OutOfMemory("m"), StatusCode::kOutOfMemory},
      {Status::DeadlineExceeded("m"), StatusCode::kDeadlineExceeded},
      {Status::ResourceExhausted("m"), StatusCode::kResourceExhausted},
      {Status::Unavailable("m"), StatusCode::kUnavailable},
      {Status::DataLoss("m"), StatusCode::kDataLoss},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.status.code(), c.code);
    // Exactly one of the predicates fires for each non-OK code.
    int hits = c.status.IsInvalidArgument() + c.status.IsCapacityExceeded() +
               c.status.IsInsertionFailure() + c.status.IsNotSupported() +
               c.status.IsInternal() + c.status.IsOutOfMemory() +
               c.status.IsDeadlineExceeded() + c.status.IsResourceExhausted() +
               c.status.IsUnavailable() + c.status.IsDataLoss();
    EXPECT_EQ(hits, c.status.ok() ? 0 : 1) << c.status.ToString();
    if (!c.status.ok()) {
      EXPECT_EQ(c.status.message(), "m");
    }
  }
}

TEST(StatusTest, CodeNamesInToString) {
  EXPECT_NE(Status::CapacityExceeded("m").ToString().find("CapacityExceeded"),
            std::string::npos);
  EXPECT_NE(Status::InsertionFailure("m").ToString().find("InsertionFailure"),
            std::string::npos);
  EXPECT_NE(Status::NotSupported("m").ToString().find("NotSupported"),
            std::string::npos);
  EXPECT_NE(Status::OutOfMemory("m").ToString().find("OutOfMemory"),
            std::string::npos);
  EXPECT_NE(Status::DeadlineExceeded("m").ToString().find("DeadlineExceeded"),
            std::string::npos);
  EXPECT_NE(
      Status::ResourceExhausted("m").ToString().find("ResourceExhausted"),
      std::string::npos);
  EXPECT_NE(Status::Unavailable("m").ToString().find("Unavailable"),
            std::string::npos);
  EXPECT_NE(Status::DataLoss("m").ToString().find("DataLoss"),
            std::string::npos);
}

TEST(StatusTest, CopyAndMovePreserveCodeAndMessage) {
  Status st = Status::Unavailable("breaker open");
  Status copy = st;
  EXPECT_TRUE(copy.IsUnavailable());
  EXPECT_EQ(copy.message(), "breaker open");
  Status moved = std::move(st);
  EXPECT_TRUE(moved.IsUnavailable());
  EXPECT_EQ(moved.message(), "breaker open");
}

TEST(StatusTest, DataLossCopyAndMovePreserveCodeAndMessage) {
  Status st = Status::DataLoss("CRC mismatch at lsn 7");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_EQ(st.ToString(), "DataLoss: CRC mismatch at lsn 7");
  Status copy = st;
  EXPECT_TRUE(copy.IsDataLoss());
  EXPECT_EQ(copy.message(), "CRC mismatch at lsn 7");
  Status moved = std::move(st);
  EXPECT_TRUE(moved.IsDataLoss());
  EXPECT_EQ(moved.message(), "CRC mismatch at lsn 7");
  // DataLoss is distinct from the codes it could be confused with.
  EXPECT_FALSE(copy.IsInternal());
  EXPECT_FALSE(copy.IsInvalidArgument());
  EXPECT_FALSE(Status::DataLoss("a") == Status::Internal("a"));
}

TEST(StatusTest, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::Internal("a"), Status::Internal("b"));
  EXPECT_FALSE(Status::Internal("a") == Status::OK());
}

TEST(StatusTest, EmptyMessageOmitsColon) {
  EXPECT_EQ(Status::Internal("").ToString(), "Internal");
}

TEST(StatusTest, DetailsAreMachineReadableAndChainable) {
  Status st = Status::Unavailable("shard 3 quarantined")
                  .WithDetail("shard", "3")
                  .WithDetail("retry_after_ticks", "128")
                  .WithDetail("executed", "never");
  EXPECT_TRUE(st.IsUnavailable());
  ASSERT_NE(st.FindDetail("shard"), nullptr);
  EXPECT_EQ(*st.FindDetail("shard"), "3");
  ASSERT_NE(st.FindDetail("retry_after_ticks"), nullptr);
  EXPECT_EQ(*st.FindDetail("retry_after_ticks"), "128");
  EXPECT_EQ(st.FindDetail("absent"), nullptr);
  // Details ride along through copies and moves.
  Status copy = st;
  ASSERT_NE(copy.FindDetail("executed"), nullptr);
  EXPECT_EQ(*copy.FindDetail("executed"), "never");
  Status moved = std::move(st);
  ASSERT_NE(moved.FindDetail("shard"), nullptr);
  // ...and render in ToString for humans.
  EXPECT_NE(moved.ToString().find("shard=3"), std::string::npos)
      << moved.ToString();
}

TEST(StatusTest, RewrittenDetailShadowsOlderValue) {
  Status st = Status::Unavailable("x").WithDetail("executed", "never");
  Status refined = st.WithDetail("executed", "uncertain");
  // Newest write wins on lookup; the original status is untouched
  // (copy-on-write, so no shared mutation).
  EXPECT_EQ(*refined.FindDetail("executed"), "uncertain");
  EXPECT_EQ(*st.FindDetail("executed"), "never");
}

TEST(StatusTest, DetailsDoNotAffectEqualityOrPredicates) {
  Status plain = Status::DataLoss("wal");
  Status detailed = plain.WithDetail("segment", "wal-00002-of-00004.seg");
  EXPECT_EQ(plain, detailed);  // equality is code-only
  EXPECT_TRUE(detailed.IsDataLoss());
  EXPECT_EQ(detailed.message(), "wal");
  EXPECT_TRUE(Status::OK().FindDetail("anything") == nullptr);
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    DYCUCKOO_RETURN_NOT_OK(Status::InvalidArgument("inner"));
    return Status::OK();
  };
  Status st = fails();
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "inner");
}

// The serving layer's uniform rejection contract: every Unavailable a
// client can see — shard quarantine (ShardedTableServer::ShardUnavailable)
// and reshard write-window blocking (ReshardBlocked) — carries the SAME
// three machine-readable keys, so one client retry loop handles both.
// A reshard rejection adds `reshard_chunk` for observability; it must
// never replace the uniform keys.  tests/test_resharder.cc asserts the
// live server mints exactly these shapes; this test pins the vocabulary
// itself so a key rename breaks loudly at the Status level too.
TEST(StatusTest, UniformUnavailableRejectionContract) {
  // Quarantine-shaped rejection: op was in flight when the shard died.
  const Status quarantine = Status::Unavailable("shard 2 quarantined")
                                .WithDetail("shard", "2")
                                .WithDetail("retry_after_ticks", "4096")
                                .WithDetail("executed", "uncertain");
  // Reshard-shaped rejection: front-door refusal of a write to the one
  // migrating chunk.  Same keys, plus the chunk.
  const Status reshard =
      Status::Unavailable("shard 0 migrating chunk 17 (reshard write window)")
          .WithDetail("shard", "0")
          .WithDetail("retry_after_ticks", "1")
          .WithDetail("executed", "never")
          .WithDetail("reshard_chunk", "17");

  // One retry loop, written against the uniform keys, serves both.
  for (const Status* st : {&quarantine, &reshard}) {
    EXPECT_TRUE(st->IsUnavailable());
    ASSERT_NE(st->FindDetail("shard"), nullptr) << st->ToString();
    ASSERT_NE(st->FindDetail("retry_after_ticks"), nullptr)
        << st->ToString();
    ASSERT_NE(st->FindDetail("executed"), nullptr) << st->ToString();
    // retry_after_ticks is a decimal tick count a client can sleep on.
    const std::string& retry = *st->FindDetail("retry_after_ticks");
    EXPECT_FALSE(retry.empty());
    EXPECT_EQ(retry.find_first_not_of("0123456789"), std::string::npos)
        << retry;
    // executed has a closed vocabulary: "never" means safe to re-drive
    // immediately after retry-after; "uncertain" means idempotent
    // re-execution is required (and safe).
    const std::string& executed = *st->FindDetail("executed");
    EXPECT_TRUE(executed == "never" || executed == "uncertain") << executed;
  }
  // The extra observability key is reshard-only.
  EXPECT_EQ(quarantine.FindDetail("reshard_chunk"), nullptr);
  ASSERT_NE(reshard.FindDetail("reshard_chunk"), nullptr);
  EXPECT_EQ(*reshard.FindDetail("reshard_chunk"), "17");
  // A front-door rejection ("never") promises no side effects, which is
  // what lets a client re-submit verbatim without idempotence analysis.
  EXPECT_EQ(*reshard.FindDetail("executed"), "never");
}

TEST(StatusTest, ReturnNotOkMacroPassesThroughOk) {
  auto succeeds = []() -> Status {
    DYCUCKOO_RETURN_NOT_OK(Status::OK());
    return Status::Internal("reached");
  };
  EXPECT_TRUE(succeeds().IsInternal());
}

}  // namespace
}  // namespace dycuckoo

// End-to-end tests for tools/dylint: run the real binary against the
// planted-defect trees in tests/lint_fixtures/ and against the live
// repository, and assert on exit codes and diagnostics.
//
// The fixtures are the lint analogue of crash-injection kill points:
// each one plants exactly the defect its rule exists to catch, so a
// refactor that silently blinds a rule fails here instead of in review.

#include <array>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#ifndef DYCUCKOO_DYLINT_BINARY
#error "DYCUCKOO_DYLINT_BINARY must point at the built dylint executable"
#endif
#ifndef DYCUCKOO_SOURCE_DIR
#error "DYCUCKOO_SOURCE_DIR must point at the repository root"
#endif

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

LintRun RunDylint(const std::string& root) {
  const std::string cmd =
      std::string(DYCUCKOO_DYLINT_BINARY) + " --root " + root + " 2>&1";
  LintRun run;
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  std::array<char, 4096> buf;
  size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    run.output.append(buf.data(), n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

std::string Fixture(const std::string& name) {
  return std::string(DYCUCKOO_SOURCE_DIR) + "/tests/lint_fixtures/" + name;
}

TEST(DylintTest, LiveTreeIsClean) {
  // The repository itself must lint clean: every raw access either goes
  // through the gpusim primitives or carries a justified suppression,
  // and the documented registries match the code.
  const LintRun run = RunDylint(DYCUCKOO_SOURCE_DIR);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("0 violations"), std::string::npos) << run.output;
}

TEST(DylintTest, CleanFixturePasses) {
  // Blessed-primitive usage and a justified suppression: no findings.
  const LintRun run = RunDylint(Fixture("clean"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(DylintTest, RawSlotStoreIsFlagged) {
  const LintRun run = RunDylint(Fixture("raw_slot_store"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("[raw-slot-access]"), std::string::npos)
      << run.output;
  // The diagnostic lands on the planted line, with a clickable location.
  EXPECT_NE(run.output.find("src/rogue_probe.h:15"), std::string::npos)
      << run.output;
}

TEST(DylintTest, AbsoluteTagStoreIsFlagged) {
  // The fixture file sits at a raw-slot-access defining path, so the
  // only finding is the tag rule: fetch_xor passes, .store() fails.
  const LintRun run = RunDylint(Fixture("absolute_tag_store"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("[tag-discipline]"), std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("[raw-slot-access]"), std::string::npos)
      << run.output;
  // Exactly one finding: the fetch_xor path next to it must pass.
  EXPECT_NE(run.output.find(", 1 violation\n"), std::string::npos)
      << run.output;
}

TEST(DylintTest, UnregisteredKillPointIsFlagged) {
  const LintRun run = RunDylint(Fixture("unregistered_killpoint"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // Drift is flagged in both directions: code-not-in-doc...
  EXPECT_NE(run.output.find("wal.undocumented_new_point"), std::string::npos)
      << run.output;
  // ...and doc-not-in-code.
  EXPECT_NE(run.output.find("wal.removed_stale_point"), std::string::npos)
      << run.output;
}

TEST(DylintTest, UnregisteredCounterIsFlagged) {
  // Each counter list carries one entry its doc table lacks; both lists
  // are read from their X(...) entries and diffed against their own
  // marker sections.
  const LintRun run = RunDylint(Fixture("unregistered_counter"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("[registry-sync]"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("TableStats counter 'planted_table_counter'"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("ServerStats counter 'planted_server_counter'"),
            std::string::npos)
      << run.output;
  // The documented entries pass: exactly the two planted findings.
  EXPECT_NE(run.output.find(", 2 violations\n"), std::string::npos)
      << run.output;
}

TEST(DylintTest, UnjustifiedSuppressionIsFlagged) {
  const LintRun run = RunDylint(Fixture("unjustified_suppression"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // The malformed allow is itself a finding...
  EXPECT_NE(run.output.find("[bad-suppression]"), std::string::npos)
      << run.output;
  // ...the unknown rule name is a finding...
  EXPECT_NE(run.output.find("made-up-rule"), std::string::npos) << run.output;
  // ...and the justification-free allow does NOT silence the raw store.
  EXPECT_NE(run.output.find("[raw-slot-access]"), std::string::npos)
      << run.output;
}

TEST(DylintTest, MissingRootIsAUsageError) {
  const LintRun run = RunDylint(Fixture("no_such_fixture_tree"));
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

}  // namespace

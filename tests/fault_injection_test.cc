/// Fault-injection matrix: every registered failpoint site, crossed with the
/// main query shapes (join, aggregation, ORDER BY, spill-under-budget),
/// asserting the failure-path contract — a clean Status comes back, tracked
/// memory returns to its pre-query level, no spill temp files survive, and
/// the database keeps answering.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <string_view>

#include "common/failpoint.h"
#include "common/temp_file.h"
#include "sql/database.h"
#include "sql/spill.h"
#include "testutil/testutil.h"

namespace qy {
namespace {

using sql::Database;
using sql::DatabaseOptions;
using sql::Value;

#ifndef QY_FAILPOINTS_ENABLED

TEST(FaultInjectionTest, RequiresFailpointBuild) {
  GTEST_SKIP() << "built with -DQY_FAILPOINTS=OFF; failpoint sites are "
                  "compiled out";
}

#else  // QY_FAILPOINTS_ENABLED

void FillGroups(Database* db, int rows, int groups) {
  ASSERT_TRUE(db->ExecuteScript("CREATE TABLE t (k BIGINT, v DOUBLE)").ok());
  auto table = db->catalog().GetTable("t");
  ASSERT_TRUE(table.ok());
  for (int r = 0; r < rows; ++r) {
    ASSERT_TRUE((*table)
                    ->AppendRow({Value::BigInt(r % groups),
                                 Value::Double(static_cast<double>(r))})
                    .ok());
  }
}

struct Site {
  const char* name;
  StatusCode code;
};

constexpr Site kSites[] = {
    {"spill/write", StatusCode::kIoError},
    {"spill/read", StatusCode::kIoError},
    {"spill/read", StatusCode::kDataLoss},
    {"tempfile/create", StatusCode::kIoError},
    {"tempfile/write", StatusCode::kIoError},
    {"mem/reserve", StatusCode::kOutOfMemory},
};

struct Scenario {
  const char* name;
  const char* sql;
  uint64_t budget;  ///< MemoryTracker::kUnlimited or a spill-forcing cap
  int rows;
  int groups;
};

const Scenario kScenarios[] = {
    {"join",
     "SELECT a.k, COUNT(*) FROM t a JOIN t b ON a.k = b.k GROUP BY a.k",
     MemoryTracker::kUnlimited, 2000, 50},
    {"aggregation",
     "SELECT k, SUM(v), AVG(v), MIN(v), MAX(v) FROM t GROUP BY k",
     MemoryTracker::kUnlimited, 5000, 200},
    {"order_by", "SELECT k, v FROM t ORDER BY v DESC, k",
     MemoryTracker::kUnlimited, 5000, 200},
    // Budget forces the hash aggregate to spill partitions, so the spill/
    // tempfile sites are actually traversed (cf. sql_spill_test).
    {"spill_agg", "SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k",
     1 << 20, 20000, 5000},
};

/// One cell of the matrix: arm `site`, run `scenario`, verify the contract.
void RunCase(const Site& site, const Scenario& scenario, int skip) {
  SCOPED_TRACE(std::string(scenario.name) + " x " + site.name +
               " skip=" + std::to_string(skip));
  failpoint::DeactivateAll();
  DatabaseOptions opts;
  opts.memory_budget_bytes = scenario.budget;
  Database db(opts);
  FillGroups(&db, scenario.rows, scenario.groups);
  uint64_t used_before = db.tracker().used();

  failpoint::Activate(site.name, site.code, "injected by fault_injection_test",
                      skip);
  Status status;
  {
    auto got = db.Execute(scenario.sql);
    status = got.status();
    // The result (and its tracked sink table) dies here, before the
    // cleanup invariants are checked.
  }
  uint64_t hits = failpoint::HitCount(site.name);
  uint64_t traversals = failpoint::TraversalCount(site.name);
  failpoint::DeactivateAll();

  if (hits > 0) {
    EXPECT_FALSE(status.ok())
        << "injected " << hits << " failure(s) at " << site.name
        << " but the query succeeded";
  } else {
    // The site was never traversed (e.g. spill sites without memory
    // pressure): the query must succeed.
    EXPECT_TRUE(status.ok())
        << site.name << " untraversed (" << traversals
        << " traversals) yet the query failed: " << status.ToString();
  }

  test::ExpectQueryCleanup(db, used_before, "after injected failure");

  // The database must keep working once the fault is disarmed.
  {
    auto again = db.Execute("SELECT COUNT(*) FROM t");
    ASSERT_TRUE(again.ok()) << "follow-up query failed after " << site.name
                            << ": " << again.status().ToString();
    EXPECT_EQ(again->GetInt64(0, 0), scenario.rows);
  }
  test::ExpectQueryCleanup(db, used_before, "after follow-up query");
}

TEST(FaultInjectionTest, EverySiteEveryQueryShapeSerial) {
  for (const Scenario& scenario : kScenarios) {
    for (const Site& site : kSites) {
      RunCase(site, scenario, /*skip=*/0);
    }
  }
}

TEST(FaultInjectionTest, MidQueryInjectionAfterSkippedTraversals) {
  // skip=3 lets the first traversals pass so the failure lands mid-query —
  // after some spill partitions are already on disk.
  for (const char* name : {"spill/write", "tempfile/write", "mem/reserve"}) {
    Site site{name, StatusCode::kIoError};
    RunCase(site, kScenarios[3], /*skip=*/3);
  }
}

TEST(FaultInjectionTest, MaxHitsLimitsInjections) {
  failpoint::DeactivateAll();
  failpoint::Activate("mem/reserve", StatusCode::kOutOfMemory, "bounded",
                      /*skip=*/0, /*max_hits=*/2);
  MemoryTracker tracker(MemoryTracker::kUnlimited);
  EXPECT_FALSE(tracker.Reserve(1).ok());
  EXPECT_FALSE(tracker.Reserve(1).ok());
  EXPECT_TRUE(tracker.Reserve(1).ok()) << "max_hits=2 not honoured";
  EXPECT_EQ(failpoint::HitCount("mem/reserve"), 2u);
  EXPECT_EQ(failpoint::TraversalCount("mem/reserve"), 3u);
  failpoint::DeactivateAll();
  EXPECT_TRUE(tracker.Reserve(1).ok());
  tracker.Release(tracker.used());
}

TEST(FaultInjectionTest, ActivateFromSpecParsesAndArms) {
  failpoint::DeactivateAll();
  ASSERT_TRUE(
      failpoint::ActivateFromSpec("spill/write=io_error,mem/reserve=oom@2")
          .ok());
  EXPECT_TRUE(failpoint::AnyActive());
  MemoryTracker tracker(MemoryTracker::kUnlimited);
  EXPECT_TRUE(tracker.Reserve(1).ok());   // skip 1
  EXPECT_TRUE(tracker.Reserve(1).ok());   // skip 2
  Status s = tracker.Reserve(1);
  EXPECT_EQ(s.code(), StatusCode::kOutOfMemory);
  failpoint::DeactivateAll();
  EXPECT_FALSE(failpoint::AnyActive());
  tracker.Release(tracker.used());

  EXPECT_FALSE(failpoint::ActivateFromSpec("spill/write=no_such_code").ok());
  EXPECT_FALSE(failpoint::ActivateFromSpec("justasite").ok());
  failpoint::DeactivateAll();
}

TEST(FaultInjectionTest, CtasFailureDropsTheTargetTable) {
  failpoint::DeactivateAll();
  Database db;
  FillGroups(&db, 1000, 100);
  uint64_t used_before = db.tracker().used();
  failpoint::Activate("mem/reserve", StatusCode::kOutOfMemory, "injected");
  auto got =
      db.Execute("CREATE TABLE big AS SELECT k, SUM(v) FROM t GROUP BY k");
  failpoint::DeactivateAll();
  ASSERT_FALSE(got.ok());
  // The half-built target must not linger in the catalog.
  EXPECT_FALSE(db.catalog().HasTable("big"));
  test::ExpectQueryCleanup(db, used_before, "after failed CTAS");
  auto again =
      db.Execute("CREATE TABLE big AS SELECT k, SUM(v) FROM t GROUP BY k");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(db.catalog().HasTable("big"));
}

// ---- transient-failure retry absorption ----

TEST(FaultInjectionTest, TransientWriteFailuresAreAbsorbedByRetry) {
  // transient(N) with N < kIoAttempts: the bounded retry in
  // TempFile::WriteBytes must absorb the blip and the spilling query must
  // succeed, with exactly N injected hits.
  for (int fail_count : {1, kIoAttempts - 1}) {
    SCOPED_TRACE("fail_count=" + std::to_string(fail_count));
    failpoint::DeactivateAll();
    DatabaseOptions opts;
    opts.memory_budget_bytes = 1 << 20;
      Database db(opts);
    FillGroups(&db, 20000, 5000);
    uint64_t used_before = db.tracker().used();
    failpoint::ActivateTransient("tempfile/write", fail_count);
    Status status;
    {
      auto got = db.Execute("SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k");
      status = got.status();
      // Drop the result (and its tracked sink table) before the invariant.
    }
    uint64_t hits = failpoint::HitCount("tempfile/write");
    failpoint::DeactivateAll();
    ASSERT_TRUE(status.ok()) << "retry did not absorb " << fail_count
                             << " transient failure(s): " << status.ToString();
    EXPECT_EQ(hits, static_cast<uint64_t>(fail_count));
    test::ExpectQueryCleanup(db, used_before, "after absorbed transient");
  }
}

TEST(FaultInjectionTest, TransientFailuresBeyondRetryBudgetStillFail) {
  // N == kIoAttempts: every attempt of one logical write fails; the error
  // must surface (no infinite retry), and cleanup must still hold.
  failpoint::DeactivateAll();
  DatabaseOptions opts;
  opts.memory_budget_bytes = 1 << 20;
  Database db(opts);
  FillGroups(&db, 20000, 5000);
  uint64_t used_before = db.tracker().used();
  failpoint::ActivateTransient("tempfile/write", kIoAttempts);
  Status status;
  {
    auto got = db.Execute("SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k");
    status = got.status();
  }
  uint64_t hits = failpoint::HitCount("tempfile/write");
  failpoint::DeactivateAll();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(hits, static_cast<uint64_t>(kIoAttempts));
  test::ExpectQueryCleanup(db, used_before, "after exhausted retries");
}

TEST(FaultInjectionTest, TransientCreateFailuresAreAbsorbedByRetry) {
  failpoint::DeactivateAll();
  TempFileManager manager;
  failpoint::ActivateTransient("tempfile/create", kIoAttempts - 1);
  auto file = manager.Create("retry_test");
  uint64_t hits = failpoint::HitCount("tempfile/create");
  failpoint::DeactivateAll();
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(hits, static_cast<uint64_t>(kIoAttempts - 1));
  ASSERT_TRUE((*file)->WriteU64(42).ok());
}

// ---- spec grammar: transient(N), crash, code*N, data_loss ----

TEST(FaultInjectionTest, SpecParsesTransientAction) {
  failpoint::DeactivateAll();
  ASSERT_TRUE(failpoint::ActivateFromSpec("x/y=transient(2)@1").ok());
  EXPECT_TRUE(failpoint::Check("x/y").ok());  // skip 1
  EXPECT_EQ(failpoint::Check("x/y").code(), StatusCode::kIoError);
  EXPECT_EQ(failpoint::Check("x/y").code(), StatusCode::kIoError);
  EXPECT_TRUE(failpoint::Check("x/y").ok()) << "transient must pass after N";
  EXPECT_EQ(failpoint::HitCount("x/y"), 2u);
  EXPECT_EQ(failpoint::TraversalCount("x/y"), 4u);
  failpoint::DeactivateAll();
}

TEST(FaultInjectionTest, SpecParsesMaxHitsSuffix) {
  failpoint::DeactivateAll();
  ASSERT_TRUE(failpoint::ActivateFromSpec("x/y=internal*2@1").ok());
  EXPECT_TRUE(failpoint::Check("x/y").ok());  // skipped
  EXPECT_EQ(failpoint::Check("x/y").code(), StatusCode::kInternal);
  EXPECT_EQ(failpoint::Check("x/y").code(), StatusCode::kInternal);
  EXPECT_TRUE(failpoint::Check("x/y").ok()) << "max_hits=2 not honoured";
  failpoint::DeactivateAll();
}

TEST(FaultInjectionTest, SpecParsesDataLossCode) {
  failpoint::DeactivateAll();
  ASSERT_TRUE(failpoint::ActivateFromSpec("spill/read=data_loss").ok());
  EXPECT_EQ(failpoint::Check("spill/read").code(), StatusCode::kDataLoss);
  failpoint::DeactivateAll();
}

TEST(FaultInjectionTest, SpecRejectsMalformedActions) {
  for (const char* bad :
       {"x=transient", "x=transient(", "x=transient()", "x=transient(0)",
        "x=transient(abc)", "x=io_error*0", "x=io_error*junk", "x=crsh"}) {
    EXPECT_FALSE(failpoint::ActivateFromSpec(bad).ok())
        << "'" << bad << "' should not parse";
    failpoint::DeactivateAll();
  }
  // `crash` parses (it arms a SIGKILL, so only verify arming, not firing).
  ASSERT_TRUE(failpoint::ActivateFromSpec("x/unused=crash@1000000").ok());
  EXPECT_TRUE(failpoint::AnyActive());
  failpoint::DeactivateAll();
}

// ---- on-disk spill corruption: framed pages surface kDataLoss ----

/// Write a couple of records through RecordWriter, then mutate the file on
/// disk and assert the reader reports kDataLoss (never garbage records).
class SpillCorruptionTest : public ::testing::Test {
 protected:
  void WriteRecords(TempFile* file) {
    sql::RecordWriter writer(file);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(writer.Write("record-" + std::to_string(i) + "-payload")
                      .ok());
    }
    ASSERT_TRUE(writer.Flush().ok());
    ASSERT_TRUE(file->Rewind().ok());
  }

  /// XOR one byte of the file at `offset` (stdio-independent, via fopen).
  void CorruptByte(const std::string& path, long offset, int mask = 0x20) {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, offset >= 0 ? SEEK_SET : SEEK_END), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
    std::fputc(c ^ mask, f);
    std::fclose(f);
  }

  Status DrainReader(TempFile* file, int* records_read) {
    sql::RecordReader reader(file);
    *records_read = 0;
    std::string_view record;
    bool eof = false;
    while (true) {
      Status s = reader.Read(&record, &eof);
      if (!s.ok() || eof) return s;
      ++*records_read;
    }
  }
};

TEST_F(SpillCorruptionTest, CleanFileRoundTrips) {
  TempFileManager manager;
  auto file = manager.Create("clean");
  ASSERT_TRUE(file.ok());
  WriteRecords(file->get());
  int records = 0;
  ASSERT_TRUE(DrainReader(file->get(), &records).ok());
  EXPECT_EQ(records, 8);
}

TEST_F(SpillCorruptionTest, PayloadBitFlipIsDataLoss) {
  TempFileManager manager;
  auto file = manager.Create("flip");
  ASSERT_TRUE(file.ok());
  WriteRecords(file->get());
  // Past the 12-byte page header: inside the record payload.
  CorruptByte((*file)->path(), 20);
  ASSERT_TRUE((*file)->Rewind().ok());
  int records = 0;
  Status s = DrainReader(file->get(), &records);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
}

TEST_F(SpillCorruptionTest, HeaderMagicFlipIsDataLoss) {
  TempFileManager manager;
  auto file = manager.Create("magic");
  ASSERT_TRUE(file.ok());
  WriteRecords(file->get());
  CorruptByte((*file)->path(), 0);  // first magic byte
  ASSERT_TRUE((*file)->Rewind().ok());
  int records = 0;
  Status s = DrainReader(file->get(), &records);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
}

TEST_F(SpillCorruptionTest, TruncatedPageIsDataLoss) {
  TempFileManager manager;
  auto file = manager.Create("truncate");
  ASSERT_TRUE(file.ok());
  WriteRecords(file->get());
  ASSERT_EQ(::truncate((*file)->path().c_str(), 17), 0)
      << "could not truncate mid-page";
  ASSERT_TRUE((*file)->Rewind().ok());
  int records = 0;
  Status s = DrainReader(file->get(), &records);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
  EXPECT_EQ(records, 0);
}

TEST_F(SpillCorruptionTest, HugePageLengthIsDataLossWithoutAllocating) {
  // The page length is not covered by the CRC. With bit 31 set it claims a
  // 2 GiB page in a file of a few hundred bytes; the reader must reject it
  // against the bytes left in the file instead of zero-filling 2 GiB first.
  auto peak_rss_kib = [] {
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<long>(usage.ru_maxrss);
  };
  TempFileManager manager;
  {
    auto file = manager.Create("huge_length");
    ASSERT_TRUE(file.ok());
    WriteRecords(file->get());
    // Header: [magic:u32][payload_len:u32][crc32c:u32]; byte 7 holds bits
    // 24..31 of the little-endian length.
    CorruptByte((*file)->path(), 7, 0x80);
    ASSERT_TRUE((*file)->Rewind().ok());
    long rss_before = peak_rss_kib();
    int records = 0;
    Status s = DrainReader(file->get(), &records);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << s.ToString();
    EXPECT_EQ(records, 0);
    EXPECT_LT(peak_rss_kib() - rss_before, 512L << 10)
        << "the reader allocated the claimed page";
  }
  EXPECT_EQ(manager.LiveFileCount(), 0u);
}

TEST_F(SpillCorruptionTest, CorruptSpillPageFailsQueryCleanly) {
  // End-to-end: corrupt a page mid-query via the data_loss injection at the
  // read site — the query fails with kDataLoss, cleanup invariants hold and
  // the database keeps answering (the full matrix also covers this; this
  // case pins the specific code).
  failpoint::DeactivateAll();
  DatabaseOptions opts;
  opts.memory_budget_bytes = 1 << 20;
  Database db(opts);
  FillGroups(&db, 20000, 5000);
  uint64_t used_before = db.tracker().used();
  failpoint::Activate("spill/read", StatusCode::kDataLoss,
                      "spill page checksum mismatch (injected)");
  Status status;
  {
    auto got = db.Execute("SELECT k, SUM(v), COUNT(*) FROM t GROUP BY k");
    status = got.status();
  }
  uint64_t hits = failpoint::HitCount("spill/read");
  failpoint::DeactivateAll();
  if (hits > 0) {
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  }
  test::ExpectQueryCleanup(db, used_before, "after spill corruption");
  {
    auto again = db.Execute("SELECT COUNT(*) FROM t");
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->GetInt64(0, 0), 20000);
  }
  test::ExpectQueryCleanup(db, used_before, "after follow-up query");
}

#endif  // QY_FAILPOINTS_ENABLED

}  // namespace
}  // namespace qy

// fault_inject_test.cpp — the deterministic fault-injection contract:
// seeded schedules replay exactly, every armed point surfaces as its
// layer's normal error shape (CheckError from io, std::bad_alloc from
// allocation, the captured task exception from ThreadPool::parallel_for —
// with the pool reusable afterwards), and nothing fires while disarmed.
//
// The injection effects are compiled into Debug/sanitizer builds only
// (FTB_FAULT_INJECTION_ENABLED); the schedule tests run everywhere, the
// effect tests GTEST_SKIP in Release builds.
#include <gtest/gtest.h>

#include <atomic>
#include <new>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/api/ftbfs_api.hpp"
#include "src/graph/generators.hpp"
#include "src/io/structure_io.hpp"
#include "src/util/fault_inject.hpp"
#include "src/util/thread_pool.hpp"

namespace ftb {
namespace {

/// Every test leaves the process-wide injector disarmed, whatever happens.
class FaultInjectTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Injector::instance().disarm(); }
  void TearDown() override { fault::Injector::instance().disarm(); }
};

unsigned mask_of(fault::Point p) {
  return 1u << static_cast<unsigned>(p);
}

TEST_F(FaultInjectTest, DisarmedNeverFires) {
  auto& inj = fault::Injector::instance();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(inj.should_fire(fault::Point::kAlloc));
  }
  EXPECT_EQ(inj.fires(fault::Point::kAlloc), 0u);
}

TEST_F(FaultInjectTest, RateOneAlwaysFiresArmedPointOnly) {
  auto& inj = fault::Injector::instance();
  inj.configure(7, 1.0, mask_of(fault::Point::kAlloc));
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(inj.should_fire(fault::Point::kAlloc));
    // Unarmed points never fire, and are not even counted as checks.
    EXPECT_FALSE(inj.should_fire(fault::Point::kPoolTask));
  }
  EXPECT_EQ(inj.checks(fault::Point::kAlloc), 50u);
  EXPECT_EQ(inj.fires(fault::Point::kAlloc), 50u);
  EXPECT_EQ(inj.checks(fault::Point::kPoolTask), 0u);
}

TEST_F(FaultInjectTest, RateZeroNeverFiresButCounts) {
  auto& inj = fault::Injector::instance();
  inj.configure(7, 0.0, mask_of(fault::Point::kAlloc));
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(inj.should_fire(fault::Point::kAlloc));
  }
  EXPECT_EQ(inj.checks(fault::Point::kAlloc), 50u);
  EXPECT_EQ(inj.fires(fault::Point::kAlloc), 0u);
}

TEST_F(FaultInjectTest, ScheduleIsDeterministicInTheSeed) {
  auto& inj = fault::Injector::instance();
  const auto record = [&] {
    std::vector<bool> schedule;
    for (int i = 0; i < 400; ++i) {
      schedule.push_back(inj.should_fire(fault::Point::kIoBitFlip));
    }
    return schedule;
  };
  inj.configure(42, 0.5, mask_of(fault::Point::kIoBitFlip));
  const std::vector<bool> first = record();
  // Reconfiguring with the same seed resets the ordinals: the schedule
  // replays bit for bit — that is what makes a chaos-drill failure
  // reproducible from its seed alone.
  inj.configure(42, 0.5, mask_of(fault::Point::kIoBitFlip));
  EXPECT_EQ(record(), first);
  // A different seed gives a different schedule (with 400 half-rate draws
  // a collision is a 2^-400 event).
  inj.configure(43, 0.5, mask_of(fault::Point::kIoBitFlip));
  EXPECT_NE(record(), first);
  // The rate is honored in aggregate.
  std::int64_t fired = 0;
  for (const bool b : first) fired += b ? 1 : 0;
  EXPECT_GT(fired, 100);
  EXPECT_LT(fired, 300);
}

#if FTB_FAULT_INJECTION_ENABLED
#define FTB_REQUIRE_INJECTION()
#else
#define FTB_REQUIRE_INJECTION() \
  GTEST_SKIP() << "fault-injection points compile away in Release builds"
#endif

TEST_F(FaultInjectTest, AllocPointSurfacesAsBadAlloc) {
  FTB_REQUIRE_INJECTION();
  auto& inj = fault::Injector::instance();
  inj.configure(1, 1.0, mask_of(fault::Point::kAlloc));
  EXPECT_THROW(fault::maybe_fail_alloc(), std::bad_alloc);
  inj.disarm();
  EXPECT_NO_THROW(fault::maybe_fail_alloc());
}

TEST_F(FaultInjectTest, PoolTaskPointSurfacesOnCallerAndPoolSurvives) {
  FTB_REQUIRE_INJECTION();
  auto& inj = fault::Injector::instance();
  ThreadPool pool(3);
  inj.configure(1, 1.0, mask_of(fault::Point::kPoolTask));
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(64, [&](std::size_t) { ran++; }),
               std::runtime_error);
  // The injected throw happened in invoke_thunk BEFORE the callable.
  EXPECT_EQ(ran.load(), 0);
  // Disarmed, the same pool serves the same job — the capture left it
  // reusable (same pinning as util_test's ExceptionsPropagate).
  inj.disarm();
  pool.parallel_for(64, [&](std::size_t) { ran++; });
  EXPECT_EQ(ran.load(), 64);
}

TEST_F(FaultInjectTest, IoShortReadSurfacesAsCheckErrorWithContext) {
  FTB_REQUIRE_INJECTION();
  // A perfectly valid v5 artifact: the only failure is the injected short
  // read, and it must look exactly like real storage truncation.
  const Graph g = gen::grid_graph(4, 4);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::BuildResult res = api::build(g, spec);
  std::ostringstream os;
  io::write_structure_v5(res.structure, res.sources, res.dual_tables, {},
                         os);
  const std::string bytes = os.str();

  auto& inj = fault::Injector::instance();
  inj.configure(1, 1.0, mask_of(fault::Point::kIoShortRead));
  std::istringstream is(bytes);
  try {
    io::read_structure(g, is);
    FAIL() << "injected short read was silently accepted";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(at byte"), std::string::npos) << msg;
  }
  // Disarmed, the same bytes load cleanly.
  inj.disarm();
  std::istringstream again(bytes);
  EXPECT_NO_THROW(io::read_structure(g, again));
}

TEST_F(FaultInjectTest, IoBitFlipSurfacesAsChecksumMismatch) {
  FTB_REQUIRE_INJECTION();
  const Graph g = gen::grid_graph(4, 4);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::BuildResult res = api::build(g, spec);
  std::ostringstream os;
  io::write_structure_v5(res.structure, res.sources, res.dual_tables, {},
                         os);
  const std::string bytes = os.str();

  auto& inj = fault::Injector::instance();
  inj.configure(1, 1.0, mask_of(fault::Point::kIoBitFlip));
  std::istringstream is(bytes);
  try {
    io::read_structure(g, is);
    FAIL() << "injected bit flip was silently accepted";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("checksum mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(at byte"), std::string::npos) << msg;
  }
}

TEST_F(FaultInjectTest, HalfRateIoFaultsAlwaysRejectCleanlyOrLoad) {
  FTB_REQUIRE_INJECTION();
  // The chaos property at rate 0.5: whatever subset of reads the schedule
  // corrupts, the outcome is clean-load-or-CheckError — never anything
  // else. (The fuzz tool pins the same contract for on-disk mutations;
  // this pins it for injected transport faults.)
  const Graph g = gen::grid_graph(4, 4);
  api::BuildSpec spec;
  spec.fault_model = FaultClass::kDual;
  const api::BuildResult res = api::build(g, spec);
  std::ostringstream os;
  io::write_structure_v5(res.structure, res.sources, res.dual_tables, {},
                         os);
  const std::string bytes = os.str();

  auto& inj = fault::Injector::instance();
  const unsigned io_mask = mask_of(fault::Point::kIoShortRead) |
                           mask_of(fault::Point::kIoBitFlip);
  int rejected = 0, loaded = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    inj.configure(seed, 0.5, io_mask);
    std::istringstream is(bytes);
    try {
      io::read_structure(g, is);
      ++loaded;
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("(at byte"), std::string::npos)
          << e.what();
      ++rejected;
    }
  }
  EXPECT_EQ(rejected + loaded, 20);
  // At rate 0.5 over three sections, at least one of twenty seeds must
  // have corrupted something.
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace ftb

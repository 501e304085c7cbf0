// util_test.cpp — RNG, thread pool, table, options, check machinery.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include "src/util/check.hpp"
#include "src/util/free_list_pool.hpp"
#include "src/util/options.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/timer.hpp"

namespace ftb {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LE(same, 1);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) ASSERT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(11);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 2000; ++i) ++seen[rng.next_below(5)];
  for (int c : seen) EXPECT_GT(c, 200);  // roughly uniform
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    const auto x = rng.next_in(-3, 3);
    ASSERT_GE(x, -3);
    ASSERT_LE(x, 3);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) ASSERT_EQ(sorted[static_cast<std::size_t>(i)], i);
  // And it actually moved something.
  std::vector<int> id(100);
  std::iota(id.begin(), id.end(), 0);
  EXPECT_NE(v, id);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(997);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 42) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // Pool must still be usable afterwards.
  std::atomic<int> ok{0};
  pool.parallel_for(10, [&](std::size_t) { ok++; });
  EXPECT_EQ(ok.load(), 10);
}

// Every arena the error path ever constructed, parked or in flight.
std::atomic<int> g_counted_arenas_live{0};
struct CountedArena {
  CountedArena() { ++g_counted_arenas_live; }
  ~CountedArena() { --g_counted_arenas_live; }
  std::vector<int> scratch;
};

TEST(ThreadPool, ThrowingIterationReleasesPooledArenas) {
  // The error-path leak contract: an iteration body that leases scratch
  // from a FreeListPool and then throws must still return the arena —
  // PoolLease's unwind does it — so a failed parallel_for leaves every
  // arena either parked in the pool or deleted, never stranded. Destroying
  // the pool afterwards therefore reclaims all of them.
  ThreadPool pool(4);
  {
    FreeListPool<CountedArena> arenas;
    EXPECT_THROW(
        pool.parallel_for(512,
                          [&](std::size_t i) {
                            const PoolLease<CountedArena> lease(arenas);
                            lease->scratch.assign(64, static_cast<int>(i));
                            if (i % 5 == 2) {
                              throw std::runtime_error("mid-lease boom");
                            }
                          }),
        std::runtime_error);
  }
  EXPECT_EQ(g_counted_arenas_live.load(), 0);
}

TEST(ThreadPool, FailFastAbandonsTailAfterFailure) {
  // Block 0 is claimed first off the cursor and its first iteration throws
  // immediately, so the failed flag is up while the other participants are
  // still inside their first (deliberately slow) blocks. Everything they
  // would have claimed afterwards is abandoned — the run must end with
  // most of the index space unvisited, like the serial shortcut that
  // stops at the throwing iteration.
  ThreadPool pool(2);
  constexpr std::size_t kCount = 1 << 14;
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(pool.parallel_for(kCount,
                                 [&](std::size_t i) {
                                   if (i == 0) {
                                     throw std::runtime_error("early boom");
                                   }
                                   for (int k = 0; k < 10; ++k) {
                                     std::this_thread::yield();
                                   }
                                   ran++;
                                 }),
               std::runtime_error);
  EXPECT_LT(ran.load(), kCount - 1);
  // And the pool serves the next job in full.
  std::atomic<std::size_t> ok{0};
  pool.parallel_for(100, [&](std::size_t) { ok++; });
  EXPECT_EQ(ok.load(), 100u);
}

TEST(ThreadPool, NestedInnerThrowDrainsAndPropagates) {
  // Nested parallelism: an outer iteration runs an inner parallel_for on
  // the SAME pool (the inner job drains through its caller). An inner
  // failure must finish draining the inner job, surface exactly once in
  // the outer body, fail the outer job fast, and leave the pool reusable.
  ThreadPool pool(3);
  std::atomic<int> inner_throws{0};
  EXPECT_THROW(
      pool.parallel_for(8,
                        [&](std::size_t) {
                          try {
                            pool.parallel_for(64, [&](std::size_t j) {
                              if (j == 13) {
                                throw std::runtime_error("inner boom");
                              }
                            });
                          } catch (const std::runtime_error&) {
                            inner_throws++;
                            throw;
                          }
                        }),
      std::runtime_error);
  EXPECT_GE(inner_throws.load(), 1);
  std::atomic<int> ok{0};
  pool.parallel_for(37, [&](std::size_t) { ok++; });
  EXPECT_EQ(ok.load(), 37);
}

TEST(ThreadPool, GlobalPoolSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().thread_count(), 1u);
}

TEST(ThreadPool, CallerOnlyRunsEveryIterationOnTheCaller) {
  // Called from inside a global-pool job, the way the dual build's
  // per-site engines call it.
  ThreadPool& inner = ThreadPool::caller_only();
  EXPECT_EQ(inner.thread_count(), 0u);
  std::atomic<int> off_thread{0};
  std::atomic<int> visits{0};
  ThreadPool::global().parallel_for(8, [&](std::size_t) {
    const std::thread::id caller = std::this_thread::get_id();
    inner.parallel_for(64, [&](std::size_t) {
      if (std::this_thread::get_id() != caller) ++off_thread;
      ++visits;
    });
  });
  EXPECT_EQ(off_thread.load(), 0);
  EXPECT_EQ(visits.load(), 8 * 64);
}

TEST(ThreadPool, ParallelForIsDeterministicOnDisjointWrites) {
  // The atomic-cursor scheduler may assign blocks to threads in any order;
  // iterations with disjoint side effects must nevertheless produce the
  // exact serial result, run after run.
  ThreadPool pool(5);
  const std::size_t n = 4099;
  std::vector<std::uint64_t> serial(n);
  for (std::size_t i = 0; i < n; ++i) serial[i] = i * i + 7 * i + 3;
  for (int run = 0; run < 20; ++run) {
    std::vector<std::uint64_t> out(n, 0);
    pool.parallel_for(n, [&](std::size_t i) { out[i] = i * i + 7 * i + 3; });
    ASSERT_EQ(out, serial) << "run " << run;
  }
}

TEST(ThreadPool, ParallelForHandlesSkewedWork) {
  // Heavily skewed iteration costs exercise dynamic block claiming; every
  // index must still be visited exactly once.
  ThreadPool pool(4);
  const std::size_t n = 501;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) {
    if (i % 97 == 0) {
      volatile std::uint64_t sink = 0;
      for (int k = 0; k < 200000; ++k) {
        sink = sink + static_cast<std::uint64_t>(k);
      }
    }
    hits[i]++;
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, ConcurrentCallersEachComplete) {
  // Several threads submitting to ONE pool (the global-pool pattern when
  // two engines build simultaneously): every call must run all its
  // iterations and return — no lost completion wakeups.
  ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr int kRounds = 50;
  constexpr std::size_t kCount = 257;
  std::atomic<std::int64_t> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        std::vector<int> out(kCount, 0);
        pool.parallel_for(kCount, [&](std::size_t i) { out[i] = 1; });
        std::int64_t sum = 0;
        for (const int v : out) sum += v;
        total.fetch_add(sum);
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(),
            static_cast<std::int64_t>(kCallers) * kRounds *
                static_cast<std::int64_t>(kCount));
}

TEST(ThreadPool, ParallelForAcceptsNonStdFunctionCallables) {
  // The template overload must not round-trip through std::function; a
  // move-only-capturing callable compiles and runs.
  ThreadPool pool(2);
  auto big = std::make_unique<int>(17);
  std::vector<int> out(64, 0);
  const auto fn = [&out, big = std::move(big)](std::size_t i) {
    out[i] = *big + static_cast<int>(i);
  };
  pool.parallel_for(out.size(), fn);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], 17 + static_cast<int>(i));
  }
}

TEST(Table, AlignedPrinting) {
  Table t("demo");
  t.columns({"name", "value"});
  t.row("alpha", 42);
  t.row("b", 3.14159);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("3.142"), std::string::npos);  // %.4g
}

TEST(Table, CsvRoundTrip) {
  Table t;
  t.columns({"a", "b", "c"});
  t.row(1, 2.5, "x");
  const std::string path = "/tmp/ftbfs_table_test.csv";
  t.write_csv(path);
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "a,b,c");
  std::getline(f, line);
  EXPECT_EQ(line, "1,2.5,x");
  std::filesystem::remove(path);
}

TEST(Table, ArityMismatchThrows) {
  Table t;
  t.columns({"a", "b"});
  EXPECT_THROW(t.row(1), CheckError);
}

TEST(Options, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--n=128", "--eps=0.25", "--verbose"};
  Options o(4, const_cast<char**>(argv));
  EXPECT_EQ(o.get_int("n", 0), 128);
  EXPECT_DOUBLE_EQ(o.get_double("eps", 0), 0.25);
  EXPECT_TRUE(o.has("verbose"));
  EXPECT_FALSE(o.has("absent"));
  EXPECT_EQ(o.get_int("absent", 7), 7);
}

TEST(Options, ParsesLists) {
  const char* argv[] = {"prog", "--eps=0.1,0.2,0.5", "--n=8,16"};
  Options o(3, const_cast<char**>(argv));
  const auto eps = o.get_double_list("eps", {});
  ASSERT_EQ(eps.size(), 3u);
  EXPECT_DOUBLE_EQ(eps[1], 0.2);
  const auto ns = o.get_int_list("n", {});
  ASSERT_EQ(ns.size(), 2u);
  EXPECT_EQ(ns[1], 16);
  const auto def = o.get_int_list("missing", {42});
  ASSERT_EQ(def.size(), 1u);
  EXPECT_EQ(def[0], 42);
}

TEST(Options, RejectsMalformedScalarsAndListItems) {
  // std::stoll would parse "5x" as 5 — a typo'd --sources=0,5x,10 must be
  // a hard CheckError (the CLI turns it into a non-zero exit with the
  // diagnostic on stderr), never a silently-wrong source set.
  const char* argv[] = {"prog", "--n=12x", "--eps=0.2.5", "--sources=0,5x,10",
                        "--steps=0.1,nope"};
  Options o(5, const_cast<char**>(argv));
  EXPECT_THROW(o.get_int("n", 0), CheckError);
  EXPECT_THROW(o.get_double("eps", 0), CheckError);
  EXPECT_THROW(o.get_int_list("sources", {}), CheckError);
  EXPECT_THROW(o.get_double_list("steps", {}), CheckError);
}

TEST(Check, ThrowsWithMessage) {
  try {
    FTB_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("custom 42"), std::string::npos);
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
  }
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  const double a = t.seconds();
  EXPECT_GE(a, 0.0);
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), a);
  t.restart();
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
}  // namespace ftb

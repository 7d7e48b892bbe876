// Tests of the observability spine: StatRegistry counters/histograms and JSON snapshots,
// OpContext/OpScope/TraceSpan tracing with the per-thread ring, PersistSpan fence
// accounting and coalescing, and the repo-wide enforcement that every persistence
// primitive call outside src/nvm goes through a PersistSpan.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "src/nvm/nvm.h"
#include "src/obs/op_context.h"
#include "src/obs/persist_span.h"
#include "src/obs/stats.h"

namespace trio {
namespace {

// ---------------------------------------------------------------------------
// Counters, histograms, registry
// ---------------------------------------------------------------------------

TEST(StatRegistryTest, CounterBasics) {
  obs::Counter c;
  EXPECT_EQ(c.load(), 0u);
  c.fetch_add(5);
  c.fetch_sub(2);
  EXPECT_EQ(c.load(), 3u);
  c = 0;
  EXPECT_EQ(c.load(), 0u);
}

// Every thread adds into its own stripe; the sum must come out exact, including when
// one thread subtracts what another added (its stripe wraps below zero).
TEST(StatRegistryTest, CounterStripesSumExactlyAcrossThreads) {
  obs::Counter c;
  c.store(1000000);
  constexpr int kThreads = 8;
  constexpr uint64_t kOps = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, t] {
      for (uint64_t i = 0; i < kOps; ++i) {
        if (t % 2 == 0) {
          c.fetch_add(i % 7);
        } else {
          c.fetch_sub(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  uint64_t added = 0;
  for (uint64_t i = 0; i < kOps; ++i) {
    added += i % 7;
  }
  EXPECT_EQ(c.load(), 1000000 + (kThreads / 2) * added - (kThreads / 2) * kOps);
}

TEST(StatRegistryTest, CounterResetClearsEveryStripe) {
  obs::Counter c;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 2 * obs::Counter::kStripes; ++t) {
    threads.emplace_back([&c] { c.fetch_add(3); });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(c.load(), 6 * obs::Counter::kStripes);
  c = 0;
  EXPECT_EQ(c.load(), 0u);
  c.store(9);
  std::thread([&c] { c.fetch_add(1); }).join();
  c.fetch_add(1);
  EXPECT_EQ(c.load(), 11u);
}

TEST(StatRegistryTest, LayerSumsCountEveryThreadsIncrements) {
  obs::Counter a, b;
  obs::ScopedRegistration reg_a("stripelayer", {{"ops", &a}});
  obs::ScopedRegistration reg_b("stripelayer", {{"ops", &b}});
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        a.fetch_add(1);
        b.fetch_add(2);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(obs::StatRegistry::Global().CounterValue("stripelayer", "ops"), 12000u);
  EXPECT_NE(obs::StatRegistry::Global().ToJson().find("\"stripelayer\":{\"ops\":12000}"),
            std::string::npos);
}

TEST(StatRegistryTest, HistogramBinsAreLogarithmic) {
  obs::LatencyHistogram h;
  h.Record(0);
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(1024);
  EXPECT_EQ(h.TotalCount(), 5u);
  EXPECT_EQ(h.SumNs(), 1030u);
  EXPECT_EQ(h.BinCount(0), 2u);   // 0 and 1.
  EXPECT_EQ(h.BinCount(1), 2u);   // 2 and 3.
  EXPECT_EQ(h.BinCount(10), 1u);  // 1024.
  EXPECT_EQ(obs::LatencyHistogram::BinOf(1023), 9u);
  EXPECT_EQ(obs::LatencyHistogram::BinUpperNs(9), 1023u);
  h.Reset();
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.SumNs(), 0u);
}

TEST(StatRegistryTest, GroupsSumPerLayerAndUnregisterOnDestruction) {
  obs::Counter a, b;
  a.fetch_add(7);
  b.fetch_add(5);
  {
    obs::ScopedRegistration reg_a("testlayer", {{"hits", &a}});
    obs::ScopedRegistration reg_b("testlayer", {{"hits", &b}});
    EXPECT_EQ(obs::StatRegistry::Global().CounterValue("testlayer", "hits"), 12u);
    const std::vector<std::string> layers = obs::StatRegistry::Global().Layers();
    EXPECT_NE(std::find(layers.begin(), layers.end(), "testlayer"), layers.end());
  }
  EXPECT_EQ(obs::StatRegistry::Global().CounterValue("testlayer", "hits"), 0u);
}

TEST(StatRegistryTest, ToJsonContainsLayersCountersAndHistograms) {
  obs::Counter ops;
  ops.fetch_add(42);
  obs::LatencyHistogram lat;
  lat.Record(100);
  obs::ScopedRegistration reg("jsonlayer", {{"ops", &ops}, {"latency", &lat}});
  const std::string json = obs::StatRegistry::Global().ToJson();
  EXPECT_NE(json.find("\"jsonlayer\""), std::string::npos);
  EXPECT_NE(json.find("\"ops\":42"), std::string::npos);
  EXPECT_NE(json.find("\"latency\""), std::string::npos);
  EXPECT_NE(json.find("\"sum_ns\":100"), std::string::npos);
}

// ---------------------------------------------------------------------------
// OpContext / tracing
// ---------------------------------------------------------------------------

TEST(OpContextTest, CurrentIsNullWithoutTracing) {
  obs::SetTracing(false);
  EXPECT_EQ(obs::OpContext::Current(), nullptr);
  obs::OpScope op("Disabled");
  EXPECT_EQ(obs::OpContext::Current(), nullptr);
  EXPECT_EQ(op.context(), nullptr);
}

TEST(OpContextTest, OpScopeEstablishesAndNestsContexts) {
  obs::SetTracing(true);
  obs::ClearTraceEvents();
  {
    obs::OpScope outer("Outer");
    obs::OpContext* outer_ctx = obs::OpContext::Current();
    ASSERT_NE(outer_ctx, nullptr);
    EXPECT_NE(outer_ctx->id, 0u);
    EXPECT_STREQ(outer_ctx->name, "Outer");
    EXPECT_EQ(outer_ctx->parent, nullptr);
    {
      obs::OpScope inner("Inner");
      obs::OpContext* inner_ctx = obs::OpContext::Current();
      ASSERT_NE(inner_ctx, nullptr);
      EXPECT_EQ(inner_ctx->parent, outer_ctx);
      EXPECT_NE(inner_ctx->id, outer_ctx->id);
    }
    EXPECT_EQ(obs::OpContext::Current(), outer_ctx);
  }
  EXPECT_EQ(obs::OpContext::Current(), nullptr);
  obs::SetTracing(false);
}

TEST(OpContextTest, SpansLandInTheTraceRing) {
  obs::SetTracing(true);
  obs::ClearTraceEvents();
  {
    obs::OpScope op("RingOp");
    obs::TraceSpan span("RingSpan");
  }
  std::vector<obs::TraceEvent> events = obs::SnapshotAllTraceEvents();
  bool saw_op = false, saw_span = false;
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.name) == "RingOp") {
      saw_op = true;
    }
    if (std::string(e.name) == "RingSpan") {
      saw_span = true;
      EXPECT_GE(e.end_ns, e.begin_ns);
      EXPECT_NE(e.op_id, 0u);
    }
  }
  EXPECT_TRUE(saw_op);
  EXPECT_TRUE(saw_span);
  obs::SetTracing(false);
  obs::ClearTraceEvents();
}

TEST(OpContextTest, RingSurvivesManyEventsFromManyThreads) {
  obs::SetTracing(true);
  obs::ClearTraceEvents();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 3000; ++i) {  // More events than one ring holds.
        obs::OpScope op("Churn");
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  std::vector<obs::TraceEvent> events = obs::SnapshotAllTraceEvents();
  EXPECT_GT(events.size(), 0u);
  for (const obs::TraceEvent& e : events) {
    EXPECT_STREQ(e.name, "Churn");
  }
  obs::SetTracing(false);
  obs::ClearTraceEvents();
}

// ---------------------------------------------------------------------------
// PersistSpan
// ---------------------------------------------------------------------------

class PersistSpanTest : public ::testing::Test {
 protected:
  PersistSpanTest() : pool_(16), stats_("spantest") {}

  uint64_t* Word() { return reinterpret_cast<uint64_t*>(pool_.PageAddress(1)); }

  NvmPool pool_;
  obs::PersistStats stats_;
};

TEST_F(PersistSpanTest, FenceWithNothingPendingIsCoalesced) {
  const uint64_t fences_before = pool_.stats().fences.load();
  {
    obs::PersistSpan span(pool_, &stats_);
    span.Fence();  // Nothing pending: skipped.
    span.Fence();
  }
  EXPECT_EQ(pool_.stats().fences.load(), fences_before);
  EXPECT_EQ(stats_.fences.load(), 0u);
  EXPECT_EQ(stats_.coalesced_fences.load(), 2u);
}

TEST_F(PersistSpanTest, PersistThenFenceIssuesExactlyOne) {
  const uint64_t fences_before = pool_.stats().fences.load();
  {
    obs::PersistSpan span(pool_, &stats_);
    span.Persist(Word(), 64);
    EXPECT_TRUE(span.pending());
    span.Fence();
    EXPECT_FALSE(span.pending());
    span.Fence();  // Second fence has nothing pending: coalesced.
  }
  EXPECT_EQ(pool_.stats().fences.load(), fences_before + 1);
  EXPECT_EQ(stats_.persists.load(), 1u);
  EXPECT_EQ(stats_.bytes_persisted.load(), 64u);
  EXPECT_EQ(stats_.fences.load(), 1u);
  EXPECT_EQ(stats_.coalesced_fences.load(), 1u);
}

TEST_F(PersistSpanTest, DestructorFencesPendingPersists) {
  const uint64_t fences_before = pool_.stats().fences.load();
  {
    obs::PersistSpan span(pool_, &stats_);
    span.Persist(Word(), 8);
    // No explicit Fence: the destructor must close the span.
  }
  EXPECT_EQ(pool_.stats().fences.load(), fences_before + 1);
  EXPECT_EQ(stats_.fences.load(), 1u);
}

TEST_F(PersistSpanTest, DisarmTransfersFenceDutyAndForceFenceTakesIt) {
  const uint64_t fences_before = pool_.stats().fences.load();
  {
    obs::PersistSpan worker(pool_, &stats_);
    worker.Persist(Word(), 8);
    worker.Disarm();  // Last-completer protocol: someone else fences for us.
  }
  EXPECT_EQ(pool_.stats().fences.load(), fences_before);
  {
    obs::PersistSpan completer(pool_, &stats_);
    completer.ForceFence();  // Fences on behalf of the disarmed span.
  }
  EXPECT_EQ(pool_.stats().fences.load(), fences_before + 1);
}

TEST_F(PersistSpanTest, CommitStore64StoresPersistsAndFences) {
  const uint64_t fences_before = pool_.stats().fences.load();
  {
    obs::PersistSpan span(pool_, &stats_);
    span.CommitStore64(Word(), 0xabcdefu);
  }
  EXPECT_EQ(pool_.Load64(Word()), 0xabcdefu);
  EXPECT_EQ(pool_.stats().fences.load(), fences_before + 1);
  EXPECT_EQ(stats_.commit_stores.load(), 1u);
  EXPECT_EQ(stats_.fences.load(), 1u);
}

TEST_F(PersistSpanTest, AttributesToCurrentOpWhenTracing) {
  obs::SetTracing(true);
  {
    obs::OpScope op("PersistOp");
    obs::OpContext* ctx = obs::OpContext::Current();
    ASSERT_NE(ctx, nullptr);
    obs::PersistSpan span(pool_, &stats_);
    span.Persist(Word(), 128);
    span.Fence();
    EXPECT_EQ(ctx->counters.bytes_persisted.load(), 128u);
    EXPECT_EQ(ctx->counters.fences.load(), 1u);
  }
  obs::SetTracing(false);
  obs::ClearTraceEvents();
}

// ---------------------------------------------------------------------------
// Enforcement: no direct persistence-primitive calls outside src/nvm
// ---------------------------------------------------------------------------

TEST(PersistSpanEnforcementTest, NoDirectPersistCallsOutsideNvmAndSpans) {
  // Every Persist/PersistNow/Fence/CommitStore64 call in the file-system layers must go
  // through obs::PersistSpan so fence accounting and per-op attribution cannot drift.
  // The span itself (src/obs) and the pool implementation (src/nvm) are the only homes of
  // the primitives; sim/attack tooling and tests drive the pool deliberately and are out
  // of scope.
  const std::filesystem::path root(TRIO_SOURCE_DIR);
  ASSERT_TRUE(std::filesystem::exists(root / "src")) << root;
  const std::vector<std::string> enforced = {"src/libfs", "src/core", "src/kernel",
                                             "src/kvfs", "src/baselines"};
  // An identifier receiver followed by one of the primitives. PersistSpan temporaries
  // (`obs::PersistSpan(...).CommitStore64(...)`) do not match: the receiver there is a
  // closing parenthesis, not an identifier.
  const std::regex direct_call(
      R"((\w+)\s*(\.|->)\s*(PersistNow|Persist|Fence|CommitStore64)\s*\()");
  std::vector<std::string> violations;
  for (const std::string& dir : enforced) {
    for (const auto& entry : std::filesystem::recursive_directory_iterator(root / dir)) {
      const std::string ext = entry.path().extension().string();
      if (!entry.is_regular_file() || (ext != ".cc" && ext != ".h")) {
        continue;
      }
      std::ifstream in(entry.path());
      std::string line;
      size_t lineno = 0;
      while (std::getline(in, line)) {
        ++lineno;
        std::smatch match;
        if (!std::regex_search(line, match, direct_call)) {
          continue;
        }
        const std::string receiver = match[1].str();
        // Calls THROUGH a span are the sanctioned path.
        if (receiver.find("span") != std::string::npos ||
            receiver.find("Span") != std::string::npos) {
          continue;
        }
        violations.push_back(entry.path().string() + ":" + std::to_string(lineno) + ": " +
                             match[0].str());
      }
    }
  }
  EXPECT_TRUE(violations.empty()) << [&] {
    std::string all = "direct persistence calls found:\n";
    for (const std::string& v : violations) {
      all += "  " + v + "\n";
    }
    return all;
  }();
}

}  // namespace
}  // namespace trio

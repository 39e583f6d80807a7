//===- tests/codecache_test.cpp - Bounded-cache eviction tests ------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
//
// The memory-bound + cost-aware-LRU + per-tenant-accounting surface of
// jit::cache (CodeCache.h). The module memo is the probe of choice: its
// put takes an explicit cost, so every test controls entry sizes down to
// the byte, and hits/misses are observable through findModule.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Bytecode.h"
#include "ir/Function.h"
#include "jit/CodeCache.h"
#include "kernels/Kernels.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

using namespace vapor;
using namespace vapor::jit;

namespace {

ir::Function tinyFn(const std::string &Name) { return ir::Function(Name); }

/// Every test starts from an empty, unbounded, enabled cache and leaves
/// it that way: the cache is process-global and other suites share it.
class CodeCacheTest : public ::testing::Test {
protected:
  void SetUp() override {
    cache::setEnabled(true);
    cache::setCapacity(0);
    cache::clear();
    cache::resetStats();
  }
  void TearDown() override {
    cache::setCapacity(0);
    cache::clear();
    cache::resetStats();
  }
};

//===--- Capacity + LRU order ---------------------------------------------===//

TEST_F(CodeCacheTest, UnboundedNeverEvicts) {
  for (uint64_t K = 1; K <= 64; ++K)
    cache::putModule(K, tinyFn("m"), /*Cost=*/1 << 20);
  cache::Stats S = cache::stats();
  EXPECT_EQ(S.Evictions, 0u);
  EXPECT_EQ(S.BytesLive, 64u << 20);
  EXPECT_EQ(S.CapacityBytes, 0u);
  for (uint64_t K = 1; K <= 64; ++K)
    EXPECT_NE(cache::findModule(K), nullptr);
}

TEST_F(CodeCacheTest, EvictsLeastRecentlyUsedFirst) {
  cache::setCapacity(3500);
  cache::putModule(1, tinyFn("a"), 1000);
  cache::putModule(2, tinyFn("b"), 1000);
  cache::putModule(3, tinyFn("c"), 1000);
  // Refresh 1: recency is now [1, 3, 2] with 2 at the cold end.
  EXPECT_NE(cache::findModule(1), nullptr);
  cache::putModule(4, tinyFn("d"), 1000);

  EXPECT_EQ(cache::findModule(2), nullptr) << "cold entry must go first";
  EXPECT_NE(cache::findModule(1), nullptr);
  EXPECT_NE(cache::findModule(3), nullptr);
  EXPECT_NE(cache::findModule(4), nullptr);
  cache::Stats S = cache::stats();
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.BytesLive, 3000u);
  EXPECT_LE(S.BytesLive, S.CapacityBytes);
}

TEST_F(CodeCacheTest, MixedCostsEvictUntilUnderBound) {
  cache::setCapacity(10000);
  cache::putModule(1, tinyFn("small1"), 500);
  cache::putModule(2, tinyFn("small2"), 500);
  cache::putModule(3, tinyFn("big"), 8000); // 9000 live.
  // One 6000-cost insert must pop BOTH cold small entries AND the big
  // one (500+500+8000) before the total fits again: cost-aware eviction
  // keeps evicting, it does not stop after one victim.
  cache::putModule(4, tinyFn("wide"), 6000);
  EXPECT_EQ(cache::findModule(1), nullptr);
  EXPECT_EQ(cache::findModule(2), nullptr);
  EXPECT_EQ(cache::findModule(3), nullptr);
  EXPECT_NE(cache::findModule(4), nullptr);
  cache::Stats S = cache::stats();
  EXPECT_EQ(S.Evictions, 3u);
  EXPECT_EQ(S.BytesLive, 6000u);
}

TEST_F(CodeCacheTest, OversizedEntryIsServedButNeverResident) {
  cache::setCapacity(1000);
  auto Got = cache::putModule(7, tinyFn("huge"), 5000);
  ASSERT_NE(Got, nullptr) << "the caller always gets the artifact";
  EXPECT_EQ(Got->Name, "huge");
  EXPECT_EQ(cache::findModule(7), nullptr) << "but it is not cached";
  cache::Stats S = cache::stats();
  EXPECT_LE(S.BytesLive, 1000u);
  EXPECT_GE(S.Evictions, 1u);
}

TEST_F(CodeCacheTest, ShrinkingCapacityEvictsImmediately) {
  cache::putModule(1, tinyFn("a"), 4000);
  cache::putModule(2, tinyFn("b"), 4000);
  EXPECT_EQ(cache::stats().BytesLive, 8000u);
  cache::setCapacity(4500);
  cache::Stats S = cache::stats();
  EXPECT_LE(S.BytesLive, 4500u);
  EXPECT_EQ(cache::findModule(1), nullptr) << "older entry is the victim";
  EXPECT_NE(cache::findModule(2), nullptr);
}

TEST_F(CodeCacheTest, VerifyEntriesShareTheRecencyList) {
  // The LRU list spans all artifact kinds: a cold verify entry is evicted
  // to make room for a module entry.
  cache::setCapacity(2000);
  cache::putVerify(11, 22, {true, "", nullptr}); // cost 256.
  cache::putModule(1, tinyFn("a"), 1500);        // 1756 live.
  cache::putModule(2, tinyFn("b"), 400);         // evicts the verify memo.
  EXPECT_FALSE(cache::findVerify(11, 22).has_value());
  EXPECT_NE(cache::findModule(1), nullptr);
  EXPECT_NE(cache::findModule(2), nullptr);
}

//===--- Per-tenant accounting --------------------------------------------===//

const cache::TenantStats *lineFor(const std::vector<cache::TenantStats> &All,
                                  const std::string &Name) {
  for (const cache::TenantStats &T : All)
    if (T.Tenant == Name)
      return &T;
  return nullptr;
}

TEST_F(CodeCacheTest, InsertionsAreAttributedToTheScopedTenant) {
  {
    cache::ScopedTenant T("tenant-a");
    EXPECT_EQ(cache::currentTenant(), "tenant-a");
    cache::putModule(1, tinyFn("a1"), 1000);
    cache::putModule(2, tinyFn("a2"), 2000);
    {
      cache::ScopedTenant Inner("tenant-b");
      EXPECT_EQ(cache::currentTenant(), "tenant-b");
      cache::putModule(3, tinyFn("b1"), 4000);
    }
    EXPECT_EQ(cache::currentTenant(), "tenant-a") << "scopes nest";
  }
  EXPECT_EQ(cache::currentTenant(), "");

  auto All = cache::tenantStats();
  const cache::TenantStats *A = lineFor(All, "tenant-a");
  const cache::TenantStats *B = lineFor(All, "tenant-b");
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(A->BytesLive, 3000u);
  EXPECT_EQ(A->Entries, 2u);
  EXPECT_EQ(A->Insertions, 2u);
  EXPECT_EQ(B->BytesLive, 4000u);
  EXPECT_EQ(B->Entries, 1u);
}

TEST_F(CodeCacheTest, EvictionsRefundTheOwningTenant) {
  cache::setCapacity(5000);
  {
    cache::ScopedTenant T("victim");
    cache::putModule(1, tinyFn("v"), 3000);
  }
  {
    cache::ScopedTenant T("survivor");
    cache::putModule(2, tinyFn("s"), 4000); // Evicts victim's entry.
  }
  auto All = cache::tenantStats();
  const cache::TenantStats *V = lineFor(All, "victim");
  const cache::TenantStats *S = lineFor(All, "survivor");
  ASSERT_NE(V, nullptr);
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(V->BytesLive, 0u) << "evicted cost is refunded";
  EXPECT_EQ(V->Entries, 0u);
  EXPECT_EQ(V->Evictions, 1u);
  EXPECT_EQ(S->BytesLive, 4000u);
}

//===--- Serial vs parallel tallies ---------------------------------------===//

/// One tenant's deterministic workload over its own key range: I inserts
/// followed by one find per key (each find is a hit). Key spaces are
/// disjoint across tenants so the expected tallies compose exactly.
void tallyWorkload(const std::string &Tenant, uint64_t KeyBase,
                   unsigned Inserts) {
  cache::ScopedTenant Scope(Tenant);
  for (unsigned I = 0; I < Inserts; ++I)
    cache::putModule(KeyBase + I, tinyFn("w"), 100);
  for (unsigned I = 0; I < Inserts; ++I)
    if (!cache::findModule(KeyBase + I))
      ADD_FAILURE() << "unbounded cache lost " << Tenant << " key " << I;
}

TEST_F(CodeCacheTest, SerialAndParallelRunsTallyIdentically) {
  constexpr unsigned Tenants = 8;
  constexpr unsigned Inserts = 50;

  // Serial reference run under the "s<i>" tenant names.
  for (unsigned T = 0; T < Tenants; ++T)
    tallyWorkload("s" + std::to_string(T), 1000 * T, Inserts);
  cache::Stats Serial = cache::stats();

  // Same workload under real threads and the "p<i>" names. Lifetime
  // tenant counters survive clear() by design, so fresh names keep the
  // comparison honest.
  cache::clear();
  cache::resetStats();
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Tenants; ++T)
    Threads.emplace_back(
        [T] { tallyWorkload("p" + std::to_string(T), 1000 * T, Inserts); });
  for (std::thread &Th : Threads)
    Th.join();
  cache::Stats Parallel = cache::stats();

  EXPECT_EQ(Serial.ModuleMisses, Parallel.ModuleMisses);
  EXPECT_EQ(Serial.ModuleHits, Parallel.ModuleHits);
  EXPECT_EQ(Serial.BytesLive, Parallel.BytesLive);
  EXPECT_EQ(Serial.Evictions, Parallel.Evictions);

  auto All = cache::tenantStats();
  for (unsigned T = 0; T < Tenants; ++T) {
    const cache::TenantStats *SL = lineFor(All, "s" + std::to_string(T));
    const cache::TenantStats *PL = lineFor(All, "p" + std::to_string(T));
    ASSERT_NE(SL, nullptr);
    ASSERT_NE(PL, nullptr);
    EXPECT_EQ(SL->Insertions, PL->Insertions);
    EXPECT_EQ(PL->BytesLive, 100u * Inserts);
    EXPECT_EQ(PL->Entries, Inserts);
  }
}

TEST_F(CodeCacheTest, BoundHoldsUnderParallelChurn) {
  constexpr size_t Capacity = 64 * 1024;
  cache::setCapacity(Capacity);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 8; ++T)
    Threads.emplace_back([T] {
      cache::ScopedTenant Scope("churn-" + std::to_string(T));
      for (uint64_t I = 0; I < 300; ++I) {
        uint64_t Key = (uint64_t(T) << 32) | I;
        cache::putModule(Key, tinyFn("c"), 512 + (I % 7) * 768);
        cache::findModule(Key);
        cache::findModule((uint64_t(T) << 32) | (I / 2)); // Mix recency.
      }
    });
  for (std::thread &Th : Threads)
    Th.join();

  cache::Stats S = cache::stats();
  EXPECT_LE(S.BytesLive, Capacity) << "the bound is a hard invariant";
  EXPECT_GT(S.Evictions, 0u) << "churn at 8x capacity must evict";

  // The per-tenant residency ledger must agree with the global one.
  uint64_t TenantSum = 0;
  for (const cache::TenantStats &T : cache::tenantStats())
    TenantSum += T.BytesLive;
  EXPECT_EQ(TenantSum, S.BytesLive);
}

TEST_F(CodeCacheTest, ClearKeepsLifetimeCountersDropsResidency) {
  cache::setCapacity(1000);
  cache::putModule(1, tinyFn("a"), 800);
  cache::putModule(2, tinyFn("b"), 800); // Evicts 1.
  EXPECT_EQ(cache::stats().Evictions, 1u);
  cache::clear();
  cache::Stats S = cache::stats();
  EXPECT_EQ(S.BytesLive, 0u);
  EXPECT_EQ(S.Evictions, 1u) << "clear() is not an eviction";
  EXPECT_EQ(cache::findModule(2), nullptr);
}

//===--- Module hash ------------------------------------------------------===//

TEST_F(CodeCacheTest, ModuleMemoKeepsTheFunctionHash) {
  const kernels::Kernel K = kernels::kernelByName("saxpy_fp");
  std::vector<uint8_t> Bytes = bytecode::encode(K.Source);
  auto Decoded = bytecode::decode(Bytes);
  ASSERT_TRUE(Decoded);
  const uint64_t Want = ir::hashFunction(*Decoded);
  uint64_t Put = 0, Found = 0;
  auto M = cache::putModule(9, Decoded.take(), Bytes.size(), &Put);
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(Put, Want);
  EXPECT_EQ(ir::hashFunction(*M), Want);
  ASSERT_NE(cache::findModule(9, &Found), nullptr);
  EXPECT_EQ(Found, Want);
}

//===--- Elision-plan memo ------------------------------------------------===//

/// A plan whose cost is dominated by one \p Bytes-long decision line.
target::ElisionPlan planOfSize(size_t Bytes) {
  target::ElisionPlan P;
  P.Mode = target::ElisionMode::On;
  P.Decisions.push_back(std::string(Bytes, 'd'));
  return P;
}

TEST_F(CodeCacheTest, PlanMemoHitsMissesAndClear) {
  EXPECT_EQ(cache::findPlan(5), nullptr);
  auto P = cache::putPlan(5, planOfSize(10));
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(cache::findPlan(5), P) << "a hit shares the inserted plan";
  cache::Stats S = cache::stats();
  EXPECT_EQ(S.PlanMisses, 1u);
  EXPECT_EQ(S.PlanHits, 1u);
  cache::clear();
  EXPECT_EQ(cache::findPlan(5), nullptr) << "clear() drops plans";
}

TEST_F(CodeCacheTest, PlanEntriesShareTheRecencyListAndTenantLedger) {
  cache::setCapacity(3000);
  {
    cache::ScopedTenant T("planner");
    cache::putPlan(5, planOfSize(1000));
  }
  auto All = cache::tenantStats();
  const cache::TenantStats *L = lineFor(All, "planner");
  ASSERT_NE(L, nullptr);
  EXPECT_EQ(L->Entries, 1u);
  EXPECT_GE(L->BytesLive, 1000u) << "the plan's decisions are its cost";
  EXPECT_EQ(cache::stats().BytesLive, L->BytesLive);

  cache::putModule(1, tinyFn("a"), 2500); // Evicts the cold plan.
  EXPECT_EQ(cache::findPlan(5), nullptr);
  EXPECT_EQ(cache::stats().Evictions, 1u);
  All = cache::tenantStats();
  L = lineFor(All, "planner");
  ASSERT_NE(L, nullptr);
  EXPECT_EQ(L->BytesLive, 0u);
  EXPECT_EQ(L->Evictions, 1u);
}

TEST_F(CodeCacheTest, OversizedPlanIsServedButNeverResident) {
  cache::setCapacity(500);
  auto P = cache::putPlan(5, planOfSize(4000));
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->Decisions.front().size(), 4000u);
  EXPECT_EQ(cache::findPlan(5), nullptr);
  EXPECT_LE(cache::stats().BytesLive, 500u);
}

TEST_F(CodeCacheTest, PlanKeyCoversEveryIngredient) {
  const kernels::Kernel K = kernels::kernelByName("saxpy_fp");
  target::MemoryImage Aligned, Shifted;
  for (const ir::ArrayInfo &A : K.Source.Arrays) {
    Aligned.addArray(A, 0);
    Shifted.addArray(A, 8);
  }
  const target::TargetDesc Sse = target::sseTarget();
  const ParamBindings Params = {{"n", false, 512, 0}, {"alpha", true, 0, 2}};
  const auto On = target::ElisionMode::On;
  const uint64_t Base = cache::planKey(1, Sse, Aligned, On, Params);
  EXPECT_EQ(cache::planKey(1, Sse, Aligned, On, Params), Base);

  EXPECT_NE(cache::planKey(2, Sse, Aligned, On, Params), Base) << "function";
  EXPECT_NE(cache::planKey(1, target::avxTarget(), Aligned, On, Params), Base)
      << "target";
  EXPECT_NE(cache::planKey(1, Sse, Shifted, On, Params), Base) << "placement";
  EXPECT_NE(cache::planKey(1, Sse, Aligned, target::ElisionMode::Audit,
                           Params),
            Base)
      << "mode";
  ParamBindings Other = Params;
  Other[0].Int = 256;
  EXPECT_NE(cache::planKey(1, Sse, Aligned, On, Other), Base)
      << "integer value";
  Other = Params;
  Other[0].Name = "m";
  EXPECT_NE(cache::planKey(1, Sse, Aligned, On, Other), Base)
      << "integer name";
  // Float values never reach the bounds evaluator: no key field.
  Other = Params;
  Other[1].FP = 3;
  EXPECT_EQ(cache::planKey(1, Sse, Aligned, On, Other), Base);
}

} // namespace

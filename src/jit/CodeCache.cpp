//===- jit/CodeCache.cpp - Content-addressed online-stage cache -------------===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//

#include "jit/CodeCache.h"

#include "obs/Obs.h"
#include "support/FaultInject.h"

#include <atomic>
#include <algorithm>
#include <list>
#include <map>
#include <mutex>
#include <unordered_map>

using namespace vapor;
using namespace vapor::jit;
using namespace vapor::jit::cache;

namespace {

constexpr uint64_t FnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t FnvPrime = 0x100000001b3ULL;

/// Which of the six maps an LRU node's key lives in (eviction needs to
/// erase from the right one).
enum class EKind : uint8_t { Module, Verify, Compile, Plan, Program, Native };

/// One node of the unified recency list: enough to erase the entry and
/// refund its charge when it falls off the cold end.
struct LruNode {
  EKind Kind;
  uint64_t Key;
  size_t Cost;
  std::string Tenant;
};
using LruList = std::list<LruNode>;
using LruIt = LruList::iterator;

/// Map values wrap the artifact with its recency-list position so finds
/// can splice to the hot end and evictions can refund the exact charge.
template <typename T> struct Entry {
  T Value;
  LruIt It;
};

struct TenantUsage {
  uint64_t BytesLive = 0;
  uint64_t Entries = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;
};

/// A decoded module with its ir::hashFunction, hashed once at insertion.
struct ModuleEntry {
  std::shared_ptr<const ir::Function> Fn;
  uint64_t FnHash = 0;
};

/// One mutex-guarded store for all six maps plus the recency list and
/// the capacity accounting: lookups are a hash plus a map probe, far off
/// any per-dispatch hot path, so a single lock is simpler than six and
/// contention is irrelevant at sweep granularity.
struct Store {
  std::mutex Mu;
  std::unordered_map<uint64_t, Entry<ModuleEntry>> Modules;
  std::unordered_map<uint64_t, Entry<VerifyResult>> Verifies;
  std::unordered_map<uint64_t, Entry<std::shared_ptr<const CompileResult>>>
      Compiles;
  std::unordered_map<uint64_t,
                     Entry<std::shared_ptr<const target::ElisionPlan>>>
      Plans;
  std::unordered_map<uint64_t,
                     Entry<std::shared_ptr<const target::DecodedProgram>>>
      Programs;
  std::unordered_map<uint64_t,
                     Entry<std::shared_ptr<const codegen::NativeUnit>>>
      Natives;

  LruList Lru;            ///< Front = most recently used.
  size_t BytesLive = 0;   ///< Sum of resident entry costs.
  size_t Capacity = 0;    ///< 0 = unbounded.
  std::map<std::string, TenantUsage> Tenants;
};

Store &store() {
  static Store S;
  return S;
}

/// Hit/miss tallies live outside the store mutex as relaxed atomics:
/// they feed obs::Counter-style metrics and stats() must be readable
/// without taking the cache lock. A stats() snapshot concurrent with
/// lookups may be mid-update across fields; per-field totals are exact.
struct AtomicStats {
  std::atomic<uint64_t> ModuleHits{0}, ModuleMisses{0};
  std::atomic<uint64_t> VerifyHits{0}, VerifyMisses{0};
  std::atomic<uint64_t> CompileHits{0}, CompileMisses{0};
  std::atomic<uint64_t> ProgramHits{0}, ProgramMisses{0};
  std::atomic<uint64_t> NativeHits{0}, NativeMisses{0};
  std::atomic<uint64_t> PlanHits{0}, PlanMisses{0};
  std::atomic<uint64_t> Evictions{0};
  std::atomic<uint64_t> BytesLive{0}; ///< Mirror of Store::BytesLive.
  std::atomic<uint64_t> Capacity{0};  ///< Mirror of Store::Capacity.
};

AtomicStats &counts() {
  static AtomicStats C;
  return C;
}

/// Bumps one cache tally and mirrors it into the named obs counter.
void bump(std::atomic<uint64_t> &Slot, obs::Counter &Obs) {
  Slot.fetch_add(1, std::memory_order_relaxed);
  Obs.add(1);
}

std::atomic<bool> GlobalSwitch{true};

/// The thread's ambient tenant attribution (empty = anonymous).
thread_local std::string CurrentTenantName;

//===--- Approximate entry costs ------------------------------------------===//
// Coarse but monotone-in-reality byte estimates; the bound is a memory
// *budget*, not an allocator audit, so each entry pays its dominant
// arrays plus a fixed overhead for the map/list/node bookkeeping.

constexpr size_t EntryOverhead = 256;

size_t costModule(const ir::Function &F) {
  size_t C = EntryOverhead + F.Name.size();
  C += F.Arrays.size() * 64;
  return C + 1024; // Body shape unknown here; callers pass encoded size.
}

size_t costVerify(const VerifyResult &R) {
  return EntryOverhead + R.Report.size() + (R.Cert ? 4096 : 0);
}

size_t costCompile(const CompileResult &R) {
  return EntryOverhead + R.Code.Instrs.size() * sizeof(target::MInstr) +
         R.Code.Regs.size() * sizeof(target::MRegInfo) +
         R.ScalarizeReason.size();
}

size_t costPlan(const target::ElisionPlan &P) {
  size_t C = EntryOverhead + P.Proven.size() + P.CheckerError.size();
  for (const std::string &D : P.Decisions)
    C += D.size();
  return C;
}

size_t costProgram(const target::DecodedProgram &P) {
  return EntryOverhead +
         P.Code.size() * sizeof(target::DecodedProgram::DOp) +
         P.AuxLanes.size() * sizeof(uint32_t) +
         P.OrigIndex.size() * sizeof(uint32_t);
}

size_t costNative(const codegen::NativeUnit &U) {
  return EntryOverhead + U.Stats.CodeBytes +
         U.Shims.size() * sizeof(codegen::NOp);
}

/// Entries stay resident for as long as the cache keeps them, so they are
/// stored at exact size: the builders grow their arrays by push_back, and
/// a moved-in artifact would keep that slack (about a quarter of a compile
/// result's bytes). Copying trims every nested array; it runs on insertion
/// only, i.e. on a miss, never on a warm run.
template <typename T> std::shared_ptr<const T> compact(const T &V) {
  return std::make_shared<const T>(V);
}

//===--- LRU plumbing (all called under Store::Mu) ------------------------===//

void touch(Store &S, LruIt It) {
  if (It != S.Lru.begin())
    S.Lru.splice(S.Lru.begin(), S.Lru, It);
}

/// Erases the map entry a cold-end node points at. The artifact itself
/// survives through any shared_ptrs already handed out.
void eraseEntry(Store &S, const LruNode &N) {
  switch (N.Kind) {
  case EKind::Module:
    S.Modules.erase(N.Key);
    break;
  case EKind::Verify:
    S.Verifies.erase(N.Key);
    break;
  case EKind::Compile:
    S.Compiles.erase(N.Key);
    break;
  case EKind::Plan:
    S.Plans.erase(N.Key);
    break;
  case EKind::Program:
    S.Programs.erase(N.Key);
    break;
  case EKind::Native:
    S.Natives.erase(N.Key);
    break;
  }
}

/// Evicts from the cold end until BytesLive is under the capacity.
/// No-op with capacity 0. Maintains the per-tenant refunds and the
/// eviction tallies (obs + atomic stats).
void evictOverCapacity(Store &S) {
  if (S.Capacity == 0)
    return;
  static obs::Counter Evicted("cache.evictions");
  while (S.BytesLive > S.Capacity && !S.Lru.empty()) {
    const LruNode &N = S.Lru.back();
    eraseEntry(S, N);
    S.BytesLive -= std::min(S.BytesLive, N.Cost);
    TenantUsage &T = S.Tenants[N.Tenant];
    T.BytesLive -= std::min(T.BytesLive, static_cast<uint64_t>(N.Cost));
    if (T.Entries)
      --T.Entries;
    ++T.Evictions;
    S.Lru.pop_back();
    bump(counts().Evictions, Evicted);
  }
  counts().BytesLive.store(S.BytesLive, std::memory_order_relaxed);
}

/// Charges a fresh insertion: pushes the hot-end node, attributes the
/// cost to the calling thread's tenant, then enforces the bound.
/// \returns the node's iterator for the map entry.
LruIt charge(Store &S, EKind Kind, uint64_t Key, size_t Cost) {
  S.Lru.push_front(LruNode{Kind, Key, Cost, CurrentTenantName});
  S.BytesLive += Cost;
  TenantUsage &T = S.Tenants[CurrentTenantName];
  T.BytesLive += Cost;
  ++T.Entries;
  ++T.Insertions;
  counts().BytesLive.store(S.BytesLive, std::memory_order_relaxed);
  return S.Lru.begin();
}

} // namespace

bool cache::enabled() {
  return GlobalSwitch.load(std::memory_order_relaxed) &&
         !faultinject::controller().Active;
}

bool cache::setEnabled(bool On) {
  return GlobalSwitch.exchange(On, std::memory_order_relaxed);
}

namespace {
/// Bumped by every clear(). The tiering engine stamps demotion pins with
/// the generation they were recorded under; a pin from an older
/// generation has expired ("pinned below the failing tier until cache
/// invalidation"), and cached-artifact readiness expires with it.
std::atomic<uint64_t> Generation{1};
} // namespace

uint64_t cache::generation() {
  return Generation.load(std::memory_order_acquire);
}

void cache::clear() {
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  Generation.fetch_add(1, std::memory_order_acq_rel);
  S.Modules.clear();
  S.Verifies.clear();
  S.Compiles.clear();
  S.Plans.clear();
  S.Programs.clear();
  S.Natives.clear();
  S.Lru.clear();
  S.BytesLive = 0;
  counts().BytesLive.store(0, std::memory_order_relaxed);
  // Residency resets; lifetime insert/evict tallies survive (clear() is
  // not an eviction).
  for (auto &KV : S.Tenants) {
    KV.second.BytesLive = 0;
    KV.second.Entries = 0;
  }
}

size_t cache::setCapacity(size_t Bytes) {
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  size_t Prev = S.Capacity;
  S.Capacity = Bytes;
  counts().Capacity.store(Bytes, std::memory_order_relaxed);
  evictOverCapacity(S); // Shrinking evicts immediately.
  return Prev;
}

size_t cache::capacity() {
  return counts().Capacity.load(std::memory_order_relaxed);
}

std::vector<TenantStats> cache::tenantStats() {
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  std::vector<TenantStats> Out;
  Out.reserve(S.Tenants.size());
  for (const auto &KV : S.Tenants)
    Out.push_back({KV.first, KV.second.BytesLive, KV.second.Entries,
                   KV.second.Insertions, KV.second.Evictions});
  return Out; // std::map iteration is already name-sorted.
}

bool cache::forgetTenant(const std::string &Tenant) {
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  auto It = S.Tenants.find(Tenant);
  if (It == S.Tenants.end())
    return true;
  if (It->second.BytesLive != 0 || It->second.Entries != 0)
    return false; // Still resident: the eviction refund needs the line.
  S.Tenants.erase(It);
  return true;
}

const std::string &cache::currentTenant() { return CurrentTenantName; }

cache::ScopedTenant::ScopedTenant(std::string Name)
    : Prev(std::move(CurrentTenantName)) {
  CurrentTenantName = std::move(Name);
}

cache::ScopedTenant::~ScopedTenant() { CurrentTenantName = std::move(Prev); }

Stats cache::stats() {
  AtomicStats &C = counts();
  Stats S;
  S.ModuleHits = C.ModuleHits.load(std::memory_order_relaxed);
  S.ModuleMisses = C.ModuleMisses.load(std::memory_order_relaxed);
  S.VerifyHits = C.VerifyHits.load(std::memory_order_relaxed);
  S.VerifyMisses = C.VerifyMisses.load(std::memory_order_relaxed);
  S.CompileHits = C.CompileHits.load(std::memory_order_relaxed);
  S.CompileMisses = C.CompileMisses.load(std::memory_order_relaxed);
  S.ProgramHits = C.ProgramHits.load(std::memory_order_relaxed);
  S.ProgramMisses = C.ProgramMisses.load(std::memory_order_relaxed);
  S.NativeHits = C.NativeHits.load(std::memory_order_relaxed);
  S.NativeMisses = C.NativeMisses.load(std::memory_order_relaxed);
  S.PlanHits = C.PlanHits.load(std::memory_order_relaxed);
  S.PlanMisses = C.PlanMisses.load(std::memory_order_relaxed);
  S.Evictions = C.Evictions.load(std::memory_order_relaxed);
  S.BytesLive = C.BytesLive.load(std::memory_order_relaxed);
  S.CapacityBytes = C.Capacity.load(std::memory_order_relaxed);
  return S;
}

void cache::resetStats() {
  AtomicStats &C = counts();
  C.ModuleHits = 0;
  C.ModuleMisses = 0;
  C.VerifyHits = 0;
  C.VerifyMisses = 0;
  C.CompileHits = 0;
  C.CompileMisses = 0;
  C.ProgramHits = 0;
  C.ProgramMisses = 0;
  C.NativeHits = 0;
  C.NativeMisses = 0;
  C.PlanHits = 0;
  C.PlanMisses = 0;
  C.Evictions = 0;
  // BytesLive/Capacity are state mirrors, not tallies: they survive.
}

uint64_t cache::hashBytes(const void *Data, size_t Len, uint64_t Seed) {
  uint64_t H = Seed ^ FnvOffset;
  const uint8_t *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= FnvPrime;
  }
  return H;
}

uint64_t cache::hashCombine(uint64_t Seed, uint64_t W) {
  uint64_t H = Seed;
  for (int I = 0; I < 8; ++I) {
    H ^= (W >> (I * 8)) & 0xff;
    H *= FnvPrime;
  }
  return H;
}

uint64_t cache::hashTarget(const target::TargetDesc &T) {
  uint64_t H = hashBytes(T.Name.data(), T.Name.size(), 0x7a67);
  H = hashCombine(H, T.VSBytes);
  H = hashCombine(H, (uint64_t(T.HasMisaligned) << 3) |
                         (uint64_t(T.HasPermRealign) << 2) |
                         (uint64_t(T.LibFallbackForOps) << 1) |
                         uint64_t(T.X87ScalarFP));
  H = hashCombine(H, (uint64_t(T.ScalarRegs) << 32) | T.VectorRegs);
  H = hashCombine(H, T.UnsupportedKindMask);
  H = hashCombine(H, T.UnsupportedOpMask);
  const target::CostTable &C = T.Costs;
  const unsigned Cs[] = {C.RegOp,      C.AddrOp,    C.IntOp,     C.FpOp,
                         C.X87Op,      C.DivOp,     C.ConvertOp, C.ScalarLoad,
                         C.ScalarStore, C.VecLoadA, C.VecLoadU,  C.VecStoreA,
                         C.VecStoreU,  C.Shuffle,   C.WideMul,   C.DotOp,
                         C.ReduceOp,   C.SpillOp,   C.LibCall,   C.LoopIter};
  for (unsigned V : Cs)
    H = hashCombine(H, V);
  return H;
}

uint64_t cache::hashOptions(const Options &O) {
  return hashCombine(0x6f70, (uint64_t(O.CompilerTier == Tier::Weak) << 3) |
                                 (uint64_t(O.FoldAddressing) << 2) |
                                 (uint64_t(O.PromoteAccumulators) << 1) |
                                 uint64_t(O.ForceScalarize));
}

uint64_t cache::hashRuntime(const RuntimeInfo &RT) {
  uint64_t H = hashCombine(0x7274, RT.Arrays.size());
  for (const RuntimeInfo::ArrayRT &A : RT.Arrays) {
    H = hashCombine(H, A.KnownBase);
    H = hashCombine(H, A.Base);
  }
  return H;
}

uint64_t cache::hashPlacement(const target::MemoryImage &Image) {
  uint64_t H = hashCombine(0x706c, Image.arrayCount());
  for (uint32_t A = 0; A < Image.arrayCount(); ++A) {
    const ir::ArrayInfo &AI = Image.info(A);
    H = hashCombine(H, static_cast<uint64_t>(AI.Elem));
    H = hashCombine(H, AI.NumElems);
    H = hashCombine(H, Image.base(A));
  }
  H = hashCombine(H, Image.highAddr());
  return H;
}

uint64_t cache::compileKey(uint64_t FnHash, const target::TargetDesc &T,
                           const Options &O, const RuntimeInfo &RT) {
  uint64_t H = hashCombine(0x636b, FnHash);
  H = hashCombine(H, hashTarget(T));
  H = hashCombine(H, hashOptions(O));
  H = hashCombine(H, hashRuntime(RT));
  return H;
}

std::shared_ptr<const ir::Function> cache::findModule(uint64_t BytesHash,
                                                      uint64_t *FnHash) {
  static obs::Counter Hits("cache.module_hits"),
      Misses("cache.module_misses");
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  auto It = S.Modules.find(BytesHash);
  if (It == S.Modules.end()) {
    bump(counts().ModuleMisses, Misses);
    return nullptr;
  }
  touch(S, It->second.It);
  bump(counts().ModuleHits, Hits);
  if (FnHash)
    *FnHash = It->second.Value.FnHash;
  return It->second.Value.Fn;
}

std::shared_ptr<const ir::Function>
cache::putModule(uint64_t BytesHash, ir::Function Module, size_t Cost,
                 uint64_t *FnHash) {
  if (Cost == 0)
    Cost = costModule(Module);
  ModuleEntry M;
  M.FnHash = ir::hashFunction(Module);
  M.Fn = compact(Module);
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  // First writer wins: under the thread pool two workers may decode the
  // same bytes concurrently; both results are identical, keep one.
  auto It = S.Modules.find(BytesHash);
  if (It != S.Modules.end()) {
    touch(S, It->second.It);
    M = It->second.Value;
  } else {
    LruIt N = charge(S, EKind::Module, BytesHash, Cost);
    auto &E = S.Modules[BytesHash];
    E.Value = M;
    E.It = N;
    // M keeps the artifact: an entry costlier than the whole capacity is
    // evicted immediately (served but never resident), which erases the
    // map node `E` refers into.
    evictOverCapacity(S);
  }
  if (FnHash)
    *FnHash = M.FnHash;
  return M.Fn;
}

std::optional<VerifyResult> cache::findVerify(uint64_t FnHash,
                                              uint64_t TargetHash) {
  uint64_t Key = hashCombine(hashCombine(0x7666, FnHash), TargetHash);
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  static obs::Counter Hits("cache.verify_hits"),
      Misses("cache.verify_misses");
  auto It = S.Verifies.find(Key);
  if (It == S.Verifies.end()) {
    bump(counts().VerifyMisses, Misses);
    return std::nullopt;
  }
  touch(S, It->second.It);
  bump(counts().VerifyHits, Hits);
  return It->second.Value;
}

void cache::putVerify(uint64_t FnHash, uint64_t TargetHash, VerifyResult R) {
  uint64_t Key = hashCombine(hashCombine(0x7666, FnHash), TargetHash);
  size_t Cost = costVerify(R);
  if (R.Cert)
    R.Cert = compact(*R.Cert);
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  auto It = S.Verifies.find(Key);
  if (It != S.Verifies.end()) {
    touch(S, It->second.It);
    return;
  }
  LruIt N = charge(S, EKind::Verify, Key, Cost);
  auto &E = S.Verifies[Key];
  E.Value = std::move(R);
  E.It = N;
  evictOverCapacity(S);
}

std::shared_ptr<const CompileResult> cache::findCompile(uint64_t Key) {
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  static obs::Counter Hits("cache.compile_hits"),
      Misses("cache.compile_misses");
  auto It = S.Compiles.find(Key);
  if (It == S.Compiles.end()) {
    bump(counts().CompileMisses, Misses);
    return nullptr;
  }
  touch(S, It->second.It);
  bump(counts().CompileHits, Hits);
  return It->second.Value;
}

std::shared_ptr<const CompileResult> cache::putCompile(uint64_t Key,
                                                       CompileResult R) {
  size_t Cost = costCompile(R);
  auto P = compact(R);
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  auto It = S.Compiles.find(Key);
  if (It != S.Compiles.end()) {
    touch(S, It->second.It);
    return It->second.Value;
  }
  LruIt N = charge(S, EKind::Compile, Key, Cost);
  auto &E = S.Compiles[Key];
  E.Value = std::move(P);
  E.It = N;
  // As in putModule: eviction may erase this very entry (oversized
  // case), so copy out before enforcing the bound.
  auto Ret = E.Value;
  evictOverCapacity(S);
  return Ret;
}

uint64_t cache::planKey(uint64_t FnHash, const target::TargetDesc &T,
                        const target::MemoryImage &Image,
                        target::ElisionMode Mode,
                        const ParamBindings &Params) {
  uint64_t H = hashCombine(0x706e, FnHash);
  H = hashCombine(H, hashTarget(T));
  H = hashCombine(H, hashPlacement(Image));
  H = hashCombine(H, static_cast<uint64_t>(Mode));
  for (const ParamBinding &P : Params) {
    if (P.IsFP)
      continue;
    H = hashBytes(P.Name.data(), P.Name.size(), H);
    H = hashCombine(H, static_cast<uint64_t>(P.Int));
  }
  return H;
}

std::shared_ptr<const target::ElisionPlan> cache::findPlan(uint64_t Key) {
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  static obs::Counter Hits("cache.plan_hits"), Misses("cache.plan_misses");
  auto It = S.Plans.find(Key);
  if (It == S.Plans.end()) {
    bump(counts().PlanMisses, Misses);
    return nullptr;
  }
  touch(S, It->second.It);
  bump(counts().PlanHits, Hits);
  return It->second.Value;
}

std::shared_ptr<const target::ElisionPlan>
cache::putPlan(uint64_t Key, target::ElisionPlan P) {
  size_t Cost = costPlan(P);
  auto Ptr = compact(P);
  Store &S = store();
  std::lock_guard<std::mutex> L(S.Mu);
  auto It = S.Plans.find(Key);
  if (It != S.Plans.end()) {
    touch(S, It->second.It);
    return It->second.Value;
  }
  LruIt N = charge(S, EKind::Plan, Key, Cost);
  auto &E = S.Plans[Key];
  E.Value = Ptr;
  E.It = N;
  // Ptr keeps the artifact: eviction may erase this very entry
  // (oversized case).
  evictOverCapacity(S);
  return Ptr;
}

namespace {

/// Key contribution of an elision plan. Null and Off-mode plans hash
/// alike (both decode/compile to the unelided artifact).
uint64_t grantKey(const target::ElisionPlan *Plan) {
  if (!Plan || Plan->Mode == target::ElisionMode::Off)
    return 0;
  return cache::hashCombine(static_cast<uint64_t>(Plan->Mode), Plan->Hash);
}

} // namespace

std::shared_ptr<const target::DecodedProgram>
cache::programFor(uint64_t CompKey, const target::MFunction &Code,
                  const target::TargetDesc &T,
                  const target::MemoryImage &Image, bool Weak, bool Fuse,
                  const target::ElisionPlan *Plan) {
  uint64_t Key = hashCombine(0x7067, CompKey);
  Key = hashCombine(Key, hashPlacement(Image));
  Key = hashCombine(Key, (uint64_t(Weak) << 1) | uint64_t(Fuse));
  Key = hashCombine(Key, grantKey(Plan));
  static obs::Counter Hits("cache.program_hits"),
      Misses("cache.program_misses");
  Store &S = store();
  {
    std::lock_guard<std::mutex> L(S.Mu);
    auto It = S.Programs.find(Key);
    if (It != S.Programs.end()) {
      touch(S, It->second.It);
      bump(counts().ProgramHits, Hits);
      return It->second.Value;
    }
    bump(counts().ProgramMisses, Misses);
  }
  // Build outside the lock (decode+fusion is the expensive part); ties
  // between concurrent builders of the same key resolve first-writer-wins
  // and the artifacts are identical anyway.
  auto P = target::DecodedProgram::build(Code, T, Image, Weak, Fuse, Plan);
  size_t Cost = costProgram(*P);
  std::lock_guard<std::mutex> L(S.Mu);
  auto It = S.Programs.find(Key);
  if (It != S.Programs.end()) {
    touch(S, It->second.It);
    return It->second.Value;
  }
  LruIt N = charge(S, EKind::Program, Key, Cost);
  auto &E = S.Programs[Key];
  E.Value = std::move(P);
  E.It = N;
  // As in putModule: eviction may erase this very entry (oversized
  // case), so copy out before enforcing the bound.
  auto Ret = E.Value;
  evictOverCapacity(S);
  return Ret;
}

Expected<std::shared_ptr<const codegen::NativeUnit>>
cache::nativeFor(uint64_t CompKey, const target::MFunction &Code,
                 const target::TargetDesc &T,
                 const target::MemoryImage &Image,
                 const codegen::NativeOptions &NO) {
  // The unit bakes array base addresses (placement) and its encodings
  // depend on the feature mask, so both join the key alongside the
  // compile key that already covers function/target/options/runtime.
  uint64_t Key = hashCombine(0x6e76, CompKey);
  Key = hashCombine(Key, hashPlacement(Image));
  Key = hashCombine(Key, NO.Features.bits());
  Key = hashCombine(Key, grantKey(NO.Plan));
  static obs::Counter Hits("cache.native_hits"),
      Misses("cache.native_misses");
  Store &S = store();
  {
    std::lock_guard<std::mutex> L(S.Mu);
    auto It = S.Natives.find(Key);
    if (It != S.Natives.end()) {
      touch(S, It->second.It);
      bump(counts().NativeHits, Hits);
      return Expected<std::shared_ptr<const codegen::NativeUnit>>(
          It->second.Value);
    }
    bump(counts().NativeMisses, Misses);
  }
  // Compile outside the lock; first writer wins as with programFor.
  auto R = codegen::compileNative(Code, T, Image, NO);
  if (!R.ok())
    return R;
  std::shared_ptr<const codegen::NativeUnit> U = R.take();
  size_t Cost = costNative(*U);
  std::lock_guard<std::mutex> L(S.Mu);
  auto It = S.Natives.find(Key);
  if (It != S.Natives.end()) {
    touch(S, It->second.It);
    return Expected<std::shared_ptr<const codegen::NativeUnit>>(
        It->second.Value);
  }
  LruIt N = charge(S, EKind::Native, Key, Cost);
  auto &E = S.Natives[Key];
  E.Value = std::move(U);
  E.It = N;
  // As in putModule: eviction may erase this very entry (oversized
  // case), so copy out before enforcing the bound.
  auto Ret = E.Value;
  evictOverCapacity(S);
  return Expected<std::shared_ptr<const codegen::NativeUnit>>(
      std::move(Ret));
}

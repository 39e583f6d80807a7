//===- jit/CodeCache.h - Content-addressed online-stage cache --*- C++ -*-===//
//
// Part of the Vapor SIMD reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide content-addressed cache for every deterministic product
/// of the online stage. The bench sweeps, the parallel crashtest driver
/// and the execution service run the same (kernel, target, placement)
/// cell over and over; each cell's decode, verify, JIT lowering, elision
/// plan, VM pre-decode+fusion and native emit are pure functions of their
/// inputs, so the cache memoizes all six:
///
///   module   key = hash(encoded bytecode bytes)
///            -> the decoded ir::Function and its ir::hashFunction,
///               computed once at insertion;
///   verify   key = (ir::hashFunction, target hash)
///            -> the verifier's verdict, rendered report and certificate;
///   compile  key = (ir::hashFunction, target hash, jit::Options hash,
///                   RuntimeInfo hash)
///            -> the CompileResult (machine code, scalarization info and
///               the static loop report);
///   plan     key = (ir::hashFunction, target hash, placement hash,
///                   elision mode, integer parameter bindings)
///            -> the checked target::ElisionPlan (the certificate it
///               replays is the verify memo's under the same function x
///               target, so it needs no key field of its own);
///   program  key = (compile key, placement hash, weak-tier, fuse, plan)
///            -> the VM's immutable DecodedProgram, shared by every VM
///               that runs that code against that placement;
///   native   key = (compile key, placement hash, feature mask, plan)
///            -> the host x86-64 NativeUnit.
///
/// A warm invocation therefore does only layout, fill and execute.
///
/// Keys are structural hashes of VALUES only -- no pointers -- so a hit
/// is exactly "same bytes in, same artifact out", and results are
/// identical whether the sweep runs serial or across the thread pool.
///
/// The cache stands down (enabled() == false) whenever this thread's
/// fault-injection controller is active: instrumented runs must actually
/// execute every stage so site counters stay deterministic, and a result
/// produced under an injected fault must never be memoized. This keeps
/// the crashtest's fault counts bit-identical with the cache compiled in.
///
/// All entries are immutable once inserted and handed out as
/// shared_ptr-to-const; a mutex guards the maps, so sweep workers share
/// one cache safely.
///
//===----------------------------------------------------------------------===//

#ifndef VAPOR_JIT_CODECACHE_H
#define VAPOR_JIT_CODECACHE_H

#include "analysis/Certificate.h"
#include "codegen/NativeJit.h"
#include "jit/Elision.h"
#include "jit/Jit.h"
#include "target/VM.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace vapor {
namespace jit {
namespace cache {

/// Whether lookups/insertions are live: the global switch (on by
/// default) AND no active fault-injection controller on this thread.
bool enabled();

/// Flips the global switch. \returns the previous value. Benches use
/// this to measure cold compiles; tests use it to force both paths.
bool setEnabled(bool On);

/// Drops every entry (all six maps), the LRU list, and the live-byte
/// charges (global and per-tenant). Entries already handed out stay
/// alive through their shared_ptrs. Eviction/insertion counters keep
/// their totals (clear() is not an eviction).
void clear();

/// Monotonic invalidation generation: starts at 1 and is bumped by every
/// clear(). The tiering engine (jit/Tiering.h) stamps its promotion
/// state and demotion pins with this, so a full cache invalidation also
/// expires "function is ready at tier X" claims and "never re-promote
/// into tier Y" pins -- both describe artifacts/failures of the cleared
/// generation.
uint64_t generation();

struct Stats {
  uint64_t ModuleHits = 0, ModuleMisses = 0;
  uint64_t VerifyHits = 0, VerifyMisses = 0;
  uint64_t CompileHits = 0, CompileMisses = 0;
  uint64_t ProgramHits = 0, ProgramMisses = 0;
  uint64_t NativeHits = 0, NativeMisses = 0;
  uint64_t PlanHits = 0, PlanMisses = 0;
  /// Memory-bound telemetry (capacity-driven LRU eviction; see
  /// setCapacity). BytesLive counts the approximate cost of resident
  /// entries; Evictions counts entries dropped to stay under the bound.
  uint64_t Evictions = 0;
  uint64_t BytesLive = 0;
  uint64_t CapacityBytes = 0; ///< 0 = unbounded.
};
Stats stats();
void resetStats();

//===--- Memory bound + cost-aware LRU ------------------------------------===//
//
// Every entry carries an approximate byte cost (machine-code bytes,
// decoded-op array sizes, report lengths -- see the cost functions in
// CodeCache.cpp). With a nonzero capacity the cache maintains one
// recency list across all six maps and evicts from the cold end,
// cheapest-to-keep last: a find refreshes recency, an insert charges its
// cost and then evicts least-recently-used entries (of any kind) until
// the total is back under the bound. Capacity 0 (the default) disables
// eviction entirely and is byte-identical to the unbounded cache.
//
// The invariant with a nonzero capacity is BytesLive <= CapacityBytes at
// every return -- an entry larger than the whole capacity is evicted
// immediately after insertion (its caller keeps it via the returned
// shared_ptr; it is simply never resident).

/// Sets the total-cost budget in approximate bytes (0 = unbounded) and
/// \returns the previous capacity. Shrinking evicts immediately.
size_t setCapacity(size_t Bytes);
size_t capacity();

//===--- Per-tenant accounting --------------------------------------------===//
//
// The execution service attributes cache residency to the tenant whose
// request inserted each entry. Attribution is ambient (a thread-local
// tenant name) so the six insert paths need no signature change; the
// empty name is the anonymous/default tenant every non-server caller
// charges to.

struct TenantStats {
  std::string Tenant;
  uint64_t BytesLive = 0;   ///< Resident cost attributed to this tenant.
  uint64_t Entries = 0;     ///< Resident entry count.
  uint64_t Insertions = 0;  ///< Lifetime inserts attributed.
  uint64_t Evictions = 0;   ///< Lifetime evictions of this tenant's entries.
};
/// Snapshot of every tenant ever charged, sorted by name.
std::vector<TenantStats> tenantStats();

/// Drops \p Tenant's accounting line (lifetime tallies included) iff it
/// has no resident bytes or entries; \returns true when the line is
/// gone (or never existed). The execution service retires idle tenants
/// through this so the per-tenant map stays bounded when hostile
/// clients invent unique tenant names.
bool forgetTenant(const std::string &Tenant);

/// The tenant name new insertions are attributed to on this thread.
const std::string &currentTenant();

/// RAII tenant attribution: sets the thread's tenant for the scope,
/// restoring the previous one (scopes nest).
class ScopedTenant {
public:
  explicit ScopedTenant(std::string Name);
  ~ScopedTenant();
  ScopedTenant(const ScopedTenant &) = delete;
  ScopedTenant &operator=(const ScopedTenant &) = delete;

private:
  std::string Prev;
};

//===--- Key ingredients --------------------------------------------------===//
// Combine with ir::hashFunction(F) (Function.h). Every hash covers all
// semantically relevant fields of its input; none reads a pointer.

/// FNV-1a over \p Len raw bytes, folded into \p Seed.
uint64_t hashBytes(const void *Data, size_t Len, uint64_t Seed = 0);

/// Hash of everything the JIT and VM read from a TargetDesc (name,
/// widths, feature flags, register counts, legality masks, cost table).
uint64_t hashTarget(const target::TargetDesc &T);

/// Hash of the jit::Options knobs (tier, codegen profile, forced
/// scalarization).
uint64_t hashOptions(const Options &O);

/// Hash of what the JIT knows about the runtime (per-array known-base
/// flag and base address).
uint64_t hashRuntime(const RuntimeInfo &RT);

/// Hash of \p Image's placement: per-array element kind, length, and
/// resolved base address, plus the image bounds. Two images with equal
/// placement hashes can share one DecodedProgram (its baked bases are
/// valid for both).
uint64_t hashPlacement(const target::MemoryImage &Image);

/// Folds \p W into \p Seed (same mixing as hashBytes).
uint64_t hashCombine(uint64_t Seed, uint64_t W);

//===--- Module (decode) memo ---------------------------------------------===//

/// \returns the cached module for \p BytesHash, or null. On a hit, \p
/// FnHash (when given) receives the module's ir::hashFunction.
std::shared_ptr<const ir::Function> findModule(uint64_t BytesHash,
                                               uint64_t *FnHash = nullptr);
/// Inserts (first writer wins) and \returns the cached module. \p Cost
/// is the entry's approximate byte cost for the capacity bound; 0 asks
/// the cache to estimate from the function's shape (callers that know
/// the encoded size should pass it -- it is the honest decode cost). The
/// module's ir::hashFunction is computed here, once per entry, and
/// written to \p FnHash when given.
std::shared_ptr<const ir::Function>
putModule(uint64_t BytesHash, ir::Function Module, size_t Cost = 0,
          uint64_t *FnHash = nullptr);

//===--- Verify memo ------------------------------------------------------===//

struct VerifyResult {
  bool Ok = false;
  std::string Report; ///< Rendered findings (empty when Ok).
  /// The per-target safety certificate the verifier emitted (null when
  /// it proved nothing). Cached alongside the verdict so elision plans
  /// can be rebuilt per placement without re-running the verifier.
  std::shared_ptr<const analysis::SafetyCertificate> Cert;
};
std::optional<VerifyResult> findVerify(uint64_t FnHash, uint64_t TargetHash);
void putVerify(uint64_t FnHash, uint64_t TargetHash, VerifyResult R);

//===--- Compile memo -----------------------------------------------------===//

/// The full compile key for (\p FnHash, target \p T, options \p O,
/// runtime \p RT). Also the prefix of the program key.
uint64_t compileKey(uint64_t FnHash, const target::TargetDesc &T,
                    const Options &O, const RuntimeInfo &RT);

std::shared_ptr<const CompileResult> findCompile(uint64_t Key);
std::shared_ptr<const CompileResult> putCompile(uint64_t Key,
                                                CompileResult R);

//===--- Elision-plan memo ------------------------------------------------===//

/// The plan key: everything jit::buildElisionPlan reads besides the
/// certificate -- the function (\p FnHash), target \p T, \p Image's
/// placement, \p Mode, and each integer binding in \p Params (name and
/// value; float bindings never reach the bounds evaluator).
uint64_t planKey(uint64_t FnHash, const target::TargetDesc &T,
                 const target::MemoryImage &Image, target::ElisionMode Mode,
                 const ParamBindings &Params);

std::shared_ptr<const target::ElisionPlan> findPlan(uint64_t Key);
std::shared_ptr<const target::ElisionPlan> putPlan(uint64_t Key,
                                                   target::ElisionPlan P);

//===--- Decoded-program memo ---------------------------------------------===//

/// Looks up the pre-decoded (and fused) program for \p CompKey's machine
/// code at \p Image's placement; on miss builds it with
/// target::DecodedProgram::build and memoizes. Never returns null. The
/// elision plan (mode + grant hash) joins the key: decoded check states
/// are baked into the program.
std::shared_ptr<const target::DecodedProgram>
programFor(uint64_t CompKey, const target::MFunction &Code,
           const target::TargetDesc &T, const target::MemoryImage &Image,
           bool Weak, bool Fuse, const target::ElisionPlan *Plan = nullptr);

//===--- Native-unit memo -------------------------------------------------===//

/// Looks up the native compilation of \p CompKey's machine code for \p
/// Image's placement under \p NO's encoding set; on miss runs
/// codegen::compileNative and memoizes the unit. Only successful compiles
/// are cached -- a failing Status is returned uncached so the executor's
/// demotion path re-evaluates it every attempt (the failure may be
/// environmental, e.g. page allocation).
Expected<std::shared_ptr<const codegen::NativeUnit>>
nativeFor(uint64_t CompKey, const target::MFunction &Code,
          const target::TargetDesc &T, const target::MemoryImage &Image,
          const codegen::NativeOptions &NO);

} // namespace cache
} // namespace jit
} // namespace vapor

#endif // VAPOR_JIT_CODECACHE_H

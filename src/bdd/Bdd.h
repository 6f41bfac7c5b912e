//===- Bdd.h - Reduced ordered binary decision diagrams ---------*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch shared-node ROBDD package. This stands in for the BDD
/// engine inside MUCKE (the paper's fixed-point solver) and provides the
/// complete operation set the symbolic algorithms need:
///
///   - apply (and / or / xor), negation, if-then-else
///   - existential and universal quantification over interned cubes
///   - the and-exists relational product (the image-computation workhorse)
///   - Coudert–Madre generalized cofactors (`constrain` and `restrict`)
///     for care-set minimization of relational-product operands
///   - variable renaming via interned permutations (with a fast path for
///     order-preserving permutations)
///   - sat-counting, support computation, dag-size counting, evaluation
///
/// Memory is managed with external reference counts held by the RAII `Bdd`
/// handle plus a mark-and-sweep collector that runs only at operation entry
/// (never mid-recursion), so internal intermediate results are always safe.
///
/// Storage is fitted to the solve rather than configured for it. The node
/// table, its reference counts and the unique table live in anonymous
/// mappings that reserve address space for the whole 2^27-node index range
/// up front; the kernel faults pages in as the tables grow, so growth never
/// copies and never holds an old and a new table at once. The computed
/// cache starts at the configured size and doubles itself while the work
/// overwrites it several times over (after CUDD's cache-resize policy,
/// Somenzi, "CUDD: CU Decision Diagram Package").
///
/// Variable index == variable order level; the symbolic layer computes a
/// good static order up front (as Getafix does) instead of reordering
/// dynamically.
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_BDD_BDD_H
#define GETAFIX_BDD_BDD_H

#include "support/ResourceGovernor.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

namespace getafix {

class BddManager;

/// Handle to an interned quantification cube (a set of variables).
struct BddCube {
  uint32_t Id = UINT32_MAX;
  bool isValid() const { return Id != UINT32_MAX; }
};

/// Handle to an interned variable permutation.
struct BddPerm {
  uint32_t Id = UINT32_MAX;
  bool isValid() const { return Id != UINT32_MAX; }
};

/// The cached BDD operations, in computed-cache tag order. Public so the
/// per-op cache counters in `BddStats` can be indexed and named by
/// callers (`getafix --stats`, the benchmark drivers).
enum class BddOp : uint32_t {
  And = 0,
  Or,
  Xor,
  Not,
  Ite,
  Exists,
  AndExists,
  Rename,
  Frontier,
  Constrain,
  Restrict,
};

constexpr unsigned NumBddOps = 11;

/// Short stable name for \p Op ("And", "AndExists", ...).
const char *bddOpName(BddOp Op);

/// RAII handle to a BDD node. Copyable; keeps the node (and everything it
/// reaches) alive across garbage collections.
class Bdd {
public:
  Bdd() = default;
  Bdd(const Bdd &Other);
  Bdd(Bdd &&Other) noexcept;
  Bdd &operator=(const Bdd &Other);
  Bdd &operator=(Bdd &&Other) noexcept;
  ~Bdd();

  bool isNull() const { return Mgr == nullptr; }
  bool isZero() const;
  bool isOne() const;
  bool isConst() const { return isZero() || isOne(); }

  /// Structural equality: canonicity makes this semantic equivalence.
  bool operator==(const Bdd &Other) const {
    return Mgr == Other.Mgr && Idx == Other.Idx;
  }
  bool operator!=(const Bdd &Other) const { return !(*this == Other); }

  Bdd operator&(const Bdd &Other) const;
  Bdd operator|(const Bdd &Other) const;
  Bdd operator^(const Bdd &Other) const;
  Bdd operator!() const;
  Bdd &operator&=(const Bdd &Other) { return *this = *this & Other; }
  Bdd &operator|=(const Bdd &Other) { return *this = *this | Other; }
  Bdd &operator^=(const Bdd &Other) { return *this = *this ^ Other; }

  /// Boolean implication: (!*this) | Other.
  Bdd implies(const Bdd &Other) const { return (!*this) | Other; }
  /// Boolean equivalence: !(*this ^ Other).
  Bdd iff(const Bdd &Other) const { return !(*this ^ Other); }

  /// If-then-else with *this as the condition.
  Bdd ite(const Bdd &Then, const Bdd &Else) const;

  /// Existentially quantifies the variables of \p Cube.
  Bdd exists(BddCube Cube) const;
  /// Universally quantifies the variables of \p Cube.
  Bdd forall(BddCube Cube) const;
  /// Computes exists Cube. (*this & Other) without building the conjunction.
  Bdd andExists(const Bdd &Other, BddCube Cube) const;
  /// Renames variables according to the interned permutation.
  Bdd permute(BddPerm Perm) const;
  /// Cofactor: substitutes the constant \p Value for variable \p Var.
  Bdd restrict(unsigned Var, bool Value) const;
  /// Coudert–Madre generalized cofactor `*this ↓ Care`: agrees with *this
  /// everywhere Care holds, and maps every assignment outside Care to the
  /// closest (in the variable order's branch metric) assignment inside it.
  /// The defining identity is `f.constrain(c) & c == f & c`, so conjoining
  /// the result against the care set is always exact; the point is that
  /// `f ↓ c` is usually much smaller than `f` when `c` is narrow. Requires
  /// a non-zero care set. Note the result's support may *grow* beyond
  /// `f`'s (the cost of maximal simplification).
  Bdd constrain(const Bdd &Care) const;
  /// Coudert–Madre restrict: like `constrain`, but care-set variables
  /// above `f`'s top variable are existentially dropped instead of pulled
  /// into the result, so `support(f.restrict(c)) ⊆ support(f)`. Satisfies
  /// the same identity `f.restrict(c) & c == f & c`; simplifies less than
  /// `constrain` but never blows up the support. Requires a non-zero care
  /// set.
  Bdd restrict(const Bdd &Care) const;
  /// A don't-care-minimized frontier: some set R with
  /// `*this \ Old ⊆ R ⊆ *this`, chosen to be structurally small (shared
  /// subgraphs of the two operands are pruned to the empty set wholesale,
  /// and subgraphs where \p Old is empty are returned as-is rather than
  /// rebuilt). Fixpoint engines use this instead of an exact set
  /// difference: joining already-known tuples again is harmless under
  /// union accumulation, while the exact difference of two similar BDDs
  /// is often *larger* than either operand.
  Bdd frontier(const Bdd &Old) const;

  /// Number of satisfying assignments over \p NumVars variables.
  double satCount(unsigned NumVars) const;
  /// Number of distinct nodes in this BDD's dag (terminals excluded).
  size_t nodeCount() const;
  /// Sorted list of variables this function depends on.
  std::vector<unsigned> support() const;
  /// Evaluates under a total assignment (indexed by variable).
  bool eval(const std::vector<bool> &Assignment) const;
  /// One satisfying partial assignment: -1 don't-care, 0 false, 1 true.
  /// Requires a non-zero BDD.
  std::vector<int8_t> onePath() const;

  BddManager *manager() const { return Mgr; }
  uint32_t rawIndex() const { return Idx; }

private:
  friend class BddManager;
  friend class BddImporter;
  Bdd(BddManager *Mgr, uint32_t Idx);

  BddManager *Mgr = nullptr;
  uint32_t Idx = 0;
};

/// Operation counters for benchmarking and regression tests.
struct BddStats {
  uint64_t CacheLookups = 0; ///< Aggregate over all ops.
  uint64_t CacheHits = 0;    ///< Aggregate over all ops.
  /// Per-operation computed-cache probe/hit counters, indexed by `BddOp`.
  /// `CacheLookups`/`CacheHits` stay the running totals so existing
  /// consumers keep working; these split the same events by operation.
  uint64_t OpLookups[NumBddOps] = {};
  uint64_t OpHits[NumBddOps] = {};
  uint64_t NodesCreated = 0;
  uint64_t GcRuns = 0;
  uint64_t GcReclaimed = 0;
  /// Computed-cache resizes: growth under overwrite pressure and releases
  /// by `clearComputedCache`.
  uint64_t CacheResizes = 0;
  size_t LiveNodes = 0;
  size_t PeakNodes = 0;
  size_t CacheSlots = 0; ///< Gauge: computed-cache slots allocated now.

  /// Accumulates \p Other into *this: counters are summed, and the gauges
  /// (LiveNodes, PeakNodes, CacheSlots) are summed too — merging per-worker
  /// managers reports the *total* footprint across managers, which is the
  /// number a memory budget cares about (the per-manager peaks need not
  /// have coincided, so the sum is an upper bound on the simultaneous
  /// peak).
  void merge(const BddStats &Other) {
    CacheLookups += Other.CacheLookups;
    CacheHits += Other.CacheHits;
    for (unsigned I = 0; I < NumBddOps; ++I) {
      OpLookups[I] += Other.OpLookups[I];
      OpHits[I] += Other.OpHits[I];
    }
    NodesCreated += Other.NodesCreated;
    GcRuns += Other.GcRuns;
    GcReclaimed += Other.GcReclaimed;
    CacheResizes += Other.CacheResizes;
    LiveNodes += Other.LiveNodes;
    PeakNodes += Other.PeakNodes;
    CacheSlots += Other.CacheSlots;
  }

  /// Allocations: nodes created plus cache resizes. A manager's memory
  /// can only have grown when this moved.
  uint64_t allocations() const { return NodesCreated + CacheResizes; }

  /// The counter delta `*this - Before` for the monotonically increasing
  /// counters; gauges (LiveNodes, PeakNodes, CacheSlots) keep this
  /// snapshot's values.
  /// Query sessions report per-query work on a shared manager this way.
  BddStats since(const BddStats &Before) const {
    BddStats D = *this;
    D.CacheLookups -= Before.CacheLookups;
    D.CacheHits -= Before.CacheHits;
    for (unsigned I = 0; I < NumBddOps; ++I) {
      D.OpLookups[I] -= Before.OpLookups[I];
      D.OpHits[I] -= Before.OpHits[I];
    }
    D.NodesCreated -= Before.NodesCreated;
    D.GcRuns -= Before.GcRuns;
    D.GcReclaimed -= Before.GcReclaimed;
    D.CacheResizes -= Before.CacheResizes;
    return D;
  }
};

/// Owns the shared node table, the unique table, and the computed cache.
class BddManager {
public:
  /// \p CacheBits selects the computed cache's *starting* size, 2^CacheBits
  /// entries total; the cache grows from there with the work (see
  /// `cacheSlots()`). It is organized as a set-associative cache of
  /// \p CacheWays ways per bucket
  /// (power of two; 1 = direct-mapped, 4 = the default). Buckets age by
  /// transposition promotion: new entries enter the back (probation) way,
  /// a hit moves its entry one way toward the front, and insertion
  /// replaces the back way (or a generation-stale one). Re-used results
  /// therefore survive conflict pressure instead of being evicted by
  /// whatever hashed onto their slot last — the direct-mapped failure
  /// mode that cost heavy solves a round's working set per round.
  explicit BddManager(unsigned NumVars = 0, unsigned CacheBits = 18,
                      unsigned CacheWays = 4);
  ~BddManager();

  BddManager(const BddManager &) = delete;
  BddManager &operator=(const BddManager &) = delete;

  /// Appends a fresh variable at the bottom of the order; returns its index.
  unsigned newVar();
  unsigned numVars() const { return NumVars; }

  Bdd zero() { return Bdd(this, 0); }
  Bdd one() { return Bdd(this, 1); }
  /// The literal for variable \p Var (must be < numVars()).
  Bdd var(unsigned Var);
  /// The negative literal for variable \p Var.
  Bdd nvar(unsigned Var);

  /// Interns a quantification cube. Variables may be unsorted; duplicates
  /// are ignored. Equal sets share one id.
  BddCube makeCube(const std::vector<unsigned> &Vars);
  /// Interns a permutation given as (from, to) pairs. Unlisted variables map
  /// to themselves. Both sides must be duplicate-free.
  BddPerm makePermutation(
      const std::vector<std::pair<unsigned, unsigned>> &Pairs);

  /// Conjunction of positive literals of the cube's variables.
  Bdd cubeBdd(BddCube Cube);

  /// Runs mark-and-sweep now. Only call between operations (the public
  /// operation entry points do this automatically when the table grows).
  void gc();

  /// Sets the live-node threshold that triggers automatic gc at operation
  /// entry. Zero disables automatic collection.
  void setGcThreshold(size_t Nodes) { GcThreshold = Nodes; }
  /// The current automatic-gc threshold (collection runs may have raised
  /// it past the configured value). Per-worker managers of a parallel
  /// solve are sized from the main manager's knobs via this getter.
  size_t gcThreshold() const { return GcThreshold; }

  /// Number of computed-cache slots allocated right now. The cache starts
  /// at 2^CacheBits and doubles at a check (every 2^16 inserts, sooner for
  /// tiny caches) when it has been overwritten four times over since the
  /// last resize and the node table holds more nodes than it has slots,
  /// up to 2^22 slots (or the starting size, if that is larger);
  /// `clearComputedCache` releases it to a small floor, and a released
  /// cache returns to its starting size at the first check under load.
  /// Callers that adapt their algorithms to cache pressure read this once
  /// per solve; it is not stable across operations, so a thread that
  /// does not own the manager must not read it (use `startCacheBits()`).
  size_t cacheSlots() const { return CacheSlots; }
  /// The configured starting size: the cache began at 2^startCacheBits()
  /// slots. Fixed for the manager's lifetime, so any thread may read it.
  unsigned startCacheBits() const { return StartCacheBits; }
  /// Associativity of the computed cache (ways per bucket).
  unsigned cacheWays() const { return CacheWays; }

  /// Installs (or, with null, removes) a resource governor. `makeNode`
  /// then probes it every `probePeriod()` calls — charging the batch to
  /// the governor's shared node counter and throwing `ResourceInterrupt`
  /// when a deadline, node budget, or cancel flag has tripped. A throw
  /// from `makeNode` is safe: the manager's structures are consistent at
  /// every makeNode entry and GC never runs mid-recursion, so any partial
  /// operation's nodes are simply unreferenced garbage for the next
  /// collection. With no governor the probe is one compare of a zero
  /// counter per call.
  void setGovernor(support::ResourceGovernor *G) {
    Gov = G;
    GovCountdown = G ? G->probePeriod() : 0;
    GovLastCharged = Stats.NodesCreated;
  }
  support::ResourceGovernor *governor() const { return Gov; }

  /// Deterministic fault injection: the \p K-th allocation from now (and
  /// every allocation after it) throws `std::bad_alloc`, emulating memory
  /// exhaustion at an exact, reproducible point. Node slots and computed-
  /// cache arrays count alike, so a drill can land inside a cache resize;
  /// a failed growth propagates (the manager keeps its old cache), while
  /// a failed release inside `clearComputedCache` is absorbed. 0 disarms.
  /// Also armed at construction from the environment variable
  /// `GETAFIX_FAULT_ALLOC_AFTER=K` so whole-process fault drills (the CI
  /// daemon smoke) need no code changes.
  void setFailAfterAllocations(uint64_t K) {
    FaultFailAfter = K;
    FaultAllocs = 0;
  }

  /// Invalidates every computed-cache entry and releases the cache's
  /// storage down to a small floor (2^10 slots, or the starting size if
  /// that is smaller), so a memory budget that clears a session's cache
  /// gets the memory back. The floor array is allocated before the old
  /// one is freed; if that allocation fails the cache keeps its size
  /// and is only invalidated (a generation bump), so this never throws.
  /// Results computed before and after are identical; a later workload
  /// regrows the cache under the usual policy.
  void clearComputedCache();

  /// Counter snapshot. The hot path maintains only the per-op cache
  /// counters; the aggregate CacheLookups/CacheHits are summed here.
  BddStats stats() const {
    BddStats S = Stats;
    for (unsigned I = 0; I < NumBddOps; ++I) {
      S.CacheLookups += S.OpLookups[I];
      S.CacheHits += S.OpHits[I];
    }
    return S;
  }
  size_t liveNodeCount() const;

  /// Number of nodes reachable from external references right now — the
  /// count `gc()` would leave behind, computed by a mark-only pass with
  /// no sweep, no free-list churn, and no cache invalidation.
  /// `liveNodeCount()` also counts garbage that merely awaits the next
  /// collection, which badly inflates long-lived sessions whose
  /// automatic-gc threshold is never reached; resident-memory gauges
  /// should use this instead. Costs a mark pass over the node table —
  /// call it at query boundaries, not per operation.
  size_t reachableNodeCount() const;

  /// Estimated bytes of this manager's live working set: live nodes times
  /// their storage share (node record + external refcount + unique table
  /// bucket) plus the computed cache exactly as allocated now — a cache
  /// released by `clearComputedCache` counts at its floor, a grown one at
  /// its full size. An estimate, not RSS: free-listed node slots and the
  /// interned cube/permutation tables are deliberately ignored.
  size_t memoryEstimate() const {
    return liveNodeCount() * BytesPerNode + CacheSlots * sizeof(CacheEntry);
  }

  /// `memoryEstimate` computed over `reachableNodeCount()` instead of
  /// `liveNodeCount()`: uncollected garbage is excluded, so this is the
  /// number a session memory budget should charge.
  size_t reachableMemoryEstimate() const {
    return reachableNodeCount() * BytesPerNode +
           CacheSlots * sizeof(CacheEntry);
  }

private:
  friend class Bdd;

  struct Node {
    uint32_t Var;
    uint32_t Low;
    uint32_t High;
    uint32_t Next; ///< Unique-table chain.
  };

  /// An anonymous private memory mapping, unmapped on destruction. Pages
  /// are zero until written and cost nothing until touched, so a mapping
  /// can reserve far more address space than it will use.
  class Mapping {
  public:
    /// Maps \p Bytes; throws `std::bad_alloc` when the kernel refuses.
    explicit Mapping(size_t Bytes);
    Mapping(const Mapping &) = delete;
    Mapping &operator=(const Mapping &) = delete;
    ~Mapping();
    void *data() const { return Base; }

  private:
    void *Base;
    size_t Bytes;
  };

  using Op = BddOp;

  /// One computed-cache entry, packed to 16 bytes so a 4-way bucket is
  /// exactly one 64-byte cache line (the probe path is memory-bound; a
  /// wider entry made every bucket scan touch two lines and cost more
  /// than the associativity saved). Node/cube/perm indices realistically
  /// stay far below 2^27 (2 GB of node table); keys mentioning larger
  /// indices are simply not cached, which frees the top 5 bits of each
  /// operand word: W0 carries the op tag, W1/W2 carry the 10-bit cache
  /// generation. An entry is valid only when its generation matches the
  /// manager's — comparing the packed words checks operands, op, and
  /// generation in the same three compares the unpacked layout needed.
  struct CacheEntry {
    uint32_t W0 = 0; ///< F | op << IdxBits.
    uint32_t W1 = 0; ///< G | (gen & 31) << IdxBits.
    uint32_t W2 = 0; ///< H | (gen >> 5) << IdxBits; H is the third
                     ///< operand (ite) or cube/perm id.
    uint32_t Result = 0;
  };

  static constexpr unsigned IdxBits = 27;
  static constexpr uint32_t IdxMask = (1u << IdxBits) - 1;
  static constexpr uint32_t GenPeriod = 1u << 10; ///< 5+5 stolen bits.

  /// Node slots the node table reserves: the packed cache index range.
  static constexpr size_t MaxNodes = size_t(1) << IdxBits;
  /// Unique-table buckets reserved: the table doubles past 3/4 load, so
  /// MaxNodes live nodes need at most twice as many buckets.
  static constexpr size_t MaxBuckets = MaxNodes * 2;
  /// Storage share of one node: record, external refcount, and a bucket.
  static constexpr size_t BytesPerNode =
      sizeof(Node) + 2 * sizeof(uint32_t);

  /// Growth ceiling (unless the starting size is larger) and release floor
  /// of the computed cache, in slots; and the insert period at which the
  /// growth rule is checked.
  static constexpr unsigned CacheMaxBits = 22;
  static constexpr unsigned CacheFloorBits = 10;
  static constexpr uint64_t CacheCheckPeriod = uint64_t(1) << 16;

  struct CubeSet {
    std::vector<unsigned> Vars;   ///< Sorted.
    std::vector<uint8_t> InCube;  ///< Indexed by variable.
    unsigned MinVar = UINT32_MAX; ///< Smallest quantified variable.
  };

  struct PermSet {
    std::vector<uint32_t> Map; ///< Indexed by variable; identity elsewhere.
    bool Monotone = false;     ///< Globally order-preserving.
  };

  static constexpr uint32_t TermVar = UINT32_MAX;
  static constexpr uint32_t Invalid = UINT32_MAX;

  // Node access -----------------------------------------------------------
  uint32_t varOf(uint32_t N) const { return Nodes[N].Var; }
  uint32_t lowOf(uint32_t N) const { return Nodes[N].Low; }
  uint32_t highOf(uint32_t N) const { return Nodes[N].High; }
  bool isTerminal(uint32_t N) const { return N <= 1; }

  uint32_t makeNode(uint32_t Var, uint32_t Low, uint32_t High);
  uint32_t allocNode();
  /// Counts one allocation against an armed fault drill and throws
  /// `std::bad_alloc` when the drill's count is reached.
  void faultPoint() {
    if (FaultFailAfter != 0 && ++FaultAllocs >= FaultFailAfter)
      throw std::bad_alloc();
  }
  /// Re-arms the probe countdown and forwards the elapsed batch to the
  /// governor (which throws `ResourceInterrupt` on a tripped limit).
  void pollGovernor();
  void growUniqueTable();
  /// Rebuilds the unique-table chains of every used node slot over the
  /// first \p NewBuckets buckets (a power of two).
  void rehashUniqueTable(size_t NewBuckets);
  static uint64_t hashTriple(uint32_t A, uint32_t B, uint32_t C);

  // Computed cache --------------------------------------------------------
  bool cacheLookup(Op O, uint32_t F, uint32_t G, uint32_t H, uint32_t &Out);
  void cacheInsert(Op O, uint32_t F, uint32_t G, uint32_t H, uint32_t R);
  void clearCache();
  /// Applies the growth rule at a check point (see `cacheSlots()`).
  void maybeGrowCache();
  /// Resizes the cache to \p NewSlots slots; growth carries the current
  /// generation's entries over. Any new array is allocated before the old
  /// one is freed: on `bad_alloc` the manager keeps its old cache
  /// untouched.
  void resizeCache(size_t NewSlots);
  /// Inserts the current-generation entries among \p Count entries at
  /// \p From into the cache array at \p To, bucketed under \p Mask.
  void placeEntries(const CacheEntry *From, size_t Count, CacheEntry *To,
                    uint64_t Mask);
  static uint64_t cacheHash(Op O, uint32_t F, uint32_t G, uint32_t H) {
    return hashTriple(F, G, H) ^ (uint64_t(O) * 0x9e3779b9u);
  }

  // Recursive cores (raw indices; never trigger gc) ------------------------
  uint32_t applyRec(Op O, uint32_t F, uint32_t G);
  uint32_t notRec(uint32_t F);
  uint32_t iteRec(uint32_t F, uint32_t G, uint32_t H);
  uint32_t existsRec(uint32_t F, uint32_t CubeId);
  uint32_t andExistsRec(uint32_t F, uint32_t G, uint32_t CubeId);
  uint32_t renameRec(uint32_t F, uint32_t PermId);
  uint32_t frontierRec(uint32_t F, uint32_t G);
  uint32_t constrainRec(uint32_t F, uint32_t C);
  uint32_t restrictRec(uint32_t F, uint32_t C);

  void maybeGc();
  /// Mark phase shared by `gc()` and `reachableNodeCount()`: a byte per
  /// node slot, 1 where the node is reachable from an external reference
  /// (terminals included).
  std::vector<uint8_t> markReachable() const;
  void ref(uint32_t N);
  void deref(uint32_t N);

  // Data ------------------------------------------------------------------
  /// Reservations for the node table, its refcounts and the unique table
  /// (see the file comment); the pointers below index into them.
  Mapping NodeMem, RefMem, BucketMem;
  Node *Nodes = nullptr;
  uint32_t *ExtRefs = nullptr; ///< Parallel to Nodes.
  uint32_t *Buckets = nullptr; ///< Unique table; power-of-two size.
  size_t NumNodes = 0;         ///< Node slots in use (free-listed included).
  size_t NumBuckets = 0;
  uint32_t FreeList = Invalid; ///< Chained through Node::Low.
  size_t NumFree = 0;
  unsigned NumVars = 0;

  /// The cache array lives in one of two places. Up to the starting size
  /// it is heap memory: the allocator hands a short-lived manager's array
  /// to the next manager already faulted in, where a fresh mapping pays a
  /// page fault per 4 KB (about 2 us on a 4-CPU VM: 2 ms per manager for
  /// a default cache). The heap array is over-allocated by up to one
  /// bucket so `CacheBase` can sit on a 64-byte boundary — `operator new`
  /// only guarantees 16 bytes, and a misaligned 4-way bucket straddles
  /// two cache lines, which measurably slows the (memory-bound) probe
  /// path. A grown cache moves into a mapping that reserves its whole
  /// growth range (page-aligned) and doubles in place there, so a growth
  /// step never holds two arrays (one step from 2^21 to 2^22 slots used
  /// to add a 32 MB transient at a heavy solve's peak); unmapping it on
  /// release returns it to the system at once, where the heap would keep
  /// it resident. Either way, zeroed entries read as empty (no
  /// generation is ever 0).
  std::vector<CacheEntry> CacheHeap;
  std::unique_ptr<Mapping> CacheMap;
  CacheEntry *CacheBase = nullptr; ///< 64-byte-aligned first bucket.
  size_t CacheSlots = 0;        ///< Usable entries: a power of two.
  uint64_t CacheBucketMask = 0; ///< Bucket index mask (buckets × ways = size).
  const unsigned StartCacheBits;
  const unsigned CacheWays;
  uint32_t CacheGeneration = 1; ///< Entries with an older gen are empty.
  uint64_t CacheInserts = 0;    ///< Since the last resize.

  std::vector<CubeSet> Cubes;
  std::vector<PermSet> Perms;

  size_t GcThreshold = 1u << 22;
  BddStats Stats;

  /// Resource governance: probe every `Gov->probePeriod()` makeNode calls.
  /// `GovCountdown == 0` means "no governor" so the ungoverned hot path
  /// pays one compare, never a decrement.
  support::ResourceGovernor *Gov = nullptr;
  uint32_t GovCountdown = 0;
  uint64_t GovLastCharged = 0; ///< NodesCreated at the previous poll.

  /// Fault injection (deterministic alloc-failure drills); 0 = disarmed.
  uint64_t FaultFailAfter = 0;
  uint64_t FaultAllocs = 0;

  friend class BddImporter;
};

/// Cached cross-manager import: copies BDDs from one manager into another
/// that shares the same variable order (variable index == level in both).
/// This is the translation layer under the parallel SCC scheduler's
/// per-worker managers — a worker solves its SCC in isolation, then its
/// relation values are imported into the main manager, where canonicity
/// makes them bit-identical to the BDDs a sequential solve would have
/// built (the imported function is the same, the order is the same, and a
/// ROBDD is unique for a function and an order).
///
/// The memo maps source node index -> destination *handle*: every
/// destination node an import built stays externally referenced for the
/// importer's lifetime, so destination GC can never invalidate an entry.
/// Source-side validity is generation-checked instead: a source GC may
/// free and later reuse node indices, so the whole memo is dropped
/// whenever the source manager's collection count changes.
///
/// Thread discipline: an importer (and both its managers) must be
/// externally synchronized — the parallel scheduler serializes every
/// main-manager touch (imports of inputs, exports of solved SCCs) behind
/// one mutex, while worker managers are only ever touched by the worker
/// that owns them.
class BddImporter {
public:
  BddImporter(BddManager &Src, BddManager &Dst) : Src(Src), Dst(Dst) {
    assert(&Src != &Dst && "importing within one manager is the identity");
    assert(Src.numVars() <= Dst.numVars() &&
           "destination must know every source variable");
  }

  /// Copies \p F (a BDD of the source manager) into the destination
  /// manager; null imports as null.
  Bdd import(const Bdd &F);

  /// Memoized translations currently held (and kept alive in the
  /// destination).
  size_t memoSize() const { return Memo.size(); }
  void clear() { Memo.clear(); }

  /// Cumulative count of source nodes translated into the destination over
  /// the importer's lifetime (memo hits are free and not counted). This is
  /// the per-node cost of crossing the manager boundary; the parallel
  /// evaluator samples it to report import overhead.
  uint64_t translations() const { return NumTranslations; }

private:
  uint32_t importRec(uint32_t N);

  BddManager &Src;
  BddManager &Dst;
  std::unordered_map<uint32_t, Bdd> Memo;
  uint64_t SrcGcRuns = 0;
  uint64_t NumTranslations = 0;
};

} // namespace getafix

#endif // GETAFIX_BDD_BDD_H

//===- BddTest.cpp - BDD package tests ------------------------------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "bdd/Bdd.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

using namespace getafix;

namespace {

/// A brute-force boolean function over N variables: 2^N truth-table bits.
class TruthTable {
public:
  explicit TruthTable(unsigned NumVars, uint64_t Bits = 0)
      : NumVars(NumVars), Bits(Bits) {
    assert(NumVars <= 6 && "truth table capped at 6 vars");
  }

  static TruthTable var(unsigned NumVars, unsigned V) {
    TruthTable T(NumVars);
    for (unsigned Row = 0; Row < (1u << NumVars); ++Row)
      if ((Row >> V) & 1)
        T.Bits |= uint64_t(1) << Row;
    return T;
  }

  bool eval(unsigned Row) const { return (Bits >> Row) & 1; }
  unsigned rows() const { return 1u << NumVars; }

  TruthTable operator&(const TruthTable &O) const {
    return TruthTable(NumVars, Bits & O.Bits);
  }
  TruthTable operator|(const TruthTable &O) const {
    return TruthTable(NumVars, Bits | O.Bits);
  }
  TruthTable operator^(const TruthTable &O) const {
    return TruthTable(NumVars, Bits ^ O.Bits);
  }
  TruthTable operator!() const {
    uint64_t Mask = rows() == 64 ? ~uint64_t(0)
                                 : ((uint64_t(1) << rows()) - 1);
    return TruthTable(NumVars, ~Bits & Mask);
  }

  TruthTable exists(unsigned V) const {
    TruthTable R(NumVars);
    for (unsigned Row = 0; Row < rows(); ++Row) {
      unsigned Lo = Row & ~(1u << V), Hi = Row | (1u << V);
      if (eval(Lo) || eval(Hi))
        R.Bits |= uint64_t(1) << Row;
    }
    return R;
  }

  unsigned NumVars;
  uint64_t Bits;
};

/// Checks that a BDD and a truth table agree on every assignment.
void expectEqual(const Bdd &B, const TruthTable &T, const char *What) {
  for (unsigned Row = 0; Row < T.rows(); ++Row) {
    std::vector<bool> Assignment(T.NumVars);
    for (unsigned V = 0; V < T.NumVars; ++V)
      Assignment[V] = (Row >> V) & 1;
    ASSERT_EQ(B.eval(Assignment), T.eval(Row))
        << What << " differs on row " << Row;
  }
}

/// Builds a random (Bdd, TruthTable) pair over NumVars variables.
std::pair<Bdd, TruthTable> randomFunction(BddManager &Mgr, Rng &R,
                                          unsigned NumVars, unsigned Ops) {
  Bdd B = R.flip() ? Mgr.one() : Mgr.zero();
  TruthTable T(NumVars, B.isOne() ? ~uint64_t(0) >> (64 - (1u << NumVars))
                                  : 0);
  for (unsigned I = 0; I < Ops; ++I) {
    unsigned V = unsigned(R.below(NumVars));
    Bdd Lit = Mgr.var(V);
    TruthTable LitT = TruthTable::var(NumVars, V);
    switch (R.below(3)) {
    case 0:
      B = B & Lit;
      T = T & LitT;
      break;
    case 1:
      B = B | Lit;
      T = T | LitT;
      break;
    default:
      B = B ^ Lit;
      T = T ^ LitT;
      break;
    }
    if (R.chance(1, 4)) {
      B = !B;
      T = !T;
    }
  }
  return {B, T};
}

class BddPropertyTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST(BddTest, TerminalBasics) {
  BddManager Mgr(4);
  EXPECT_TRUE(Mgr.one().isOne());
  EXPECT_TRUE(Mgr.zero().isZero());
  EXPECT_EQ(Mgr.one() & Mgr.zero(), Mgr.zero());
  EXPECT_EQ(Mgr.one() | Mgr.zero(), Mgr.one());
  EXPECT_EQ(!Mgr.one(), Mgr.zero());
  EXPECT_EQ(Mgr.one() ^ Mgr.one(), Mgr.zero());
}

TEST(BddTest, VarAndNvarAreComplements) {
  BddManager Mgr(3);
  for (unsigned V = 0; V < 3; ++V) {
    EXPECT_EQ(!Mgr.var(V), Mgr.nvar(V));
    EXPECT_EQ(Mgr.var(V) & Mgr.nvar(V), Mgr.zero());
    EXPECT_EQ(Mgr.var(V) | Mgr.nvar(V), Mgr.one());
  }
}

TEST(BddTest, HashConsingCanonicity) {
  BddManager Mgr(4);
  Bdd A = (Mgr.var(0) & Mgr.var(1)) | Mgr.var(2);
  Bdd B = Mgr.var(2) | (Mgr.var(1) & Mgr.var(0));
  EXPECT_EQ(A, B) << "equivalent functions must share one node";
}

TEST(BddTest, IteMatchesDefinition) {
  BddManager Mgr(4);
  Rng R(7);
  for (unsigned Trial = 0; Trial < 50; ++Trial) {
    auto [F, FT] = randomFunction(Mgr, R, 4, 4);
    auto [G, GT] = randomFunction(Mgr, R, 4, 4);
    auto [H, HT] = randomFunction(Mgr, R, 4, 4);
    Bdd Ite = F.ite(G, H);
    Bdd Expected = (F & G) | (!F & H);
    EXPECT_EQ(Ite, Expected);
    (void)FT;
    (void)GT;
    (void)HT;
  }
}

TEST_P(BddPropertyTest, OpsMatchTruthTables) {
  BddManager Mgr(5);
  Rng R(GetParam());
  for (unsigned Trial = 0; Trial < 40; ++Trial) {
    auto [A, AT] = randomFunction(Mgr, R, 5, 6);
    auto [B, BT] = randomFunction(Mgr, R, 5, 6);
    expectEqual(A & B, AT & BT, "and");
    expectEqual(A | B, AT | BT, "or");
    expectEqual(A ^ B, AT ^ BT, "xor");
    expectEqual(!A, !AT, "not");
    expectEqual(A.implies(B), (!AT) | BT, "implies");
    expectEqual(A.iff(B), !(AT ^ BT), "iff");
  }
}

TEST_P(BddPropertyTest, QuantificationMatchesTruthTables) {
  BddManager Mgr(5);
  Rng R(GetParam() ^ 0x5555);
  for (unsigned Trial = 0; Trial < 30; ++Trial) {
    auto [A, AT] = randomFunction(Mgr, R, 5, 6);
    unsigned V1 = unsigned(R.below(5));
    unsigned V2 = unsigned(R.below(5));
    BddCube Cube = Mgr.makeCube({V1, V2});
    TruthTable ExT = AT.exists(V1).exists(V2);
    expectEqual(A.exists(Cube), ExT, "exists");
    TruthTable FaT = !(((!AT).exists(V1)).exists(V2));
    expectEqual(A.forall(Cube), FaT, "forall");
  }
}

TEST_P(BddPropertyTest, AndExistsIsFusedRelationalProduct) {
  BddManager Mgr(5);
  Rng R(GetParam() ^ 0xabcdef);
  for (unsigned Trial = 0; Trial < 30; ++Trial) {
    auto [A, AT] = randomFunction(Mgr, R, 5, 6);
    auto [B, BT] = randomFunction(Mgr, R, 5, 6);
    (void)AT;
    (void)BT;
    unsigned V1 = unsigned(R.below(5));
    unsigned V2 = unsigned(R.below(5));
    BddCube Cube = Mgr.makeCube({V1, V2});
    EXPECT_EQ(A.andExists(B, Cube), (A & B).exists(Cube));
  }
}

TEST_P(BddPropertyTest, PermuteMatchesSubstitution) {
  BddManager Mgr(6);
  Rng R(GetParam() ^ 0x1234);
  for (unsigned Trial = 0; Trial < 30; ++Trial) {
    auto [A, AT] = randomFunction(Mgr, R, 3, 5);
    (void)AT;
    // Rename 0,1,2 -> 3,4,5 (monotone) and 0,1,2 -> 5,4,3 (reversing).
    BddPerm Up = Mgr.makePermutation({{0, 3}, {1, 4}, {2, 5}});
    BddPerm Rev = Mgr.makePermutation({{0, 5}, {1, 4}, {2, 3}});
    Bdd AUp = A.permute(Up);
    Bdd ARev = A.permute(Rev);
    for (unsigned Row = 0; Row < 8; ++Row) {
      std::vector<bool> Orig(6, false), UpA(6, false), RevA(6, false);
      for (unsigned V = 0; V < 3; ++V) {
        bool Bit = (Row >> V) & 1;
        Orig[V] = Bit;
        UpA[3 + V] = Bit;
        RevA[5 - V] = Bit;
      }
      EXPECT_EQ(AUp.eval(UpA), A.eval(Orig));
      EXPECT_EQ(ARev.eval(RevA), A.eval(Orig));
    }
  }
}

TEST(BddTest, NonInjectiveRenameDiagonalizes) {
  BddManager Mgr(3);
  // f = x0 ^ x1; rename both onto x2: f[x0:=x2, x1:=x2] == false.
  Bdd F = Mgr.var(0) ^ Mgr.var(1);
  BddPerm Diag = Mgr.makePermutation({{0, 2}, {1, 2}});
  EXPECT_EQ(F.permute(Diag), Mgr.zero());
  Bdd G = Mgr.var(0) & Mgr.var(1);
  EXPECT_EQ(G.permute(Diag), Mgr.var(2));
}

TEST(BddTest, RestrictIsCofactor) {
  BddManager Mgr(4);
  Rng R(99);
  for (unsigned Trial = 0; Trial < 30; ++Trial) {
    auto [A, AT] = randomFunction(Mgr, R, 4, 5);
    unsigned V = unsigned(R.below(4));
    Bdd Hi = A.restrict(V, true);
    Bdd Lo = A.restrict(V, false);
    // Shannon expansion: f == (v & f|v=1) | (!v & f|v=0).
    EXPECT_EQ(A, (Mgr.var(V) & Hi) | (Mgr.nvar(V) & Lo));
    (void)AT;
  }
}

TEST(BddTest, SatCount) {
  BddManager Mgr(4);
  EXPECT_DOUBLE_EQ(Mgr.one().satCount(4), 16.0);
  EXPECT_DOUBLE_EQ(Mgr.zero().satCount(4), 0.0);
  EXPECT_DOUBLE_EQ(Mgr.var(0).satCount(4), 8.0);
  EXPECT_DOUBLE_EQ((Mgr.var(0) & Mgr.var(1)).satCount(4), 4.0);
  EXPECT_DOUBLE_EQ((Mgr.var(0) | Mgr.var(1)).satCount(4), 12.0);
  EXPECT_DOUBLE_EQ((Mgr.var(0) ^ Mgr.var(1)).satCount(4), 8.0);
}

TEST(BddTest, SupportAndNodeCount) {
  BddManager Mgr(5);
  Bdd F = (Mgr.var(0) & Mgr.var(2)) | Mgr.var(4);
  std::vector<unsigned> Expected{0, 2, 4};
  EXPECT_EQ(F.support(), Expected);
  EXPECT_GT(F.nodeCount(), 0u);
  EXPECT_EQ(Mgr.one().nodeCount(), 0u);
}

TEST(BddTest, OnePathSatisfies) {
  BddManager Mgr(4);
  Rng R(5);
  for (unsigned Trial = 0; Trial < 30; ++Trial) {
    auto [A, AT] = randomFunction(Mgr, R, 4, 5);
    (void)AT;
    if (A.isZero())
      continue;
    std::vector<int8_t> Path = A.onePath();
    std::vector<bool> Assignment(4);
    for (unsigned V = 0; V < 4; ++V)
      Assignment[V] = Path[V] == 1;
    EXPECT_TRUE(A.eval(Assignment));
  }
}

TEST(BddTest, CubeBddIsConjunction) {
  BddManager Mgr(4);
  BddCube Cube = Mgr.makeCube({3, 1});
  EXPECT_EQ(Mgr.cubeBdd(Cube), Mgr.var(1) & Mgr.var(3));
}

TEST(BddTest, CubeInterningDeduplicates) {
  BddManager Mgr(4);
  BddCube A = Mgr.makeCube({1, 2});
  BddCube B = Mgr.makeCube({2, 1, 2});
  EXPECT_EQ(A.Id, B.Id);
}

TEST(BddTest, GcPreservesLiveHandles) {
  BddManager Mgr(8);
  Rng R(11);
  auto [Keep, KeepT] = randomFunction(Mgr, R, 6, 10);
  size_t KeepNodes = Keep.nodeCount();
  // Create and drop lots of garbage. (Stay within TruthTable's 6-variable
  // cap: the manager has 8 variables, but the helper shadows every random
  // function with a 2^N-bit truth table.)
  for (unsigned I = 0; I < 200; ++I) {
    auto [Tmp, TmpT] = randomFunction(Mgr, R, 6, 12);
    (void)Tmp;
    (void)TmpT;
  }
  size_t Before = Mgr.liveNodeCount();
  Mgr.gc();
  EXPECT_LT(Mgr.liveNodeCount(), Before);
  EXPECT_EQ(Keep.nodeCount(), KeepNodes);
  // The function still evaluates correctly after collection.
  expectEqual(Keep, KeepT, "post-gc");
  // And new operations still work.
  EXPECT_EQ(Keep & Mgr.one(), Keep);
}

TEST(BddTest, GcStatsAccumulate) {
  BddManager Mgr(4);
  { Bdd Garbage = Mgr.var(0) & Mgr.var(1) & Mgr.var(2); }
  Mgr.gc();
  EXPECT_GE(Mgr.stats().GcRuns, 1u);
  EXPECT_GE(Mgr.stats().GcReclaimed, 1u);
}

TEST(BddTest, FrontierStaysInInterval) {
  // frontier(F, G) must lie between F \ G and F; random pairs probe the
  // interval bound, and the two structural guarantees are pinned exactly:
  // equal operands collapse to zero, and a zero old set returns F itself.
  BddManager Mgr(6);
  Rng R(23);
  for (unsigned Trial = 0; Trial < 40; ++Trial) {
    auto [F, FT] = randomFunction(Mgr, R, 6, 8);
    auto [G, GT] = randomFunction(Mgr, R, 6, 8);
    Bdd Frontier = F.frontier(G);
    // F \ G <= Frontier <= F, i.e. both inclusions hold.
    EXPECT_TRUE(((F & !G) & !Frontier).isZero()) << "lost new tuples";
    EXPECT_TRUE((Frontier & !F).isZero()) << "invented tuples";
    (void)FT;
    (void)GT;
  }
  Bdd F = Mgr.var(0) | Mgr.var(1);
  EXPECT_TRUE(F.frontier(F).isZero());
  EXPECT_EQ(F.frontier(Mgr.zero()), F);
  EXPECT_TRUE(F.frontier(Mgr.one()).isZero());
  EXPECT_EQ(Mgr.one().frontier(Mgr.zero()), Mgr.one());
}

TEST(BddTest, NewVarGrowsManager) {
  BddManager Mgr(0);
  unsigned V0 = Mgr.newVar();
  unsigned V1 = Mgr.newVar();
  EXPECT_EQ(V0, 0u);
  EXPECT_EQ(V1, 1u);
  EXPECT_EQ(Mgr.numVars(), 2u);
  EXPECT_EQ(Mgr.var(V0) & Mgr.var(V1), Mgr.var(V1) & Mgr.var(V0));
}

TEST_P(BddPropertyTest, ConstrainRestrictAlgebraicIdentities) {
  BddManager Mgr(5);
  Rng R(GetParam() * 71u);
  for (unsigned Trial = 0; Trial < 40; ++Trial) {
    auto [F, FT] = randomFunction(Mgr, R, 5, 6);
    auto [C, CT] = randomFunction(Mgr, R, 5, 6);
    (void)FT;
    (void)CT;
    if (C.isZero())
      continue; // Both ops require a non-empty care set.

    Bdd Con = F.constrain(C);
    Bdd Res = F.restrict(C);

    // The defining identity of a generalized cofactor.
    EXPECT_EQ(Con & C, F & C) << "constrain breaks f↓c & c == f & c";
    EXPECT_EQ(Res & C, F & C) << "restrict breaks f⇓c & c == f & c";

    // Constrain is a projection: applying it twice changes nothing.
    EXPECT_EQ(Con.constrain(C), Con) << "constrain not idempotent";

    // The two simplifiers agree wherever the care set holds.
    EXPECT_TRUE(((Con ^ Res) & C).isZero())
        << "constrain and restrict disagree inside the care set";

    // A full care set is a no-op.
    EXPECT_EQ(F.constrain(Mgr.one()), F);
    EXPECT_EQ(F.restrict(Mgr.one()), F);

    // Restrict never adds variables (constrain may).
    std::vector<unsigned> FSup = F.support();
    for (unsigned V : Res.support())
      EXPECT_TRUE(std::find(FSup.begin(), FSup.end(), V) != FSup.end())
          << "restrict pulled variable " << V << " into the support";
  }
}

TEST(BddTest, ConstrainCollapsesAgainstItsOwnCareSet) {
  BddManager Mgr(4);
  Bdd F = Mgr.var(0) & Mgr.var(1);
  // f ↓ f == 1: every point maps to a satisfying one.
  EXPECT_TRUE(F.constrain(F).isOne());
  EXPECT_TRUE(F.restrict(F).isOne());
  // Care set disjoint from f: the conjunction is empty, so the cofactor
  // may be anything on a zero care set — pin the canonical choice.
  EXPECT_TRUE(F.constrain(Mgr.nvar(0)).isZero());
}

TEST(BddTest, ConstrainShrinksTransitionAgainstNarrowCareSet) {
  // The evaluator's use case: a wide "transition" conjoined with a narrow
  // frontier. The constrained operand must stay small (here: collapse to
  // the cofactor) while the relational product is unchanged.
  BddManager Mgr(6);
  Rng R(99);
  auto [T1, TT1] = randomFunction(Mgr, R, 6, 10);
  (void)TT1;
  Bdd Care = Mgr.var(0) & Mgr.nvar(1) & Mgr.var(2); // One cube: 3 fixed bits.
  Bdd Constrained = T1.constrain(Care);
  std::vector<unsigned> Vars{0, 1, 2, 3};
  BddCube Cube = Mgr.makeCube(Vars);
  EXPECT_EQ(Care.andExists(Constrained, Cube), Care.andExists(T1, Cube))
      << "constraining the transition changed the relational product";
  EXPECT_LE(Constrained.nodeCount(), T1.nodeCount())
      << "cube care set must not grow the operand";
}

/// One deterministic pseudo-random operation script, re-runnable against
/// managers with different cache geometries. Returns a per-step
/// fingerprint (sat counts and dag sizes) that must be identical for any
/// cache size/associativity, and across mid-script cache clears: the
/// computed cache affects only speed, never results. With \p Outs, every
/// step's result is kept there too, for node-level comparison.
std::vector<double> runCacheScript(BddManager &Mgr, bool MidScriptClear,
                                   std::vector<Bdd> *Outs = nullptr) {
  Rng R(4242);
  std::vector<double> Trace;
  std::vector<Bdd> Pool;
  for (unsigned I = 0; I < 6; ++I)
    Pool.push_back(randomFunction(Mgr, R, 6, 8).first);
  std::vector<unsigned> EvenVars{0, 2, 4};
  BddCube Cube = Mgr.makeCube(EvenVars);
  for (unsigned Step = 0; Step < 60; ++Step) {
    if (MidScriptClear && Step == 30)
      Mgr.clearComputedCache();
    const Bdd &A = Pool[R.below(Pool.size())];
    const Bdd &B = Pool[R.below(Pool.size())];
    Bdd Out;
    switch (R.below(5)) {
    case 0:
      Out = A & B;
      break;
    case 1:
      Out = A | B;
      break;
    case 2:
      Out = A.andExists(B, Cube);
      break;
    case 3:
      Out = B.isZero() ? !A : A.constrain(B);
      break;
    default:
      Out = B.isZero() ? (A ^ B) : A.restrict(B);
      break;
    }
    Pool[R.below(Pool.size())] = Out;
    Trace.push_back(Out.satCount(6) * 1000.0 + double(Out.nodeCount()));
    if (Outs)
      Outs->push_back(Out);
  }
  return Trace;
}

/// True when every BDD in \p Got (of another manager) is node-for-node the
/// BDD at the same position in \p Want: imported into Want's manager, it
/// must land on the very same node (ROBDD canonicity makes that equality
/// of the whole DAG under the shared variable order).
::testing::AssertionResult sameNodes(const std::vector<Bdd> &Got,
                                     const std::vector<Bdd> &Want) {
  if (Got.size() != Want.size())
    return ::testing::AssertionFailure()
           << Got.size() << " results vs " << Want.size();
  if (Got.empty())
    return ::testing::AssertionSuccess();
  BddImporter In(*Got.front().manager(), *Want.front().manager());
  for (size_t I = 0; I < Got.size(); ++I)
    if (In.import(Got[I]) != Want[I])
      return ::testing::AssertionFailure() << "result " << I << " differs";
  return ::testing::AssertionSuccess();
}

TEST(BddTest, CacheStressResultsIdenticalAcrossGeometries) {
  // Identical op scripts must produce identical results at every cache
  // size (8 vs 18 bits), at every associativity (direct-mapped vs 4-way),
  // and across a mid-script generation bump. CacheBits 8 with 60 steps of
  // 6 shared functions keeps the cache under real replacement pressure.
  BddManager Reference(6, 18, 4);
  std::vector<double> Expected = runCacheScript(Reference, false);

  struct Geometry {
    unsigned Bits, Ways;
    bool MidClear;
  } Geometries[] = {{8, 4, false}, {8, 1, false}, {18, 1, false},
                    {8, 4, true},  {18, 4, true}};
  for (const Geometry &G : Geometries) {
    BddManager Mgr(6, G.Bits, G.Ways);
    EXPECT_EQ(runCacheScript(Mgr, G.MidClear), Expected)
        << "cache bits " << G.Bits << " ways " << G.Ways << " midclear "
        << G.MidClear;
  }

  // A cache that grows mid-script (it starts at 2^4 slots, far below the
  // script's node count) returns node-for-node what fixed 2^10 and 2^22
  // caches return: this script never makes those two resize.
  BddManager GrowMgr(6, 4, 4), SmallMgr(6, 10, 4), LargeMgr(6, 22, 4);
  std::vector<Bdd> Grown, Small, Large;
  EXPECT_EQ(runCacheScript(GrowMgr, false, &Grown), Expected);
  EXPECT_EQ(runCacheScript(SmallMgr, false, &Small), Expected);
  EXPECT_EQ(runCacheScript(LargeMgr, false, &Large), Expected);
  EXPECT_GT(GrowMgr.stats().CacheResizes, 0u);
  EXPECT_GT(GrowMgr.cacheSlots(), size_t(1) << 4);
  EXPECT_EQ(GrowMgr.stats().CacheSlots, GrowMgr.cacheSlots());
  EXPECT_EQ(SmallMgr.stats().CacheResizes, 0u);
  EXPECT_EQ(LargeMgr.stats().CacheResizes, 0u);
  EXPECT_EQ(LargeMgr.cacheSlots(), size_t(1) << 22);
  EXPECT_TRUE(sameNodes(Grown, Small));
  EXPECT_TRUE(sameNodes(Grown, Large));
}

/// A heavier deterministic script over 14 variables: random sums of cubes
/// combined by conjunction, disjunction, xor and relational product. Its
/// tens of thousands of distinct subproblems fill small caches many times
/// over. Appends every step's result to \p Outs.
void runWideScript(BddManager &Mgr, std::vector<Bdd> &Outs) {
  Rng R(977);
  auto randomCube = [&] {
    Bdd C = Mgr.one();
    for (unsigned L = 0; L < 5; ++L) {
      unsigned V = unsigned(R.below(14));
      C &= R.flip() ? Mgr.var(V) : Mgr.nvar(V);
    }
    return C;
  };
  std::vector<Bdd> Pool;
  for (unsigned I = 0; I < 16; ++I) {
    Bdd F = Mgr.zero();
    for (unsigned K = 0; K < 6; ++K)
      F |= randomCube();
    Pool.push_back(F);
  }
  BddCube Cube = Mgr.makeCube({1, 4, 7, 10, 13});
  for (unsigned Step = 0; Step < 300; ++Step) {
    const Bdd &A = Pool[R.below(Pool.size())];
    const Bdd &B = Pool[R.below(Pool.size())];
    Bdd Out;
    switch (R.below(4)) {
    case 0:
      Out = A & B;
      break;
    case 1:
      Out = A | B;
      break;
    case 2:
      Out = A ^ B;
      break;
    default:
      Out = A.andExists(B, Cube);
      break;
    }
    Pool[R.below(Pool.size())] = Out;
    Outs.push_back(Out);
  }
}

TEST(BddTest, ReleasedCacheRegrowsWithIdenticalResults) {
  // clearComputedCache releases the cache to its 2^10 floor; the next
  // workload brings it back to its starting size, and every result
  // matches a manager whose cache was never released.
  BddManager Reference(14, 12, 4), Mgr(14, 12, 4);
  std::vector<Bdd> Want, Before, After;
  runWideScript(Reference, Want);
  runWideScript(Mgr, Before);
  const size_t Slots = Mgr.cacheSlots();
  ASSERT_GE(Slots, size_t(1) << 12);
  Mgr.clearComputedCache();
  EXPECT_EQ(Mgr.cacheSlots(), size_t(1) << 10);
  EXPECT_EQ(Mgr.stats().CacheSlots, size_t(1) << 10);
  EXPECT_LT(Mgr.memoryEstimate(), Reference.memoryEstimate());
  uint64_t Resizes = Mgr.stats().CacheResizes;
  runWideScript(Mgr, After);
  EXPECT_GT(Mgr.stats().CacheResizes, Resizes);
  EXPECT_GE(Mgr.cacheSlots(), size_t(1) << 12);
  EXPECT_TRUE(sameNodes(Before, Want));
  EXPECT_TRUE(sameNodes(After, Want));
}

TEST(BddTest, LiveHandlesSurviveNodeStorageGrowthAndGc) {
  // Node storage grows in place inside its reservation. Build a table
  // well past 2^17 slots — several doublings of the old vector-backed
  // table — while holding handles to snapshots, then collect, and check
  // every snapshot is intact and rebuildable to the very same node.
  BddManager Mgr(20);
  Rng R(5);
  std::vector<uint32_t> Minterms;
  auto minterm = [&](uint32_t Bits) {
    Bdd M = Mgr.one();
    for (unsigned V = 0; V < 20; ++V)
      M &= (Bits >> V) & 1 ? Mgr.var(V) : Mgr.nvar(V);
    return M;
  };
  std::vector<Bdd> Snapshots;
  std::vector<double> Counts;
  Bdd Acc = Mgr.zero();
  for (unsigned I = 0; I < 12000; ++I) {
    Minterms.push_back(uint32_t(R.below(1u << 20)));
    Acc |= minterm(Minterms.back());
    if (I % 1000 == 999) {
      Snapshots.push_back(Acc);
      Counts.push_back(Acc.satCount(20));
    }
  }
  ASSERT_GT(Mgr.stats().PeakNodes, size_t(1) << 17);

  size_t Before = Mgr.liveNodeCount();
  Mgr.gc();
  EXPECT_LT(Mgr.liveNodeCount(), Before);
  for (size_t I = 0; I < Snapshots.size(); ++I)
    EXPECT_EQ(Snapshots[I].satCount(20), Counts[I]) << "snapshot " << I;
  for (uint32_t Bits : Minterms) {
    std::vector<bool> Assignment(20);
    for (unsigned V = 0; V < 20; ++V)
      Assignment[V] = (Bits >> V) & 1;
    ASSERT_TRUE(Acc.eval(Assignment));
  }

  // Rebuilding after the collection reuses free-listed slots and must
  // land on the retained nodes exactly.
  Bdd Again = Mgr.zero();
  for (size_t I = 0; I < Minterms.size(); ++I) {
    Again |= minterm(Minterms[I]);
    if (I % 1000 == 999)
      EXPECT_EQ(Again, Snapshots[I / 1000]) << "rebuild " << I;
  }
  EXPECT_EQ(Again, Acc);
}

/// The conflict-heavy hot-set workload of bench_bdd, shrunk to test
/// scale: a hot set of pairs re-queried every round while a stream of
/// single-use pairs churns the same 2^10-slot cache. Returns a per-round
/// fingerprint of the hot results.
std::vector<double> runConflictHotSetScript(BddManager &Mgr) {
  Rng R(1311);
  std::vector<Bdd> Pool;
  for (unsigned I = 0; I < 72; ++I)
    Pool.push_back(randomFunction(Mgr, R, 6, 5).first);
  std::vector<double> Trace;
  for (unsigned Round = 0; Round < 24; ++Round) {
    // Hot pairs: the same 12 conjunctions every round.
    for (unsigned I = 0; I + 1 < 24; I += 2) {
      Bdd Out = Pool[I] & Pool[I + 1];
      Trace.push_back(Out.satCount(6) * 1000.0 + double(Out.nodeCount()));
    }
    // Streaming pairs: a fresh slice per round.
    for (unsigned K = 0; K < 16; ++K) {
      unsigned A = (Round * 16 + K) % 48 + 24;
      unsigned B = (Round * 7 + K * 3) % 48 + 24;
      Bdd Out = Pool[A].andExists(Pool[B], Mgr.makeCube({0, 2, 4}));
      Trace.push_back(Out.satCount(6) * 1000.0 + double(Out.nodeCount()));
    }
  }
  return Trace;
}

TEST(BddTest, ConflictPressureResultsIdenticalAcrossWays) {
  // The associativity lever's value regime (ROADMAP: conflict-heavy hot
  // sets at 2^10 slots) must stay a pure performance property: the
  // hot/streaming mix produces bit-identical per-round results whether
  // the cache is direct-mapped or 4-way, with replacement (and promotion)
  // policies differing underneath.
  BddManager Reference(6, 18, 4);
  std::vector<double> Expected = runConflictHotSetScript(Reference);
  for (unsigned Ways : {1u, 4u}) {
    BddManager Mgr(6, 10, Ways);
    EXPECT_EQ(runConflictHotSetScript(Mgr), Expected) << "ways " << Ways;
    EXPECT_GT(Mgr.stats().CacheLookups, 0u);
  }
}

TEST(BddTest, PerOpCacheCountersSplitTheAggregate) {
  BddManager Mgr(6);
  Rng R(17);
  Bdd A = randomFunction(Mgr, R, 6, 8).first;
  Bdd B = randomFunction(Mgr, R, 6, 8).first;
  std::vector<unsigned> Vars{1, 3};
  BddCube Cube = Mgr.makeCube(Vars);
  Bdd P = A.andExists(B, Cube);
  Bdd Q = A.andExists(B, Cube); // Warm repeat: must hit the AndExists op.
  EXPECT_EQ(P, Q);
  const BddStats &S = Mgr.stats();
  uint64_t SumLookups = 0, SumHits = 0;
  for (unsigned Op = 0; Op < NumBddOps; ++Op) {
    SumLookups += S.OpLookups[Op];
    SumHits += S.OpHits[Op];
    EXPECT_LE(S.OpHits[Op], S.OpLookups[Op]);
  }
  EXPECT_EQ(SumLookups, S.CacheLookups);
  EXPECT_EQ(SumHits, S.CacheHits);
  EXPECT_GT(S.OpHits[unsigned(BddOp::AndExists)], 0u)
      << "repeated andExists did not hit its per-op cache";
}

TEST(BddTest, GenerationClearDropsWarmEntries) {
  BddManager Mgr(6);
  Rng R(23);
  Bdd A = randomFunction(Mgr, R, 6, 8).first;
  Bdd B = randomFunction(Mgr, R, 6, 8).first;
  Bdd First = A & B;
  uint64_t Lookups = Mgr.stats().CacheLookups;
  uint64_t Hits = Mgr.stats().CacheHits;
  Bdd Warm = A & B; // Top-level repeat: one probe, served from the cache.
  EXPECT_EQ(First, Warm);
  EXPECT_EQ(Mgr.stats().CacheLookups, Lookups + 1);
  EXPECT_EQ(Mgr.stats().CacheHits, Hits + 1);
  Mgr.clearComputedCache();
  Lookups = Mgr.stats().CacheLookups;
  Hits = Mgr.stats().CacheHits;
  Bdd Cold = A & B; // Same op after the bump: recomputed, same result.
  EXPECT_EQ(First, Cold);
  uint64_t LookupsDelta = Mgr.stats().CacheLookups - Lookups;
  uint64_t HitsDelta = Mgr.stats().CacheHits - Hits;
  EXPECT_GT(LookupsDelta, 1u)
      << "generation bump did not force recomputation";
  // The recomputation may re-hit subproblems it inserts along the way,
  // but the very first probe runs against an empty generation.
  EXPECT_LT(HitsDelta, LookupsDelta);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/chain/block.h"
#include "src/chain/execution.h"
#include "src/chain/mempool.h"
#include "src/chain/node.h"
#include "src/chain/tx.h"
#include "src/chain/vote_round.h"
#include "src/chains/params.h"

namespace diablo {
namespace {

TEST(TxStoreTest, AddAndPhaseCounts) {
  TxStore store;
  Transaction tx;
  tx.account = 7;
  const TxId a = store.Add(tx);
  const TxId b = store.Add(tx);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  store.at(b).phase = TxPhase::kCommitted;
  const auto counts = store.PhaseCounts();
  EXPECT_EQ(counts[static_cast<size_t>(TxPhase::kCreated)], 1u);
  EXPECT_EQ(counts[static_cast<size_t>(TxPhase::kCommitted)], 1u);
}

TEST(TxTest, LatencyComputation) {
  Transaction tx;
  EXPECT_DOUBLE_EQ(tx.LatencySeconds(), -1.0);
  tx.submit_time = Seconds(1);
  tx.commit_time = Seconds(4);
  EXPECT_DOUBLE_EQ(tx.LatencySeconds(), 3.0);
}

TEST(TxTest, PhaseNames) {
  EXPECT_EQ(TxPhaseName(TxPhase::kCommitted), "committed");
  EXPECT_EQ(TxPhaseName(TxPhase::kDropped), "dropped");
}

TEST(LedgerTest, AppendAndDigest) {
  Ledger ledger;
  EXPECT_TRUE(ledger.empty());
  EXPECT_EQ(ledger.next_height(), 1u);
  Block block;
  block.height = 1;
  block.tx_count = 3;
  ledger.Append(block);
  EXPECT_EQ(ledger.block_count(), 1u);
  EXPECT_EQ(ledger.total_txs(), 3u);
  EXPECT_EQ(ledger.next_height(), 2u);
  const Digest256 d1 = ledger.HeaderChainDigest();
  Block second;
  second.height = 2;
  ledger.Append(second);
  EXPECT_NE(ledger.HeaderChainDigest(), d1);
}

TEST(MempoolTest, FifoByReadiness) {
  Mempool pool(MempoolConfig{});
  pool.Add(0, 1, Seconds(0), Seconds(2));
  pool.Add(1, 1, Seconds(0), Seconds(1));
  pool.Add(2, 1, Seconds(0), Seconds(3));
  std::vector<TxId> expired;
  const auto taken = pool.TakeReady(Seconds(10), 0, 0, 100, [](TxId) { return 1; }, [](TxId) { return 110; }, &expired);
  EXPECT_EQ(taken, (std::vector<TxId>{1, 0, 2}));
  EXPECT_TRUE(expired.empty());
}

TEST(MempoolTest, ReadinessGates) {
  Mempool pool(MempoolConfig{});
  pool.Add(0, 1, Seconds(0), Seconds(5));
  std::vector<TxId> expired;
  EXPECT_TRUE(pool.TakeReady(Seconds(4), 0, 0, 10, [](TxId) { return 1; }, [](TxId) { return 110; }, &expired).empty());
  EXPECT_EQ(pool.TakeReady(Seconds(5), 0, 0, 10, [](TxId) { return 1; }, [](TxId) { return 110; }, &expired).size(), 1u);
}

TEST(MempoolTest, GlobalCap) {
  MempoolConfig config;
  config.global_cap = 2;
  Mempool pool(config);
  EXPECT_EQ(pool.Add(0, 1, 0, 0), AdmitResult::kAdmitted);
  EXPECT_EQ(pool.Add(1, 2, 0, 0), AdmitResult::kAdmitted);
  EXPECT_EQ(pool.Add(2, 3, 0, 0), AdmitResult::kPoolFull);
  EXPECT_EQ(pool.rejected(), 1u);
  std::vector<TxId> expired;
  pool.TakeReady(Seconds(1), 0, 0, 10, [](TxId) { return 1; }, [](TxId) { return 110; }, &expired);
  EXPECT_EQ(pool.Add(2, 3, 0, 0), AdmitResult::kAdmitted);
}

TEST(MempoolTest, PerSignerCapReleasedOnTake) {
  MempoolConfig config;
  config.per_signer_cap = 2;
  Mempool pool(config);
  EXPECT_EQ(pool.Add(0, 9, 0, 0), AdmitResult::kAdmitted);
  EXPECT_EQ(pool.Add(1, 9, 0, 0), AdmitResult::kAdmitted);
  EXPECT_EQ(pool.Add(2, 9, 0, 0), AdmitResult::kSignerCapReached);
  // Another signer is unaffected.
  EXPECT_EQ(pool.Add(3, 10, 0, 0), AdmitResult::kAdmitted);
  std::vector<TxId> expired;
  pool.TakeReady(Seconds(1), 0, 0, 1, [](TxId) { return 1; }, [](TxId) { return 110; }, &expired);
  EXPECT_EQ(pool.Add(2, 9, 0, 0), AdmitResult::kAdmitted);
}

TEST(MempoolTest, GasBudgetStopsTake) {
  Mempool pool(MempoolConfig{});
  for (TxId id = 0; id < 5; ++id) {
    pool.Add(id, id, 0, 0);
  }
  std::vector<TxId> expired;
  const auto taken =
      pool.TakeReady(Seconds(1), /*gas_budget=*/250, 0, 10, [](TxId) { return 100; }, [](TxId) { return 110; }, &expired);
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(MempoolTest, OversizedTxExpiredNotWedged) {
  Mempool pool(MempoolConfig{});
  pool.Add(0, 1, 0, 0);  // gas 1000 > budget
  pool.Add(1, 2, 0, 0);  // gas 10
  std::vector<TxId> expired;
  const auto taken = pool.TakeReady(
      Seconds(1), /*gas_budget=*/100, 0, 10,
      [](TxId id) { return id == 0 ? 1000 : 10; }, [](TxId) { return 110; }, &expired);
  EXPECT_EQ(taken, (std::vector<TxId>{1}));
  EXPECT_EQ(expired, (std::vector<TxId>{0}));
}

TEST(MempoolTest, EvictOnFullReplacesRandomVictim) {
  MempoolConfig config;
  config.global_cap = 4;
  config.evict_on_full = true;
  Rng rng(99);
  Mempool pool(config, &rng);
  for (TxId id = 0; id < 4; ++id) {
    TxId evicted = kInvalidTx;
    EXPECT_EQ(pool.Add(id, id, 0, 0, &evicted), AdmitResult::kAdmitted);
    EXPECT_EQ(evicted, kInvalidTx);
  }
  // The pool is full: the next admission evicts one of the four.
  TxId evicted = kInvalidTx;
  EXPECT_EQ(pool.Add(4, 4, 0, 0, &evicted), AdmitResult::kAdmitted);
  EXPECT_NE(evicted, kInvalidTx);
  EXPECT_LT(evicted, 4u);
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(pool.evictions(), 1u);

  // TakeReady never returns the zombie.
  std::vector<TxId> expired;
  const auto taken = pool.TakeReady(Seconds(1), 0, 0, 10, [](TxId) { return 1; }, [](TxId) { return 110; }, &expired);
  EXPECT_EQ(taken.size(), 4u);
  for (const TxId id : taken) {
    EXPECT_NE(id, evicted);
  }
  EXPECT_EQ(pool.size(), 0u);
}

TEST(MempoolTest, EvictionChurnKeepsPoolAtCap) {
  MempoolConfig config;
  config.global_cap = 100;
  config.evict_on_full = true;
  Rng rng(7);
  Mempool pool(config, &rng);
  for (TxId id = 0; id < 10000; ++id) {
    TxId evicted = kInvalidTx;
    ASSERT_EQ(pool.Add(id, id % 32, 0, 0, &evicted), AdmitResult::kAdmitted);
  }
  EXPECT_EQ(pool.size(), 100u);
  EXPECT_EQ(pool.evictions(), 9900u);
  std::vector<TxId> expired;
  const auto taken = pool.TakeReady(Seconds(1), 0, 0, 200, [](TxId) { return 1; }, [](TxId) { return 110; }, &expired);
  EXPECT_EQ(taken.size(), 100u);
  EXPECT_TRUE(expired.empty());
}

TEST(MempoolTest, EvictionDisabledWithoutRng) {
  MempoolConfig config;
  config.global_cap = 1;
  config.evict_on_full = true;
  Mempool pool(config, nullptr);
  EXPECT_EQ(pool.Add(0, 0, 0, 0), AdmitResult::kAdmitted);
  EXPECT_EQ(pool.Add(1, 1, 0, 0), AdmitResult::kPoolFull);
}

TEST(MempoolTest, ByteBudgetStopsTake) {
  Mempool pool(MempoolConfig{});
  for (TxId id = 0; id < 6; ++id) {
    pool.Add(id, id, 0, 0);
  }
  std::vector<TxId> expired;
  // Each tx is 400 bytes; a 1000-byte block fits two.
  const auto taken = pool.TakeReady(
      Seconds(1), 0, /*byte_budget=*/1000, 10, [](TxId) { return 1; },
      [](TxId) { return 400; }, &expired);
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_EQ(pool.size(), 4u);
}

TEST(MempoolTest, TtlExpiry) {
  MempoolConfig config;
  config.ttl = Seconds(10);
  Mempool pool(config);
  pool.Add(0, 1, /*ingress=*/Seconds(0), /*ready=*/Seconds(1));
  pool.Add(1, 1, /*ingress=*/Seconds(15), /*ready=*/Seconds(16));
  std::vector<TxId> expired;
  const auto taken = pool.TakeReady(Seconds(20), 0, 0, 10, [](TxId) { return 1; }, [](TxId) { return 110; }, &expired);
  EXPECT_EQ(taken, (std::vector<TxId>{1}));
  EXPECT_EQ(expired, (std::vector<TxId>{0}));
}

// --- semantics locks for the mempool hot path ------------------------------
// These pin the admission-control corner cases (victim accounting, zombie
// skipping, TTL vs Requeue, signer-slot release ordering) so the flat
// struct-of-arrays implementation is observably identical to the original
// hash-container one.

TEST(MempoolTest, EvictOnFullVictimEvictedEvenWhenNewcomerFailsSignerCap) {
  // Eviction happens before the per-signer check: a full pool sheds a victim
  // for a newcomer that is then itself rejected by its signer cap. The caller
  // owns dropping both; the pool must report the victim and stay below cap.
  MempoolConfig config;
  config.global_cap = 2;
  config.per_signer_cap = 1;
  config.evict_on_full = true;
  Rng rng(5);
  Mempool pool(config, &rng);
  EXPECT_EQ(pool.Add(0, /*signer=*/1, 0, 0), AdmitResult::kAdmitted);
  EXPECT_EQ(pool.Add(1, /*signer=*/2, 0, 0), AdmitResult::kAdmitted);
  // Signer 1 is at its cap. A full-pool admission for signer 1 evicts its
  // victim FIRST; whether the newcomer then lands depends on whether the
  // victim freed signer 1's slot. Either way the victim is out and reported.
  TxId evicted = kInvalidTx;
  const AdmitResult result = pool.Add(2, /*signer=*/1, 0, 0, &evicted);
  EXPECT_NE(evicted, kInvalidTx);
  EXPECT_EQ(pool.evictions(), 1u);
  if (evicted == 0) {
    // Victim shared signer 1: its slot was released, the newcomer fits.
    EXPECT_EQ(result, AdmitResult::kAdmitted);
    EXPECT_EQ(pool.size(), 2u);
    EXPECT_EQ(pool.rejected(), 0u);
  } else {
    // Victim was signer 2's tx: signer 1 stays at cap, the newcomer bounces,
    // and the pool is left one short of its cap.
    EXPECT_EQ(result, AdmitResult::kSignerCapReached);
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.rejected(), 1u);
  }
}

TEST(MempoolTest, EvictionReleasesVictimSignerSlot) {
  MempoolConfig config;
  config.global_cap = 1;
  config.per_signer_cap = 1;
  config.evict_on_full = true;
  Rng rng(3);
  Mempool pool(config, &rng);
  EXPECT_EQ(pool.Add(0, /*signer=*/7, 0, 0), AdmitResult::kAdmitted);
  // Tx 0 (signer 7) is the only candidate victim; its eviction must free
  // signer 7's slot so tx 2 can use it immediately afterwards.
  TxId evicted = kInvalidTx;
  EXPECT_EQ(pool.Add(1, /*signer=*/8, 0, 0, &evicted), AdmitResult::kAdmitted);
  EXPECT_EQ(evicted, 0u);
  evicted = kInvalidTx;
  EXPECT_EQ(pool.Add(2, /*signer=*/7, 0, 0, &evicted), AdmitResult::kAdmitted);
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(MempoolTest, ZombiesSkippedAcrossMultipleTakes) {
  MempoolConfig config;
  config.global_cap = 3;
  config.evict_on_full = true;
  Rng rng(11);
  Mempool pool(config, &rng);
  // Fill, then churn enough admissions that several zombie entries pile up
  // in the queue ahead of live ones.
  std::vector<bool> evicted_ids(64, false);
  for (TxId id = 0; id < 10; ++id) {
    TxId evicted = kInvalidTx;
    ASSERT_EQ(pool.Add(id, id, 0, Seconds(1)), AdmitResult::kAdmitted)
        << "id " << id;
    (void)evicted;
  }
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.evictions(), 7u);
  // Take one at a time: zombies at the queue head are silently popped and
  // never surface, and the live count stays exact.
  std::vector<TxId> expired;
  std::vector<TxId> all_taken;
  for (int i = 0; i < 3; ++i) {
    const auto taken = pool.TakeReady(
        Seconds(2), 0, 0, 1, [](TxId) { return 1; }, [](TxId) { return 110; },
        &expired);
    ASSERT_EQ(taken.size(), 1u);
    all_taken.push_back(taken[0]);
  }
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_TRUE(expired.empty());
  EXPECT_TRUE(pool.TakeReady(Seconds(2), 0, 0, 10, [](TxId) { return 1; },
                             [](TxId) { return 110; }, &expired)
                  .empty());
}

TEST(MempoolTest, TtlExpiryRacesRequeue) {
  MempoolConfig config;
  config.ttl = Seconds(10);
  config.per_signer_cap = 1;
  Mempool pool(config);
  pool.Add(0, /*signer=*/1, /*ingress=*/Seconds(0), /*ready=*/Seconds(1));
  std::vector<TxId> expired;
  const auto taken = pool.TakeReady(Seconds(5), 0, 0, 10, [](TxId) { return 1; },
                                    [](TxId) { return 110; }, &expired);
  ASSERT_EQ(taken, (std::vector<TxId>{0}));

  // Leader failure: the tx goes back with its ORIGINAL ingress time, so the
  // TTL clock keeps running across the requeue.
  pool.Requeue({0}, {1}, {Seconds(0)}, {Seconds(6)});
  EXPECT_EQ(pool.size(), 1u);
  // Signer slot is re-held after requeue.
  EXPECT_EQ(pool.Add(7, /*signer=*/1, Seconds(6), Seconds(6)),
            AdmitResult::kSignerCapReached);

  const auto after = pool.TakeReady(Seconds(20), 0, 0, 10, [](TxId) { return 1; },
                                    [](TxId) { return 110; }, &expired);
  EXPECT_TRUE(after.empty());
  EXPECT_EQ(expired, (std::vector<TxId>{0}));
  EXPECT_EQ(pool.size(), 0u);
  // Expiry released the signer slot.
  EXPECT_EQ(pool.Add(8, /*signer=*/1, Seconds(20), Seconds(20)),
            AdmitResult::kAdmitted);
}

TEST(MempoolTest, SignerSlotReleaseOrdering) {
  MempoolConfig config;
  config.per_signer_cap = 1;
  config.ttl = Seconds(10);
  Mempool pool(config);
  std::vector<TxId> expired;
  // Take releases the slot.
  EXPECT_EQ(pool.Add(0, 5, Seconds(0), Seconds(0)), AdmitResult::kAdmitted);
  EXPECT_EQ(pool.Add(1, 5, Seconds(0), Seconds(0)), AdmitResult::kSignerCapReached);
  pool.TakeReady(Seconds(1), 0, 0, 10, [](TxId) { return 1; },
                 [](TxId) { return 110; }, &expired);
  // TTL expiry releases the slot too.
  EXPECT_EQ(pool.Add(2, 5, Seconds(1), Seconds(2)), AdmitResult::kAdmitted);
  const auto taken = pool.TakeReady(Seconds(30), 0, 0, 10, [](TxId) { return 1; },
                                    [](TxId) { return 110; }, &expired);
  EXPECT_TRUE(taken.empty());
  EXPECT_EQ(expired, (std::vector<TxId>{2}));
  // An over-budget head is treated as expired and must also release its slot.
  EXPECT_EQ(pool.Add(3, 5, Seconds(30), Seconds(30)), AdmitResult::kAdmitted);
  expired.clear();
  pool.TakeReady(Seconds(31), /*gas_budget=*/10, 0, 10,
                 [](TxId) { return 100; }, [](TxId) { return 110; }, &expired);
  EXPECT_EQ(expired, (std::vector<TxId>{3}));
  EXPECT_EQ(pool.Add(4, 5, Seconds(31), Seconds(31)), AdmitResult::kAdmitted);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(MempoolTest, RequeuePreservesReadinessOrder) {
  Mempool pool(MempoolConfig{});
  pool.Add(0, 1, Seconds(0), Seconds(1));
  pool.Add(1, 2, Seconds(0), Seconds(2));
  std::vector<TxId> expired;
  auto taken = pool.TakeReady(Seconds(5), 0, 0, 10, [](TxId) { return 1; },
                              [](TxId) { return 110; }, &expired);
  ASSERT_EQ(taken.size(), 2u);
  // Requeue in reverse; readiness times still dictate the pop order.
  pool.Requeue({1, 0}, {2, 1}, {Seconds(0), Seconds(0)},
               {Seconds(2), Seconds(1)});
  EXPECT_EQ(pool.size(), 2u);
  taken = pool.TakeReady(Seconds(1), 0, 0, 10, [](TxId) { return 1; },
                         [](TxId) { return 110; }, &expired);
  EXPECT_EQ(taken, (std::vector<TxId>{0}));
  taken = pool.TakeReady(Seconds(5), 0, 0, 10, [](TxId) { return 1; },
                         [](TxId) { return 110; }, &expired);
  EXPECT_EQ(taken, (std::vector<TxId>{1}));
}

TEST(VoteRoundTest, ByzantineQuorums) {
  EXPECT_EQ(ByzantineQuorum(4), 3);
  EXPECT_EQ(ByzantineQuorum(7), 5);
  EXPECT_EQ(ByzantineQuorum(10), 7);
  EXPECT_EQ(ByzantineQuorum(200), 133);
}

TEST(VoteRoundTest, QuorumArrivalBasics) {
  Simulation sim(3);
  Network net(&sim, 0.0);
  std::vector<HostId> hosts;
  for (int i = 0; i < 4; ++i) {
    hosts.push_back(net.AddHost(Region::kOhio));
  }
  PairwiseDelays delays(&net, hosts, 256);
  // Everyone sends at t=0; quorum of 3 at receiver 0 is the 3rd earliest
  // arrival (self-vote at 0 counts).
  MessagePlaneScratch scratch;
  std::vector<SimDuration> sends(4, 0);
  const SimDuration q3 = QuorumArrivalInto(delays, sends, 0, 3, 1.0, &scratch);
  EXPECT_GT(q3, 0);
  EXPECT_LT(q3, Milliseconds(5));
  // Quorum of all 4 is later or equal.
  EXPECT_LE(q3, QuorumArrivalInto(delays, sends, 0, 4, 1.0, &scratch));
  // Unreachable senders reduce the vote count.
  sends[1] = kUnreachable;
  sends[2] = kUnreachable;
  EXPECT_EQ(QuorumArrivalInto(delays, sends, 0, 3, 1.0, &scratch), kUnreachable);
}

TEST(VoteRoundTest, MedianDelay) {
  MessagePlaneScratch scratch;
  EXPECT_EQ(MedianDelayInto({}, &scratch), kUnreachable);
  EXPECT_EQ(MedianDelayInto({Seconds(5)}, &scratch), Seconds(5));
  EXPECT_EQ(MedianDelayInto({Seconds(1), kUnreachable, Seconds(3), Seconds(2)}, &scratch),
            Seconds(2));
}

// --- semantics locks for the vote-round reduction plane --------------------
// These pin the exact arithmetic of PairwiseDelays / QuorumArrival[All]Into /
// MedianDelayInto / GossipHopScale — order statistics, hop-scale rounding,
// unreachable filtering — so any rewrite of the message plane stays
// observably identical.

TEST(VoteRoundTest, GossipHopScaleExactValues) {
  EXPECT_DOUBLE_EQ(GossipHopScale(1), 1.0);
  EXPECT_DOUBLE_EQ(GossipHopScale(10), 1.0);
  EXPECT_DOUBLE_EQ(GossipHopScale(25), 1.0);
  EXPECT_DOUBLE_EQ(GossipHopScale(50), 2.0);
  EXPECT_DOUBLE_EQ(GossipHopScale(100), 3.0);
  EXPECT_DOUBLE_EQ(GossipHopScale(200), 4.0);
  EXPECT_DOUBLE_EQ(GossipHopScale(26), 1.0 + std::log2(26.0 / 25.0));
}

TEST(VoteRoundTest, PairwiseDelaysMatchDelaySamples) {
  // With zero jitter every sample of a pair is identical, so the matrix must
  // equal a fresh DelaySample per pair: propagation + transmission, zero on
  // the diagonal, symmetric.
  Simulation sim(5);
  Network net(&sim, /*jitter_frac=*/0.0);
  const DeploymentConfig devnet = GetDeployment("devnet");
  std::vector<HostId> hosts;
  for (int i = 0; i < devnet.node_count; ++i) {
    hosts.push_back(net.AddHost(devnet.NodeRegion(i)));
  }
  PairwiseDelays delays(&net, hosts, 256);
  ASSERT_EQ(delays.size(), hosts.size());
  for (size_t i = 0; i < hosts.size(); ++i) {
    for (size_t j = 0; j < hosts.size(); ++j) {
      if (i == j) {
        EXPECT_EQ(delays.at(i, j), 0);
        continue;
      }
      EXPECT_EQ(delays.at(i, j), net.DelaySample(hosts[i], hosts[j], 256))
          << i << "," << j;
      EXPECT_EQ(delays.at(i, j), delays.at(j, i));
    }
  }
}

TEST(VoteRoundTest, PairwiseDelaysDeterministicPerSeed) {
  // Jittered fills consume the network RNG in a fixed pair order, so two
  // identically-seeded networks produce bit-identical matrices.
  const DeploymentConfig devnet = GetDeployment("devnet");
  auto build = [&](uint64_t seed) {
    Simulation sim(seed);
    Network net(&sim);
    std::vector<HostId> hosts;
    for (int i = 0; i < devnet.node_count; ++i) {
      hosts.push_back(net.AddHost(devnet.NodeRegion(i)));
    }
    PairwiseDelays delays(&net, hosts, 256);
    std::vector<SimDuration> flat;
    for (size_t i = 0; i < hosts.size(); ++i) {
      for (size_t j = 0; j < hosts.size(); ++j) {
        flat.push_back(delays.at(i, j));
      }
    }
    return flat;
  };
  EXPECT_EQ(build(99), build(99));
  EXPECT_NE(build(99), build(100));
}

TEST(VoteRoundTest, QuorumArrivalMatchesSortReference) {
  // The exactness lock: QuorumArrivalInto must return exactly the
  // (quorum-1)-th order statistic of {send[j] + trunc(hop * scale)} over
  // reachable (sender, edge) pairs — for every receiver, quorum and scale —
  // and QuorumArrivalAllInto and MedianDelayInto must agree with the same
  // sorted reference. The inputs cover jittered and zero-jitter (tied)
  // matrices, sender holes, unreachable edges, and the selector's corner
  // cases. One scratch serves every call, as it does in an engine.
  MessagePlaneScratch scratch;
  std::vector<SimDuration> all;
  auto check = [&scratch, &all](const char* label, const PairwiseDelays& delays,
                                const std::vector<SimDuration>& sends) {
    const size_t n = sends.size();
    const size_t f = (n - 1) / 3;
    for (const double hop_scale : {1.0, 2.0, 4.0, 1.0 + std::log2(37.0 / 25.0)}) {
      std::vector<std::vector<SimDuration>> sorted(n);
      for (size_t receiver = 0; receiver < n; ++receiver) {
        for (size_t j = 0; j < n; ++j) {
          if (sends[j] == kUnreachable || delays.at(j, receiver) == kUnreachable) {
            continue;
          }
          sorted[receiver].push_back(
              sends[j] + static_cast<SimDuration>(
                             static_cast<double>(delays.at(j, receiver)) * hop_scale));
        }
        std::sort(sorted[receiver].begin(), sorted[receiver].end());
      }
      for (const size_t quorum : {size_t{1}, f + 1, 2 * f + 1, n}) {
        QuorumArrivalAllInto(delays, sends, quorum, hop_scale, &scratch, &all);
        ASSERT_EQ(all.size(), n);
        std::vector<SimDuration> reachable;
        for (size_t receiver = 0; receiver < n; ++receiver) {
          const std::vector<SimDuration>& arrivals = sorted[receiver];
          const SimDuration expected =
              arrivals.size() < quorum ? kUnreachable : arrivals[quorum - 1];
          EXPECT_EQ(all[receiver], expected) << label << " receiver " << receiver
                                             << " quorum " << quorum << " scale "
                                             << hop_scale;
          if (expected != kUnreachable) {
            reachable.push_back(expected);
          }
          // The per-receiver kernel at this quorum and at the two ends of the
          // receiver's own arrival set: k = 0 and k = cnt - 1.
          for (const size_t q : {quorum, size_t{1}, arrivals.size()}) {
            const SimDuration want =
                q == 0 || arrivals.size() < q ? kUnreachable : arrivals[q - 1];
            EXPECT_EQ(QuorumArrivalInto(delays, sends, receiver, q, hop_scale, &scratch), want)
                << label << " receiver " << receiver << " quorum " << q << " scale "
                << hop_scale;
          }
        }
        std::sort(reachable.begin(), reachable.end());
        EXPECT_EQ(MedianDelayInto(all, &scratch),
                  reachable.empty() ? kUnreachable : reachable[reachable.size() / 2])
            << label << " quorum " << quorum << " scale " << hop_scale;
      }
    }
  };
  Rng rng(7);
  auto random_sends = [&rng](size_t n, uint64_t hole_one_in, SimDuration spread) {
    std::vector<SimDuration> sends(n);
    for (auto& s : sends) {
      s = rng.NextBelow(hole_one_in) == 0
              ? kUnreachable
              : static_cast<SimDuration>(rng.NextBelow(static_cast<uint64_t>(spread)));
    }
    return sends;
  };
  auto hosts_of = [](Network* net, const DeploymentConfig& deployment) {
    std::vector<HostId> hosts;
    for (int i = 0; i < deployment.node_count; ++i) {
      hosts.push_back(net->AddHost(deployment.NodeRegion(i)));
    }
    return hosts;
  };
  {
    // 37 devnet hosts, jittered, with sender holes.
    Simulation sim(1234);
    Network net(&sim);
    DeploymentConfig devnet = GetDeployment("devnet");
    devnet.node_count = 37;
    const PairwiseDelays delays(&net, hosts_of(&net, devnet), 256);
    check("devnet-37", delays, random_sends(37, 8, Seconds(2)));
  }
  const DeploymentConfig consortium = GetDeployment("consortium");
  ASSERT_EQ(consortium.node_count, 200);
  {
    // The paper's consortium: 200 hosts over 10 regions, jittered.
    Simulation sim(1234);
    Network net(&sim);
    const PairwiseDelays delays(&net, hosts_of(&net, consortium), 256);
    check("consortium", delays, random_sends(200, 8, Seconds(2)));
  }
  {
    // Zero jitter: every region pair has one delay, so equal send times make
    // long runs of tied arrivals; every seventh sender is silent.
    Simulation sim(1234);
    Network net(&sim, /*jitter_frac=*/0.0);
    const PairwiseDelays delays(&net, hosts_of(&net, consortium), 256);
    std::vector<SimDuration> sends(200, Seconds(3));
    for (size_t j = 0; j < sends.size(); j += 7) {
      sends[j] = kUnreachable;
    }
    check("consortium-zero-jitter", delays, sends);
  }
  // Explicit row-major matrices: delays[from * n + to].
  auto explicit_matrix = [&rng](size_t n, uint64_t cut_one_in, SimDuration spread) {
    std::vector<SimDuration> row_major(n * n);
    for (size_t from = 0; from < n; ++from) {
      for (size_t to = 0; to < n; ++to) {
        SimDuration& d = row_major[from * n + to];
        if (from == to) {
          d = 0;
        } else if (cut_one_in != 0 && rng.NextBelow(cut_one_in) == 0) {
          d = kUnreachable;
        } else {
          d = static_cast<SimDuration>(rng.NextBelow(static_cast<uint64_t>(spread)));
        }
      }
    }
    return PairwiseDelays(n, std::move(row_major));
  };
  // One edge in ten cut, on top of sender holes.
  check("explicit-unreachable", explicit_matrix(200, 10, Milliseconds(200)),
        random_sends(200, 8, Seconds(2)));
  // Every arrival equal: zero delays everywhere and one send time.
  check("all-equal", PairwiseDelays(64, std::vector<SimDuration>(64 * 64, 0)),
        std::vector<SimDuration>(64, Seconds(3)));
  {
    // Two clusters far apart: a third of the senders start 1000 s late, and
    // every value sits within a microsecond of its cluster. A first bucket
    // step lands each cluster in one bucket of more than 32 values, so the
    // selection must repeat on the bucket's own range.
    std::vector<SimDuration> sends = random_sends(200, 1'000'000, Microseconds(1));
    for (size_t j = 0; j < sends.size(); j += 3) {
      sends[j] += Seconds(1000);
    }
    check("two-clusters", explicit_matrix(200, 0, 64), sends);
  }
}

TEST(VoteRoundTest, QuorumArrivalHopScaleAppliesToNetworkDelayOnly) {
  // One LAN region, zero jitter: every off-diagonal hop is the same h. The
  // scale multiplies h (truncated back to integer ticks), never the send
  // time; a quorum of 1 is satisfied by the instant self-vote.
  Simulation sim(2);
  Network net(&sim, /*jitter_frac=*/0.0);
  std::vector<HostId> hosts;
  for (int i = 0; i < 5; ++i) {
    hosts.push_back(net.AddHost(Region::kOhio));
  }
  PairwiseDelays delays(&net, hosts, 256);
  const SimDuration h = delays.at(0, 1);
  ASSERT_GT(h, 0);
  MessagePlaneScratch scratch;
  const std::vector<SimDuration> sends(5, Seconds(3));
  EXPECT_EQ(QuorumArrivalInto(delays, sends, 0, 1, 2.5, &scratch), Seconds(3));
  EXPECT_EQ(QuorumArrivalInto(delays, sends, 0, 2, 2.5, &scratch),
            Seconds(3) + static_cast<SimDuration>(static_cast<double>(h) * 2.5));
  EXPECT_EQ(QuorumArrivalInto(delays, sends, 0, 2, 1.0, &scratch), Seconds(3) + h);
}

TEST(VoteRoundTest, QuorumArrivalEdgeCases) {
  Simulation sim(3);
  Network net(&sim, 0.0);
  std::vector<HostId> hosts;
  for (int i = 0; i < 4; ++i) {
    hosts.push_back(net.AddHost(Region::kOhio));
  }
  PairwiseDelays delays(&net, hosts, 256);
  MessagePlaneScratch scratch;
  const std::vector<SimDuration> sends(4, 0);
  // Quorum zero is defined as unreachable (no "instant" quorum).
  EXPECT_EQ(QuorumArrivalInto(delays, sends, 0, 0, 1.0, &scratch), kUnreachable);
  // Quorum above the voter count can never assemble.
  EXPECT_EQ(QuorumArrivalInto(delays, sends, 0, 5, 1.0, &scratch), kUnreachable);
  // All senders dark: every receiver is unreachable.
  const std::vector<SimDuration> dark(4, kUnreachable);
  std::vector<SimDuration> all;
  QuorumArrivalAllInto(delays, dark, 1, 1.0, &scratch, &all);
  ASSERT_EQ(all.size(), 4u);
  for (const SimDuration d : all) {
    EXPECT_EQ(d, kUnreachable);
  }
}

TEST(VoteRoundTest, MedianDelayUpperMedianLock) {
  MessagePlaneScratch scratch;
  // Even-sized inputs take the element at index size/2 — the upper median.
  EXPECT_EQ(MedianDelayInto({Seconds(1), Seconds(2), Seconds(3), Seconds(4)}, &scratch),
            Seconds(3));
  EXPECT_EQ(MedianDelayInto({Seconds(4), Seconds(3), Seconds(2), Seconds(1)}, &scratch),
            Seconds(3));
  // Unreachable entries are filtered before the median is taken.
  EXPECT_EQ(MedianDelayInto(
                {kUnreachable, Seconds(9), kUnreachable, Seconds(1), Seconds(5)}, &scratch),
            Seconds(5));
  EXPECT_EQ(MedianDelayInto({kUnreachable, kUnreachable}, &scratch), kUnreachable);
}

TEST(ExecutionModelTest, ScalesWithVcpus) {
  ExecutionModel model;
  model.gas_per_second_per_vcpu = 100e6;
  EXPECT_EQ(model.ExecTime(100'000'000, 1), Seconds(1));
  EXPECT_EQ(model.ExecTime(100'000'000, 4), Milliseconds(250));
}

TEST(CostOracleTest, DeploysAndProfiles) {
  CostOracle oracle(VmDialect::kGeth);
  const int exchange = oracle.Deploy(*FindContract("exchange"));
  ASSERT_GE(exchange, 0);
  const CallProfile& buy = oracle.Profile(exchange, "buy_apple", {});
  EXPECT_EQ(buy.status, VmStatus::kOk);
  EXPECT_GT(buy.gas, LimitsOf(VmDialect::kGeth).intrinsic_gas);
  // Cached: same object returned.
  EXPECT_EQ(&oracle.Profile(exchange, "buy_apple", {}), &buy);
  EXPECT_EQ(oracle.ContractName(exchange), "exchange");
  EXPECT_GE(oracle.FunctionIndex(exchange, "buy_google"), 0);
  EXPECT_EQ(oracle.FunctionIndex(exchange, "nope"), -1);
}

TEST(CostOracleTest, UberBudgetExceededOnCappedDialects) {
  for (const VmDialect dialect :
       {VmDialect::kAvm, VmDialect::kMoveVm, VmDialect::kEbpf}) {
    CostOracle oracle(dialect);
    const int uber = oracle.Deploy(*FindContract("uber"));
    ASSERT_GE(uber, 0) << DialectName(dialect);
    EXPECT_EQ(oracle.Profile(uber, "check_distance", {5000, 5000}).status,
              VmStatus::kBudgetExceeded)
        << DialectName(dialect);
  }
  CostOracle geth(VmDialect::kGeth);
  const int uber = geth.Deploy(*FindContract("uber"));
  EXPECT_EQ(geth.Profile(uber, "check_distance", {5000, 5000}).status, VmStatus::kOk);
}

TEST(CostOracleTest, YoutubeUndeployableOnAvm) {
  CostOracle avm(VmDialect::kAvm);
  EXPECT_EQ(avm.Deploy(*FindContract("youtube")), -1);
  CostOracle geth(VmDialect::kGeth);
  EXPECT_GE(geth.Deploy(*FindContract("youtube")), 0);
}

TEST(ChainContextTest, SubmitBuildFinalize) {
  Simulation sim(11);
  Network net(&sim);
  ChainParams params = GetChainParams("quorum");
  ChainContext ctx(&sim, &net, GetDeployment("testnet"), params);
  EXPECT_EQ(ctx.node_count(), 10);
  EXPECT_EQ(ctx.hosts().size(), 10u);

  // Encode three native transfers.
  std::vector<TxId> ids;
  for (int i = 0; i < 3; ++i) {
    Transaction tx;
    tx.account = static_cast<uint32_t>(i);
    tx.gas = NativeTransferGas(params.dialect);
    tx.size_bytes = kNativeTransferBytes;
    tx.submit_time = 0;
    ids.push_back(ctx.txs().Add(tx));
  }
  int completions = 0;
  ctx.on_tx_complete = [&](TxId) { ++completions; };

  for (const TxId id : ids) {
    EXPECT_TRUE(ctx.SubmitAtEndpoint(id, 0, 0));
    EXPECT_EQ(ctx.txs().at(id).phase, TxPhase::kSubmitted);
  }
  EXPECT_EQ(ctx.mempool().size(), 3u);

  // Nothing is ready immediately (gossip latency), everything within 2 s.
  ChainContext::BuiltBlock empty = ctx.BuildBlock(0, 0);
  EXPECT_EQ(empty.tx_count, 0u);
  ChainContext::BuiltBlock full = ctx.BuildBlock(Seconds(2), 0);
  EXPECT_EQ(full.tx_count, 3u);
  EXPECT_EQ(ctx.BlockTxs(full).size(), 3u);
  EXPECT_GT(full.gas, 0);
  EXPECT_GT(full.bytes, kBlockHeaderBytes);
  EXPECT_GT(full.build_time, 0);

  ctx.FinalizeBlock(1, 0, std::move(full), Seconds(2), Seconds(3));
  EXPECT_EQ(completions, 3);
  EXPECT_EQ(ctx.stats().txs_committed, 3u);
  EXPECT_EQ(ctx.ledger().block_count(), 1u);
  for (const TxId id : ids) {
    EXPECT_EQ(ctx.txs().at(id).phase, TxPhase::kCommitted);
    EXPECT_GE(ctx.txs().at(id).commit_time, Seconds(3));
  }
}

TEST(ChainContextTest, CongestionShrinksBlocks) {
  Simulation sim(13);
  Network net(&sim);
  ChainParams params = GetChainParams("solana");
  params.congestion_threshold = 10;
  params.max_block_txs = 100;
  params.mempool.global_cap = 0;
  params.mempool.ttl = 0;
  ChainContext ctx(&sim, &net, GetDeployment("testnet"), params);
  for (int i = 0; i < 1000; ++i) {
    Transaction tx;
    tx.account = static_cast<uint32_t>(i);
    tx.gas = 1000;
    tx.size_bytes = 100;
    const TxId id = ctx.txs().Add(tx);
    ASSERT_TRUE(ctx.SubmitAtEndpoint(id, 0, 0));
  }
  // Pool of ~1000 vs threshold 10 -> capacity collapses to ~1 tx per block.
  const ChainContext::BuiltBlock block = ctx.BuildBlock(Seconds(5), 0);
  EXPECT_LE(block.tx_count, 5u);
  EXPECT_GE(block.tx_count, 1u);
}

TEST(ChainContextTest, DroppedTxReported) {
  Simulation sim(17);
  Network net(&sim);
  ChainParams params = GetChainParams("ethereum");
  params.mempool.global_cap = 1;
  params.mempool.evict_on_full = false;  // reject instead of replacing
  ChainContext ctx(&sim, &net, GetDeployment("testnet"), params);
  std::vector<TxId> completed;
  ctx.on_tx_complete = [&](TxId id) { completed.push_back(id); };
  Transaction tx;
  tx.gas = 21000;
  tx.size_bytes = 110;
  const TxId a = ctx.txs().Add(tx);
  const TxId b = ctx.txs().Add(tx);
  EXPECT_TRUE(ctx.SubmitAtEndpoint(a, 0, 0));
  EXPECT_FALSE(ctx.SubmitAtEndpoint(b, 0, 0));
  EXPECT_EQ(ctx.txs().at(b).phase, TxPhase::kDropped);
  EXPECT_EQ(completed, (std::vector<TxId>{b}));
  EXPECT_EQ(ctx.stats().txs_dropped, 1u);
}

TEST(ChainParamsTest, TableFourCharacteristics) {
  // Table 4 of the paper.
  const ChainParams algorand = GetChainParams("algorand");
  EXPECT_EQ(algorand.property, "prob.");
  EXPECT_EQ(algorand.vm_name, "AVM");
  EXPECT_EQ(algorand.dapp_language, "PyTeal");

  const ChainParams diem = GetChainParams("diem");
  EXPECT_EQ(diem.property, "det.");
  EXPECT_EQ(diem.consensus_name, "HotStuff");
  EXPECT_EQ(diem.mempool.per_signer_cap, 100u);  // §5.2

  const ChainParams quorum = GetChainParams("quorum");
  EXPECT_EQ(quorum.consensus_name, "IBFT");
  EXPECT_EQ(quorum.mempool.global_cap, 0u);  // never drops

  const ChainParams avalanche = GetChainParams("avalanche");
  EXPECT_EQ(avalanche.block_gas_limit, 8'000'000);           // §5.2
  EXPECT_GE(avalanche.block_interval, MillisecondsF(1900));  // §5.2

  const ChainParams solana = GetChainParams("solana");
  EXPECT_EQ(solana.confirmation_depth, 30);            // §5.2
  EXPECT_EQ(solana.slot_duration, Milliseconds(400));  // §5.2
  EXPECT_EQ(solana.mempool.ttl, Seconds(120));         // §5.2

  const ChainParams ethereum = GetChainParams("ethereum");
  EXPECT_EQ(ethereum.consensus_name, "Clique");
  EXPECT_GT(ethereum.confirmation_depth, 0);

  EXPECT_THROW(GetChainParams("bitcoin"), std::invalid_argument);
  EXPECT_EQ(AllChainParams().size(), 6u);
}

}  // namespace
}  // namespace diablo

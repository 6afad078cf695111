#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/crypto/signature.h"
#include "src/crypto/sortition.h"

namespace diablo {
namespace {

// FIPS 180-4 test vectors.
TEST(Sha256Test, KnownVectors) {
  EXPECT_EQ(DigestHex(Sha256Digest("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(DigestHex(Sha256Digest("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(DigestHex(Sha256Digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    hasher.Update(chunk.data(), chunk.size());
  }
  EXPECT_EQ(DigestHex(hasher.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Sha256 hasher;
  hasher.Update("hello ", 6);
  hasher.Update("world", 5);
  EXPECT_EQ(hasher.Finish(), Sha256Digest("hello world"));
}

TEST(Sha256Test, BoundaryLengths) {
  // Exercise padding around the 55/56/64-byte boundaries.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    const std::string data(len, 'x');
    Sha256 incremental;
    for (char c : data) {
      incremental.Update(&c, 1);
    }
    EXPECT_EQ(incremental.Finish(), Sha256Digest(data)) << len;
  }
}

TEST(Sha256Test, PrefixAndHex) {
  const Digest256 d = Sha256Digest("abc");
  EXPECT_EQ(DigestPrefix64(d) & 0xff, 0xba);
  EXPECT_EQ(DigestHex(d).size(), 64u);
}

TEST(SignatureTest, CostModelShape) {
  const SignatureCost ecdsa = CostOf(SignatureScheme::kEcdsa);
  const SignatureCost ed = CostOf(SignatureScheme::kEd25519);
  const SignatureCost rsa = CostOf(SignatureScheme::kRsa4096);
  // Ed25519 signs faster than ECDSA; RSA4096 signing is the outlier that
  // broke Avalanche's setup in the paper (§5.2).
  EXPECT_LT(ed.sign, ecdsa.sign);
  EXPECT_GT(rsa.sign, 50 * ecdsa.sign);
  EXPECT_LT(rsa.verify, rsa.sign);
  EXPECT_GT(rsa.bytes, ecdsa.bytes);
}

TEST(SortitionTest, DrawsAreDeterministicAndUniform) {
  EXPECT_DOUBLE_EQ(SortitionDraw(1, 2, 3, 4), SortitionDraw(1, 2, 3, 4));
  // Pinned bit for bit, so the reference cannot drift with Sha256's rounds.
  EXPECT_EQ(SortitionDraw(1, 2, 3, 4), 0x1.b72122c388038p-2);
  EXPECT_NE(SortitionDraw(1, 2, 3, 4), SortitionDraw(1, 2, 3, 5));
  double sum = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const double draw = SortitionDraw(9, 9, 9, static_cast<uint64_t>(i));
    EXPECT_GE(draw, 0.0);
    EXPECT_LT(draw, 1.0);
    sum += draw;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

// Selection hashes participants in batches of eight; its committees and
// proposers must equal the ones rebuilt from per-participant SortitionDraw.
// The populations cover every tail shape of the last batch, rounds past
// 2^32 and both the dense and the streamed scale.
TEST(SortitionTest, BatchedSelectionMatchesPerParticipantDraws) {
  std::vector<uint32_t> committee = {99};  // SelectCommitteeInto clears it
  for (const uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{0xdeadbeefcafebabe}}) {
    for (const uint64_t round : {uint64_t{1}, uint64_t{77}, (uint64_t{1} << 32) + 5}) {
      for (const uint32_t population : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 200u, 10000u}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " round " << round
                                        << " population " << population);
        // A committee near Algorand's 60, and one where expected ≥ population.
        const double sizes[] = {std::min(60.0, 0.4 * population), 2.0 * population};
        for (uint64_t step = 0; step < 3; ++step) {
          std::vector<double> draws;
          for (uint32_t p = 0; p < population; ++p) {
            draws.push_back(SortitionDraw(seed, round, step, p));
          }
          for (const double expected : sizes) {
            std::vector<uint32_t> reference;
            for (uint32_t p = 0; p < population; ++p) {
              if (draws[p] < expected / population) {
                reference.push_back(p);
              }
            }
            SelectCommitteeInto(seed, round, step, population, expected, &committee);
            EXPECT_EQ(committee, reference) << "step " << step << " expected " << expected;
          }
          if (step == 0) {
            const uint32_t proposer = static_cast<uint32_t>(
                std::min_element(draws.begin(), draws.end()) - draws.begin());
            EXPECT_EQ(SelectProposer(seed, round, population), proposer);
          }
        }
      }
    }
  }
}

TEST(SortitionTest, CommitteeSizeNearExpected) {
  std::vector<uint32_t> committee;
  SelectCommitteeInto(7, 1, 2, 10000, 100.0, &committee);
  EXPECT_GT(committee.size(), 60u);
  EXPECT_LT(committee.size(), 140u);
  // Members are sorted and unique by construction.
  std::set<uint32_t> unique(committee.begin(), committee.end());
  EXPECT_EQ(unique.size(), committee.size());
}

TEST(SortitionTest, CommitteeChangesPerRound) {
  std::vector<uint32_t> round1;
  std::vector<uint32_t> round2;
  SelectCommitteeInto(7, 1, 0, 1000, 50.0, &round1);
  SelectCommitteeInto(7, 2, 0, 1000, 50.0, &round2);
  EXPECT_NE(round1, round2);
}

TEST(SortitionTest, ProposerInRangeAndRotates) {
  std::set<uint32_t> proposers;
  for (uint64_t round = 0; round < 50; ++round) {
    const uint32_t p = SelectProposer(3, round, 20);
    EXPECT_LT(p, 20u);
    proposers.insert(p);
  }
  // Over 50 rounds many distinct proposers should appear.
  EXPECT_GT(proposers.size(), 10u);
}

}  // namespace
}  // namespace diablo

#include "profiler/profile_io.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/fault_injection.hpp"
#include "test_dir.hpp"

namespace stac::profiler {
namespace {

Profile sample_profile(std::uint64_t seed) {
  Profile p;
  p.condition.primary = wl::Benchmark::kSocial;
  p.condition.collocated = wl::Benchmark::kRedis;
  p.condition.util_primary = 0.87;
  p.condition.util_collocated = 0.31;
  p.condition.timeout_primary = 1.25;
  p.condition.timeout_collocated = 4.5;
  p.condition.mix_primary = 1.17;
  p.condition.mix_collocated = 0.93;
  p.condition.churn = 0.42;
  p.condition.seed = seed;
  p.ea = 0.381;
  p.ea_boost = 0.442;
  p.mean_rt = 2.75;
  p.p95_rt = 6.125;
  p.mean_rt_default = 3.5;
  p.p95_rt_default = 8.25;
  p.mean_service = 0.9;
  p.scaled_base_primary = 7.5;
  p.allocation_ratio = 3.0;
  p.statics = {0.87, 1.25, 0.31, 4.5, 1.0, 2.0, 3.0};
  p.dynamics = {0.12, 0.5, 0.03, 0.0};
  p.image = Matrix(3, 4);
  Rng rng(seed);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c) p.image(r, c) = rng.uniform() * 1e6;
  return p;
}

class ProfileIo : public ::testing::Test {
 protected:
  TestDir dir_;
  const std::string kPath = dir_.file("profiles.txt");
};

TEST_F(ProfileIo, RoundTripIsBitExact) {
  std::vector<Profile> profiles{sample_profile(1), sample_profile(2),
                                sample_profile(3)};
  save_profiles(kPath, profiles);
  const auto loaded = load_profiles(kPath);
  ASSERT_EQ(loaded.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const Profile& a = profiles[i];
    const Profile& b = loaded[i];
    EXPECT_EQ(a.condition.primary, b.condition.primary);
    EXPECT_EQ(a.condition.collocated, b.condition.collocated);
    EXPECT_DOUBLE_EQ(a.condition.util_primary, b.condition.util_primary);
    EXPECT_DOUBLE_EQ(a.condition.timeout_collocated,
                     b.condition.timeout_collocated);
    EXPECT_DOUBLE_EQ(a.condition.mix_primary, b.condition.mix_primary);
    EXPECT_DOUBLE_EQ(a.condition.churn, b.condition.churn);
    EXPECT_EQ(a.condition.seed, b.condition.seed);
    EXPECT_DOUBLE_EQ(a.ea, b.ea);
    EXPECT_DOUBLE_EQ(a.ea_boost, b.ea_boost);
    EXPECT_DOUBLE_EQ(a.mean_rt, b.mean_rt);
    EXPECT_DOUBLE_EQ(a.scaled_base_primary, b.scaled_base_primary);
    ASSERT_EQ(a.statics.size(), b.statics.size());
    for (std::size_t j = 0; j < a.statics.size(); ++j)
      EXPECT_DOUBLE_EQ(a.statics[j], b.statics[j]);
    ASSERT_EQ(a.dynamics, b.dynamics);
    ASSERT_EQ(a.image.rows(), b.image.rows());
    ASSERT_EQ(a.image.cols(), b.image.cols());
    for (std::size_t r = 0; r < a.image.rows(); ++r)
      for (std::size_t col = 0; col < a.image.cols(); ++col)
        EXPECT_DOUBLE_EQ(a.image(r, col), b.image(r, col));
  }
}

TEST_F(ProfileIo, EmptySetRoundTrips) {
  save_profiles(kPath, {});
  EXPECT_TRUE(load_profiles(kPath).empty());
}

TEST_F(ProfileIo, RejectsMissingFile) {
  EXPECT_THROW((void)load_profiles(dir_.file("missing.txt")),
               ContractViolation);
}

TEST_F(ProfileIo, RejectsWrongMagic) {
  {
    std::ofstream out(kPath);
    out << "not-a-profile v1 0\n";
  }
  EXPECT_THROW((void)load_profiles(kPath), ContractViolation);
}

TEST_F(ProfileIo, RejectsWrongVersion) {
  {
    std::ofstream out(kPath);
    out << "stac-profiles v999 0\n";
  }
  EXPECT_THROW((void)load_profiles(kPath), ContractViolation);
}

TEST_F(ProfileIo, SavedFilesCarryPerRecordChecksums) {
  save_profiles(kPath, {sample_profile(1), sample_profile(2)});
  std::ifstream in(kPath);
  std::string line;
  std::size_t checksums = 0;
  while (std::getline(in, line))
    if (line.rfind("checksum ", 0) == 0) ++checksums;
  EXPECT_EQ(checksums, 2u);
}

TEST_F(ProfileIo, ResilientLoadQuarantinesCorruptRecord) {
  save_profiles(kPath, {sample_profile(1), sample_profile(2),
                        sample_profile(3)});
  // Damage the middle record's payload: checksum mismatch, structure kept.
  // v2 layout: header line, then 5 lines per record (meta, statics,
  // dynamics, image, checksum) — line 6 is record 1's meta line.
  std::vector<std::string> lines;
  {
    std::ifstream in(kPath);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 1u + 3 * 5);
  lines[6][lines[6].size() - 1] ^= 1;  // flip a payload bit
  {
    std::ofstream out(kPath);
    for (const auto& line : lines) out << line << '\n';
  }
  const ProfileLoadReport report = load_profiles_resilient(kPath);
  EXPECT_FALSE(report.file_quarantined);
  EXPECT_FALSE(report.clean());
  ASSERT_EQ(report.profiles.size(), 2u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].index, 1u);
  EXPECT_NE(report.quarantined[0].reason.find("checksum"),
            std::string::npos);
  // Records around the damage survive intact (alignment kept).
  EXPECT_EQ(report.profiles[0].condition.seed, 1u);
  EXPECT_EQ(report.profiles[1].condition.seed, 3u);
  // The strict loader refuses the same file loudly.
  EXPECT_THROW((void)load_profiles(kPath), ContractViolation);
}

TEST_F(ProfileIo, ResilientLoadQuarantinesTruncatedTail) {
  save_profiles(kPath, {sample_profile(1), sample_profile(2)});
  std::string text;
  {
    std::ifstream in(kPath);
    std::stringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  // Chop the file in the middle of the second record.
  const std::size_t first_cs = text.find("checksum ");
  ASSERT_NE(first_cs, std::string::npos);
  const std::size_t cut = text.find('\n', first_cs);
  {
    std::ofstream out(kPath);
    out << text.substr(0, cut + 30);
  }
  const ProfileLoadReport report = load_profiles_resilient(kPath);
  EXPECT_FALSE(report.file_quarantined);
  ASSERT_EQ(report.profiles.size(), 1u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].index, 1u);
  EXPECT_NE(report.quarantined[0].reason.find("truncated"),
            std::string::npos);
}

TEST_F(ProfileIo, ResilientLoadAcceptsV1FilesWithoutChecksums) {
  save_profiles(kPath, {sample_profile(4), sample_profile(5)});
  // Rewrite as a v1 file: old header, no checksum trailers.
  std::string text;
  {
    std::ifstream in(kPath);
    std::stringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  std::istringstream lines(text);
  std::ostringstream v1;
  std::string line;
  bool first = true;
  while (std::getline(lines, line)) {
    if (first) {
      v1 << "stac-profiles v1 2\n";
      first = false;
      continue;
    }
    if (line.rfind("checksum ", 0) == 0) continue;
    v1 << line << '\n';
  }
  {
    std::ofstream out(kPath);
    out << v1.str();
  }
  const ProfileLoadReport report = load_profiles_resilient(kPath);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.version, 1);
  ASSERT_EQ(report.profiles.size(), 2u);
  EXPECT_EQ(report.profiles[0].condition.seed, 4u);
  // v1 files also still satisfy the strict loader.
  EXPECT_EQ(load_profiles(kPath).size(), 2u);
}

TEST_F(ProfileIo, ResilientLoadQuarantinesWholeFileOnMissingOrBadHeader) {
  auto report = load_profiles_resilient(dir_.file("missing.txt"));
  EXPECT_TRUE(report.file_quarantined);
  EXPECT_TRUE(report.profiles.empty());
  {
    std::ofstream out(kPath);
    out << "not-a-profile v1 0\n";
  }
  report = load_profiles_resilient(kPath);
  EXPECT_TRUE(report.file_quarantined);
}

TEST_F(ProfileIo, InjectedIoFaultQuarantinesFile) {
  save_profiles(kPath, {sample_profile(9)});
  FaultPlan plan;
  plan.add({.point = "io.load_profile",
            .action = FaultAction::kThrow,
            .every_nth = 1,
            .message = "disk unreadable"});
  {
    FaultScope scope(plan);
    const ProfileLoadReport report = load_profiles_resilient(kPath);
    EXPECT_TRUE(report.file_quarantined);
    EXPECT_EQ(report.file_reason, "disk unreadable");
    EXPECT_THROW((void)load_profiles(kPath), ContractViolation);
  }
  // Chaos disarmed: the same file loads fine.
  EXPECT_EQ(load_profiles(kPath).size(), 1u);
}

TEST_F(ProfileIo, RejectsTruncatedRecord) {
  std::vector<Profile> profiles{sample_profile(7)};
  save_profiles(kPath, profiles);
  // Truncate the file in the middle of the record.
  std::string contents;
  {
    std::ifstream in(kPath);
    std::getline(in, contents);  // header only
  }
  {
    std::ofstream out(kPath);
    out << contents << "\n";  // claims 1 profile, provides none
  }
  EXPECT_THROW((void)load_profiles(kPath), ContractViolation);
}

}  // namespace
}  // namespace stac::profiler

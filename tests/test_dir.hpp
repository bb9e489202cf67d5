// Per-test scratch directory for tests that write files.
//
// ctest runs every TEST as its own process (gtest_discover_tests), so
// under `ctest -j` a fixed path shared by two tests lets one overwrite the
// other's files.  A TestDir is named after the running test and the
// process id, created empty on construction and removed, with everything
// in it, on destruction.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace stac {

class TestDir {
 public:
  TestDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info != nullptr ? std::string(info->test_suite_name()) +
                                             "." + info->name()
                                       : std::string("stac_test");
    for (char& ch : name)
      if (ch == '/') ch = '_';  // parameterized test names
    path_ = std::filesystem::temp_directory_path() /
            (name + "." + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TestDir() {
    std::error_code ec;  // teardown must not throw
    std::filesystem::remove_all(path_, ec);
  }
  TestDir(const TestDir&) = delete;
  TestDir& operator=(const TestDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  /// Path of `leaf` inside the directory.
  [[nodiscard]] std::string file(std::string_view leaf) const {
    return (path_ / leaf).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace stac

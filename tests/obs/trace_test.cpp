#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "test_dir.hpp"

namespace stac::obs {
namespace {

/// Every test here toggles the process-global recording flag; restore it so
/// test order never matters.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = enabled();
    TraceBuffer::global().clear();
  }
  void TearDown() override {
    TraceBuffer::global().clear();
    set_enabled(was_enabled_);
  }
  bool was_enabled_ = false;
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  set_enabled(false);
  {
    STAC_TRACE_SPAN(span, "noop", "test");
    span.arg("x", 1.0);
  }
  instant("noop.instant", "test");
  EXPECT_EQ(TraceBuffer::global().size(), 0u);
}

TEST_F(TraceTest, SpanRecordsCompleteEvent) {
  set_enabled(true);
  {
    STAC_TRACE_SPAN(span, "work", "test");
    span.arg("items", std::uint64_t{42});
    span.arg("label", std::string("abc"));
  }
  const auto events = TraceBuffer::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "work");
  EXPECT_EQ(events[0].cat, "test");
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kComplete);
  EXPECT_GT(events[0].tid, 0u);
  ASSERT_EQ(events[0].args.size(), 2u);
  EXPECT_EQ(events[0].args[0].first, "items");
  EXPECT_EQ(events[0].args[0].second, "42");
  EXPECT_EQ(events[0].args[1].second, "\"abc\"");
}

TEST_F(TraceTest, FinishIsIdempotent) {
  set_enabled(true);
  {
    STAC_TRACE_SPAN(span, "once", "test");
    span.finish();
    span.finish();  // destructor will be the third call
  }
  EXPECT_EQ(TraceBuffer::global().size(), 1u);
}

TEST_F(TraceTest, InstantRecordsPointEvent) {
  set_enabled(true);
  instant("fault.hit", "fault");
  const auto events = TraceBuffer::global().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kInstant);
  EXPECT_EQ(events[0].cat, "fault");
}

TEST_F(TraceTest, SpanOpenedBeforeDisableStillRecords) {
  // The active flag is latched at construction: a span that began while
  // tracing was on finishes its record even if tracing is switched off
  // mid-flight (and vice versa: late enabling does not create spans
  // retroactively).
  set_enabled(true);
  TraceSpan span("latched", "test");
  set_enabled(false);
  span.finish();
  EXPECT_EQ(TraceBuffer::global().size(), 1u);
}

TEST_F(TraceTest, BufferCapCountsDropped) {
  set_enabled(true);
  TraceBuffer::global().set_capacity(4);
  for (int i = 0; i < 10; ++i) instant("spam", "test");
  EXPECT_EQ(TraceBuffer::global().size(), 4u);
  EXPECT_EQ(TraceBuffer::global().dropped(), 6u);
  TraceBuffer::global().set_capacity(1u << 20);
}

TEST_F(TraceTest, ChromeTraceJsonShape) {
  set_enabled(true);
  {
    STAC_TRACE_SPAN(span, "json \"span\"", "queueing");
    span.arg("utilization", 0.75);
  }
  instant("chaos", "fault");
  const std::string json = TraceBuffer::global().chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"queueing\""), std::string::npos);
  // Quotes in names must be escaped or the document is unparseable.
  EXPECT_NE(json.find("json \\\"span\\\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST_F(TraceTest, WriteChromeTraceRoundTrips) {
  set_enabled(true);
  instant("written", "test");
  const TestDir dir;
  const std::string path = dir.file("trace.json");
  ASSERT_TRUE(TraceBuffer::global().write_chrome_trace(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("written"), std::string::npos);
}

TEST_F(TraceTest, ThreadsGetDistinctStableIds) {
  const std::uint32_t main_tid = thread_id();
  EXPECT_EQ(thread_id(), main_tid);  // stable on re-query
  std::uint32_t other_tid = 0;
  std::thread t([&] { other_tid = thread_id(); });
  t.join();
  EXPECT_NE(other_tid, 0u);
  EXPECT_NE(other_tid, main_tid);
}

TEST_F(TraceTest, NowUsIsMonotone) {
  const auto a = now_us();
  const auto b = now_us();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace stac::obs

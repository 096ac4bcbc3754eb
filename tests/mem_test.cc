// Unit tests for the memory system model and the physical frame allocator.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <stdexcept>

#include "src/mem/frame_allocator.h"
#include "src/mem/memory_system.h"
#include "src/stats/counters.h"

namespace fsio {
namespace {

TEST(MemorySystemTest, UncontendedReadCostsBaseLatency) {
  StatsRegistry stats;
  MemoryConfig config;
  config.access_latency_ns = 90;
  MemorySystem mem(config, &stats);
  EXPECT_EQ(mem.Read(1000, 64), 1090u);
}

TEST(MemorySystemTest, SmallReadsRoundUpToCacheline) {
  StatsRegistry stats;
  MemorySystem mem(MemoryConfig{}, &stats);
  mem.Read(0, 8);
  EXPECT_EQ(mem.total_bytes(), kCachelineSize);
}

TEST(MemorySystemTest, BankContentionDelaysBurst) {
  StatsRegistry stats;
  MemoryConfig config;
  config.access_latency_ns = 100;
  config.parallel_banks = 2;
  config.bandwidth_gbps = 64;  // 8 B/ns total, 4 B/ns per bank
  MemorySystem mem(config, &stats);
  // 6 reads of 256 B at t=0 on 2 banks: occupancy 64 ns each -> the last
  // pair is granted at t=128.
  TimeNs last = 0;
  for (int i = 0; i < 6; ++i) {
    last = mem.Read(0, 256);
  }
  EXPECT_EQ(last, 228u);
  EXPECT_GT(stats.Value("mem.queued_ns"), 0u);
}

TEST(MemorySystemTest, EarliestFreeBankIsChosen) {
  StatsRegistry stats;
  MemoryConfig config;
  config.access_latency_ns = 100;
  config.parallel_banks = 4;
  MemorySystem mem(config, &stats);
  // A far-future posted write must not delay a near-term read: other banks
  // are still free.
  mem.Post(1'000'000, 4096);
  EXPECT_EQ(mem.Read(0, 64), 100u);
}

TEST(MemorySystemTest, PostConsumesBandwidthOnly) {
  StatsRegistry stats;
  MemoryConfig config;
  config.parallel_banks = 1;
  config.bandwidth_gbps = 8;  // 1 B/ns
  MemorySystem mem(config, &stats);
  mem.Post(0, 1000);  // occupies the single bank for 1000 ns
  const TimeNs done = mem.Read(0, 64);
  EXPECT_GE(done, 1000u + config.access_latency_ns);
}

// Configs the bandwidth model cannot honour are rejected at construction
// rather than clamped or turned into infinite occupancies.
struct BadMemoryConfig {
  const char* name;
  std::function<void(MemoryConfig*)> apply;
};

void PrintTo(const BadMemoryConfig& c, std::ostream* os) { *os << c.name; }

class MemoryConfigValidation : public ::testing::TestWithParam<BadMemoryConfig> {};

TEST_P(MemoryConfigValidation, ConstructorThrows) {
  StatsRegistry stats;
  MemoryConfig config;
  GetParam().apply(&config);
  EXPECT_THROW(MemorySystem(config, &stats), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    Fields, MemoryConfigValidation,
    ::testing::Values(
        BadMemoryConfig{"parallel_banks_zero", [](MemoryConfig* c) { c->parallel_banks = 0; }},
        BadMemoryConfig{"bandwidth_zero", [](MemoryConfig* c) { c->bandwidth_gbps = 0.0; }},
        BadMemoryConfig{"bandwidth_negative",
                        [](MemoryConfig* c) { c->bandwidth_gbps = -375.0; }}),
    [](const ::testing::TestParamInfo<BadMemoryConfig>& info) { return info.param.name; });

TEST(FrameAllocatorTest, AllocatesUniquePageAlignedFrames) {
  FrameAllocator frames;
  std::set<PhysAddr> seen;
  for (int i = 0; i < 1000; ++i) {
    const PhysAddr addr = frames.AllocFrame();
    EXPECT_EQ(addr % kPageSize, 0u);
    EXPECT_TRUE(seen.insert(addr).second);
  }
  EXPECT_EQ(frames.live(), 1000u);
}

TEST(FrameAllocatorTest, FreeListRecyclesLifo) {
  FrameAllocator frames;
  const PhysAddr a = frames.AllocFrame();
  const PhysAddr b = frames.AllocFrame();
  frames.FreeFrame(a);
  frames.FreeFrame(b);
  EXPECT_EQ(frames.AllocFrame(), b);
  EXPECT_EQ(frames.AllocFrame(), a);
}

TEST(FrameAllocatorTest, ScrambledFramesAreStillUnique) {
  FrameAllocator frames(/*scramble=*/true, /*seed=*/7);
  std::set<PhysAddr> seen;
  for (int i = 0; i < 5000; ++i) {
    EXPECT_TRUE(seen.insert(frames.AllocFrame()).second);
  }
}

TEST(FrameAllocatorTest, LiveCountTracksFrees) {
  FrameAllocator frames;
  const PhysAddr a = frames.AllocFrame();
  EXPECT_EQ(frames.live(), 1u);
  frames.FreeFrame(a);
  EXPECT_EQ(frames.live(), 0u);
  EXPECT_EQ(frames.allocated(), 1u);
}

}  // namespace
}  // namespace fsio

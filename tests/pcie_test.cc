// Tests for the PCIe link / root-complex model: TLP chopping, flow control,
// in-order commit with lookahead translation, read parallelism, config
// validation, and a lockstep check of the page-run datapath against the
// per-TLP loop it replaced.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/faults/safety_oracle.h"
#include "src/iommu/iommu.h"
#include "src/mem/memory_system.h"
#include "src/pagetable/io_page_table.h"
#include "src/pcie/root_complex.h"
#include "src/simcore/rng.h"
#include "src/stats/counters.h"

namespace fsio {
namespace {

class PcieTest : public ::testing::Test {
 protected:
  void Build(bool with_iommu, PcieConfig pcie_config = PcieConfig{},
             IommuConfig iommu_config = IommuConfig{}) {
    stats_ = std::make_unique<StatsRegistry>();
    MemoryConfig mem_config;
    mem_config.access_latency_ns = 100;
    memory_ = std::make_unique<MemorySystem>(mem_config, stats_.get());
    page_table_ = std::make_unique<IoPageTable>();
    iommu_.reset();
    if (with_iommu) {
      iommu_ = std::make_unique<Iommu>(iommu_config, memory_.get(), page_table_.get(),
                                       stats_.get());
    }
    rc_ = std::make_unique<RootComplex>(pcie_config, iommu_.get(), memory_.get(), stats_.get());
  }

  // Maps `pages` pages starting at `base` and returns one segment per page.
  std::vector<DmaSegment> MapPages(Iova base, int pages) {
    std::vector<DmaSegment> segments;
    for (int i = 0; i < pages; ++i) {
      const Iova iova = base + static_cast<Iova>(i) * kPageSize;
      page_table_->Map(iova, 0x10000000 + i * kPageSize);
      segments.push_back(DmaSegment{iova, static_cast<std::uint32_t>(kPageSize)});
    }
    return segments;
  }

  std::unique_ptr<StatsRegistry> stats_;
  std::unique_ptr<MemorySystem> memory_;
  std::unique_ptr<IoPageTable> page_table_;
  std::unique_ptr<Iommu> iommu_;
  std::unique_ptr<RootComplex> rc_;
};

TEST_F(PcieTest, WriteChopsIntoMaxPayloadTlps) {
  Build(false);
  const std::vector<DmaSegment> seg = {{0x1000, 4096}};
  rc_->DmaWrite(0, seg);
  EXPECT_EQ(stats_->Value("pcie.write_tlps"), 4096u / 256u);
}

TEST_F(PcieTest, TlpsDoNotCrossPageBoundaries) {
  Build(false);
  // A segment starting 128 bytes before a page boundary.
  const std::vector<DmaSegment> seg = {{0x1000 - 128, 512}};
  rc_->DmaWrite(0, seg);
  // 128 bytes, then 256 + 128 after the boundary = 3 TLPs.
  EXPECT_EQ(stats_->Value("pcie.write_tlps"), 3u);
}

TEST_F(PcieTest, BypassWriteRunsAtLinkRate) {
  Build(false);
  // 64 KB: wire time = 256 TLPs * (282 bytes / 16 B/ns) ≈ 4.5 us.
  std::vector<DmaSegment> segments;
  for (int i = 0; i < 16; ++i) {
    segments.push_back(DmaSegment{static_cast<Iova>(0x100000 + i * kPageSize), 4096});
  }
  const DmaTiming t = rc_->DmaWrite(0, segments);
  const double gbps = 65536.0 * 8.0 / static_cast<double>(t.commit_done);
  EXPECT_GT(gbps, 100.0);  // PCIe-limited, above NIC rate
  EXPECT_LE(gbps, 128.0);
}

TEST_F(PcieTest, LinkDoneBeforeCommitDone) {
  Build(true);
  auto segments = MapPages(0x100000, 4);
  const DmaTiming t = rc_->DmaWrite(0, segments);
  EXPECT_LE(t.link_done, t.commit_done);
}

TEST_F(PcieTest, TranslationStallReducesWriteThroughput) {
  // Same DMA with and without IOMMU. With PTcaches disabled every page pays
  // a full 4-read walk, which exceeds the per-page drain slack and stalls
  // the in-order commit pipe.
  Build(false);
  std::vector<DmaSegment> segments;
  for (int i = 0; i < 64; ++i) {
    segments.push_back(DmaSegment{static_cast<Iova>(0x100000 + i * kPageSize), 4096});
  }
  const DmaTiming off = rc_->DmaWrite(0, segments);

  IommuConfig no_ptc;
  no_ptc.ptcache_enabled = false;
  Build(true, PcieConfig{}, no_ptc);
  auto mapped = MapPages(0x100000, 64);
  const DmaTiming on = rc_->DmaWrite(0, mapped);
  EXPECT_GT(on.commit_done, off.commit_done + 64 * 100);
}

TEST_F(PcieTest, ContiguousPagesShareOnePtL4PageAndStayFast) {
  // 64 contiguous pages live in one PT-L4 page: after the first full walk,
  // every page's miss costs a single PTE read (PTcache-L3 hit) and hides
  // under the drain slack — the mechanism F&S builds on.
  Build(true);
  auto mapped = MapPages(0x100000, 64);
  const DmaTiming on = rc_->DmaWrite(0, mapped);
  Build(false);
  std::vector<DmaSegment> raw;
  for (int i = 0; i < 64; ++i) {
    raw.push_back(DmaSegment{static_cast<Iova>(0x100000 + i * kPageSize), 4096});
  }
  const DmaTiming off = rc_->DmaWrite(0, raw);
  EXPECT_LT(on.commit_done, off.commit_done + 1000);
}

TEST_F(PcieTest, WarmIotlbWriteMatchesBypass) {
  Build(true);
  auto mapped = MapPages(0x100000, 32);
  rc_->DmaWrite(0, mapped);  // warm all IOTLB entries
  const TimeNs start = 1000000;
  const DmaTiming warm = rc_->DmaWrite(start, mapped);

  Build(false);
  std::vector<DmaSegment> raw;
  for (int i = 0; i < 32; ++i) {
    raw.push_back(DmaSegment{static_cast<Iova>(0x100000 + i * kPageSize), 4096});
  }
  const DmaTiming off = rc_->DmaWrite(start, raw);
  const std::uint64_t warm_dur = warm.commit_done - start;
  const std::uint64_t off_dur = off.commit_done - start;
  EXPECT_NEAR(static_cast<double>(warm_dur), static_cast<double>(off_dur),
              static_cast<double>(off_dur) * 0.02);
}

TEST_F(PcieTest, SingleCheapMissPerPageHidesUnderDrain) {
  // The F&S regime: PTcache-L3 warm, so each page costs one ~100 ns read,
  // which overlaps with the previous page's commit. Throughput ≈ bypass.
  Build(true);
  auto mapped = MapPages(0x100000, 64);
  // Warm PTcaches (and IOTLB)...
  rc_->DmaWrite(0, mapped);
  // ...then kill only the IOTLB (strict unmap/remap cycle, F&S-style).
  for (const auto& seg : mapped) {
    iommu_->InvalidateRange(seg.iova, kPageSize, /*leaf_only=*/true, 500000);
  }
  const TimeNs start = 1000000;
  const DmaTiming fs = rc_->DmaWrite(start, mapped);
  const double dur_ns = static_cast<double>(fs.commit_done - start);
  const double gbps = 64.0 * 4096.0 * 8.0 / dur_ns;
  // Must stay within a few percent of the ~116 Gbps wire-limited rate.
  EXPECT_GT(gbps, 105.0);
}

TEST_F(PcieTest, ColdWalksCollapseThroughput) {
  // The strict-mode worst case: every page misses all PTcaches.
  Build(true);
  IommuConfig no_ptc;
  no_ptc.ptcache_enabled = false;
  Build(true, PcieConfig{}, no_ptc);
  auto mapped = MapPages(0x100000, 64);
  rc_->DmaWrite(0, mapped);
  for (const auto& seg : mapped) {
    iommu_->InvalidateRange(seg.iova, kPageSize, true, 500000);
  }
  const TimeNs start = 1000000;
  const DmaTiming t = rc_->DmaWrite(start, mapped);
  const double gbps = 64.0 * 4096.0 * 8.0 / static_cast<double>(t.commit_done - start);
  EXPECT_LT(gbps, 85.0);  // 4 sequential reads per page stall the pipe
}

TEST_F(PcieTest, ReadCompletionsComeBackDownstream) {
  Build(false);
  const std::vector<DmaSegment> seg = {{0x1000, 4096}};
  const DmaTiming t = rc_->DmaRead(0, seg);
  EXPECT_EQ(stats_->Value("pcie.read_tlps"), 16u);
  // Read latency includes memory access.
  EXPECT_GE(t.commit_done, 100u);
}

TEST_F(PcieTest, ReadsTolerateTranslationLatencyBetterThanWrites) {
  // §4.1: with many outstanding read requests, per-request latency inflation
  // hurts reads less than in-order writes. Compare relative slowdowns.
  Build(true);
  IommuConfig no_ptc;
  no_ptc.ptcache_enabled = false;

  // Writes, cold walks:
  Build(true, PcieConfig{}, no_ptc);
  auto mapped = MapPages(0x100000, 64);
  const DmaTiming w_cold = rc_->DmaWrite(0, mapped);
  // Writes, bypass:
  Build(false);
  std::vector<DmaSegment> raw;
  for (int i = 0; i < 64; ++i) {
    raw.push_back(DmaSegment{static_cast<Iova>(0x100000 + i * kPageSize), 4096});
  }
  const DmaTiming w_off = rc_->DmaWrite(0, raw);

  // Reads, cold walks:
  Build(true, PcieConfig{}, no_ptc);
  mapped = MapPages(0x100000, 64);
  const DmaTiming r_cold = rc_->DmaRead(0, mapped);
  // Reads, bypass:
  Build(false);
  const DmaTiming r_off = rc_->DmaRead(0, raw);

  const double write_slowdown =
      static_cast<double>(w_cold.commit_done) / static_cast<double>(w_off.commit_done);
  const double read_slowdown =
      static_cast<double>(r_cold.commit_done) / static_cast<double>(r_off.commit_done);
  EXPECT_LT(read_slowdown, write_slowdown);
}

TEST_F(PcieTest, RcBufferLimitsInFlightBytes) {
  // With a tiny RC buffer and artificially slow commits, the link must stall.
  PcieConfig small;
  small.rc_buffer_bytes = 512;
  small.commit_bytes_per_ns = 0.5;  // very slow drain
  Build(false, small);
  std::vector<DmaSegment> seg = {{0x1000, 4096}};
  rc_->DmaWrite(0, seg);
  EXPECT_GT(stats_->Value("pcie.stall_ns"), 0u);
}

TEST_F(PcieTest, FaultedTransactionsAreDroppedAndCounted) {
  Build(true);
  // Unmapped IOVA: every TLP faults.
  std::vector<DmaSegment> seg = {{0x7000, 4096}};
  const DmaTiming t = rc_->DmaWrite(0, seg);
  EXPECT_TRUE(t.fault);
  EXPECT_EQ(stats_->Value("pcie.faults"), 16u);
}

TEST_F(PcieTest, OutstandingReadLimitThrottles) {
  PcieConfig few;
  few.max_outstanding_reads = 1;
  Build(false, few);
  std::vector<DmaSegment> seg;
  for (int i = 0; i < 8; ++i) {
    seg.push_back(DmaSegment{static_cast<Iova>(0x100000 + i * kPageSize), 4096});
  }
  const DmaTiming serial = rc_->DmaRead(0, seg);

  PcieConfig many;
  many.max_outstanding_reads = 64;
  Build(false, many);
  const DmaTiming parallel = rc_->DmaRead(0, seg);
  EXPECT_GT(serial.commit_done, parallel.commit_done);
}

// Each field that would hang, index an empty queue or cast an infinite
// double is rejected at construction.
struct BadPcieConfig {
  const char* name;
  std::function<void(PcieConfig*)> apply;
};

void PrintTo(const BadPcieConfig& c, std::ostream* os) { *os << c.name; }

class PcieConfigValidation : public ::testing::TestWithParam<BadPcieConfig> {};

TEST_P(PcieConfigValidation, ConstructorThrows) {
  StatsRegistry stats;
  MemorySystem memory(MemoryConfig{}, &stats);
  PcieConfig config;
  GetParam().apply(&config);
  EXPECT_THROW(RootComplex(config, nullptr, &memory, &stats), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    Fields, PcieConfigValidation,
    ::testing::Values(
        BadPcieConfig{"max_payload_zero", [](PcieConfig* c) { c->max_payload_bytes = 0; }},
        BadPcieConfig{"outstanding_reads_zero",
                      [](PcieConfig* c) { c->max_outstanding_reads = 0; }},
        BadPcieConfig{"link_gbps_zero", [](PcieConfig* c) { c->link_gbps = 0.0; }},
        BadPcieConfig{"link_gbps_negative", [](PcieConfig* c) { c->link_gbps = -1.0; }},
        BadPcieConfig{"commit_rate_zero", [](PcieConfig* c) { c->commit_bytes_per_ns = 0.0; }},
        BadPcieConfig{"commit_rate_negative",
                      [](PcieConfig* c) { c->commit_bytes_per_ns = -2.0; }}),
    [](const ::testing::TestParamInfo<BadPcieConfig>& info) { return info.param.name; });

// The per-TLP root-complex loop the page-run datapath replaced, kept here
// as the reference: every TLP goes through Iommu::Translate, and the RC
// buffer and the outstanding reads are deques. (No fault injector or trace:
// the lockstep attaches neither.)
class ReferenceRootComplex {
 public:
  ReferenceRootComplex(const PcieConfig& config, Iommu* iommu, MemorySystem* memory,
                       StatsRegistry* stats)
      : config_(config),
        iommu_(iommu),
        memory_(memory),
        write_tlps_(stats->Get("pcie.write_tlps")),
        read_tlps_(stats->Get("pcie.read_tlps")),
        wire_bytes_(stats->Get("pcie.wire_bytes")),
        stall_ns_(stats->Get("pcie.stall_ns")),
        faults_(stats->Get("pcie.faults")) {
    // Registered so both stacks' snapshots carry the same counter names.
    stats->Get("pcie.backpressure_bursts");
  }

  DmaTiming DmaWrite(TimeNs start, const std::vector<DmaSegment>& segments) {
    DmaTiming timing;
    TimeNs t = start;
    for (const DmaSegment& seg : segments) {
      std::uint32_t off = 0;
      while (off < seg.len) {
        const Iova iova = seg.iova + off;
        const std::uint32_t payload = Payload(seg, off);
        write_tlps_->Add();
        const TimeNs send =
            WaitForBufferSpace(t > upstream_link_free_ ? t : upstream_link_free_, payload);
        const TimeNs wire =
            SerializationDelayNs(payload + config_.tlp_header_bytes, config_.link_gbps);
        wire_bytes_->Add(payload + config_.tlp_header_bytes);
        upstream_link_free_ = send + wire;
        const TimeNs arrival = upstream_link_free_;
        t = arrival;
        bool fault = false;
        const TimeNs translated = TranslateAt(seg.domain, iova, arrival, &fault);
        if (fault) {
          timing.fault = true;
          ReleaseAt(commit_free_ > arrival ? commit_free_ : arrival, payload);
          off += payload;
          continue;
        }
        TimeNs commit_start = arrival;
        if (translated > commit_start) {
          commit_start = translated;
        }
        if (commit_free_ > commit_start) {
          commit_start = commit_free_;
        }
        auto drain =
            static_cast<TimeNs>(static_cast<double>(payload) / config_.commit_bytes_per_ns);
        if (drain == 0) {
          drain = 1;
        }
        commit_free_ = commit_start + drain;
        memory_->Post(commit_start, payload);
        ReleaseAt(commit_free_, payload);
        off += payload;
      }
    }
    timing.link_done = upstream_link_free_;
    timing.commit_done = commit_free_ > start ? commit_free_ : start;
    return timing;
  }

  DmaTiming DmaRead(TimeNs start, const std::vector<DmaSegment>& segments) {
    DmaTiming timing;
    TimeNs t = start;
    TimeNs last_completion = start;
    for (const DmaSegment& seg : segments) {
      std::uint32_t off = 0;
      while (off < seg.len) {
        const Iova iova = seg.iova + off;
        const std::uint32_t payload = Payload(seg, off);
        read_tlps_->Add();
        while (!outstanding_reads_.empty() && outstanding_reads_.front() <= t) {
          outstanding_reads_.pop_front();
        }
        if (outstanding_reads_.size() >= config_.max_outstanding_reads) {
          const TimeNs free_at = outstanding_reads_.front();
          if (free_at > t) {
            stall_ns_->Add(free_at - t);
            t = free_at;
          }
          outstanding_reads_.pop_front();
        }
        const TimeNs send = t > upstream_link_free_ ? t : upstream_link_free_;
        wire_bytes_->Add(config_.tlp_header_bytes);
        upstream_link_free_ =
            send + SerializationDelayNs(config_.tlp_header_bytes, config_.link_gbps);
        const TimeNs arrival = upstream_link_free_;
        t = arrival;
        bool fault = false;
        const TimeNs translated = TranslateAt(seg.domain, iova, arrival, &fault);
        if (fault) {
          timing.fault = true;
          off += payload;
          continue;
        }
        const TimeNs data_ready = memory_->Read(translated, payload);
        const TimeNs comp_start =
            data_ready > downstream_link_free_ ? data_ready : downstream_link_free_;
        wire_bytes_->Add(payload + config_.tlp_header_bytes);
        downstream_link_free_ =
            comp_start + SerializationDelayNs(payload + config_.tlp_header_bytes,
                                              config_.link_gbps);
        outstanding_reads_.push_back(downstream_link_free_);
        if (downstream_link_free_ > last_completion) {
          last_completion = downstream_link_free_;
        }
        off += payload;
      }
    }
    timing.link_done = upstream_link_free_ > start ? upstream_link_free_ : start;
    timing.commit_done = last_completion;
    return timing;
  }

 private:
  struct BufferedBytes {
    TimeNs release;
    std::uint32_t bytes;
  };

  // TLPs never cross a 4 KB boundary.
  std::uint32_t Payload(const DmaSegment& seg, std::uint32_t off) const {
    const Iova iova = seg.iova + off;
    const auto to_page_end = static_cast<std::uint32_t>(kPageSize - (iova & (kPageSize - 1)));
    std::uint32_t payload = seg.len - off;
    if (payload > config_.max_payload_bytes) {
      payload = config_.max_payload_bytes;
    }
    return payload > to_page_end ? to_page_end : payload;
  }

  TimeNs WaitForBufferSpace(TimeNs t, std::uint32_t bytes) {
    while (!rc_buffer_.empty() && rc_buffer_.front().release <= t) {
      occupancy_ -= rc_buffer_.front().bytes;
      rc_buffer_.pop_front();
    }
    while (occupancy_ + bytes > config_.rc_buffer_bytes && !rc_buffer_.empty()) {
      const TimeNs head = rc_buffer_.front().release;
      if (head > t) {
        stall_ns_->Add(head - t);
        t = head;
      }
      occupancy_ -= rc_buffer_.front().bytes;
      rc_buffer_.pop_front();
    }
    return t;
  }

  void ReleaseAt(TimeNs when, std::uint32_t bytes) {
    rc_buffer_.push_back(BufferedBytes{when, bytes});
    occupancy_ += bytes;
  }

  TimeNs TranslateAt(DomainId domain, Iova iova, TimeNs at, bool* fault) {
    if (iommu_ == nullptr) {
      return at;
    }
    const TranslationResult tr = iommu_->Translate(domain, iova, at);
    if (tr.fault) {
      *fault = true;
      faults_->Add();
    }
    return tr.done;
  }

  PcieConfig config_;
  Iommu* iommu_;
  MemorySystem* memory_;
  TimeNs upstream_link_free_ = 0;
  TimeNs downstream_link_free_ = 0;
  TimeNs commit_free_ = 0;
  std::deque<BufferedBytes> rc_buffer_;
  std::uint64_t occupancy_ = 0;
  std::deque<TimeNs> outstanding_reads_;
  Counter* write_tlps_;
  Counter* read_tlps_;
  Counter* wire_bytes_;
  Counter* stall_ns_;
  Counter* faults_;
};

struct LockstepCase {
  const char* name;
  PcieConfig pcie;
  IommuConfig iommu;
  bool with_iommu = true;
  bool two_domains = false;
  bool oracle = false;
  // Unmaps skip the IOTLB invalidation half the time (deferred mode), so
  // IOTLB hits on unmapped pages form stale memos.
  bool deferred = false;
};

void PrintTo(const LockstepCase& c, std::ostream* os) { *os << c.name; }

// One simulated stack around a root complex of type `Rc`.
template <typename Rc>
struct LockstepStack {
  explicit LockstepStack(const LockstepCase& c)
      : memory(MemoryConfig{}, &stats),
        iommu(c.iommu, &memory, &host_pt, &stats),
        tenant(c.two_domains ? iommu.AddDomain(&tenant_pt) : kHostDomain),
        oracle(c.oracle ? std::make_unique<SafetyOracle>(&stats) : nullptr),
        rc(c.pcie, c.with_iommu ? &iommu : nullptr, &memory, &stats) {
    if (oracle != nullptr) {
      iommu.SetSafetyOracle(oracle.get());
    }
  }
  IoPageTable& PageTable(DomainId d) { return d == kHostDomain ? host_pt : tenant_pt; }

  StatsRegistry stats;
  MemorySystem memory;
  IoPageTable host_pt;
  IoPageTable tenant_pt;
  Iommu iommu;
  DomainId tenant;
  std::unique_ptr<SafetyOracle> oracle;
  Rc rc;
};

// 4 KB pages live in [kSmallBase, kSmallBase + kSmallPages pages); 2 MB
// mappings at kHugeBase + i * 2 MB. DMAs draw from both, mapped or not.
constexpr Iova kSmallBase = 0x40000000;
constexpr std::uint64_t kSmallPages = 48;
constexpr Iova kHugeBase = 0x80000000;
constexpr std::uint64_t kHugeSpan = 2ULL << 20;
constexpr std::uint64_t kHugeRegions = 2;

class PageRunLockstep : public ::testing::TestWithParam<LockstepCase> {};

TEST_P(PageRunLockstep, MatchesPerTlpReference) {
  const LockstepCase& c = GetParam();
  LockstepStack<RootComplex> fast(c);
  LockstepStack<ReferenceRootComplex> ref(c);
  const auto both = [&](const auto& op) {
    op(fast);
    op(ref);
  };
  std::uint64_t seed = 0x5eed;
  for (const char* ch = c.name; *ch != '\0'; ++ch) {
    seed = seed * 31 + static_cast<unsigned char>(*ch);
  }
  Rng rng(seed);
  const std::vector<DomainId> domains =
      c.two_domains ? std::vector<DomainId>{kHostDomain, fast.tenant}
                    : std::vector<DomainId>{kHostDomain};
  const auto random_iova = [&]() -> Iova {
    if (rng.NextBelow(4) == 0) {
      return kHugeBase + rng.NextBelow(kHugeRegions) * kHugeSpan +
             rng.NextBelow(kHugeSpan / kPageSize) * kPageSize;
    }
    return kSmallBase + rng.NextBelow(kSmallPages) * kPageSize;
  };
  TimeNs now = 0;
  for (int step = 0; step < 4000; ++step) {
    now += rng.NextBelow(3000);
    const DomainId domain = domains[rng.NextBelow(domains.size())];
    const std::uint64_t op = rng.NextBelow(100);
    if (op < 65) {
      // A DMA of 1-4 segments: page-aligned whole pages, unaligned or
      // partial pieces, and segments that cross page boundaries.
      std::vector<DmaSegment> segments(1 + rng.NextBelow(4));
      for (DmaSegment& seg : segments) {
        seg.domain = domains[rng.NextBelow(domains.size())];
        seg.iova = random_iova();
        switch (rng.NextBelow(4)) {
          case 0:
            seg.len = static_cast<std::uint32_t>(kPageSize);
            break;
          case 1:
            seg.iova += rng.NextBelow(kPageSize);
            seg.len = static_cast<std::uint32_t>(1 + rng.NextBelow(2 * kPageSize));
            break;
          case 2:
            seg.len = static_cast<std::uint32_t>(1 + rng.NextBelow(kPageSize));
            break;
          default:
            seg.len = static_cast<std::uint32_t>(3 * kPageSize);
            break;
        }
      }
      const bool write = rng.NextBelow(3) != 0;
      DmaTiming got;
      DmaTiming want;
      if (write) {
        got = fast.rc.DmaWrite(now, segments);
        want = ref.rc.DmaWrite(now, segments);
      } else {
        got = fast.rc.DmaRead(now, segments);
        want = ref.rc.DmaRead(now, segments);
      }
      ASSERT_EQ(got.link_done, want.link_done) << "step " << step;
      ASSERT_EQ(got.commit_done, want.commit_done) << "step " << step;
      ASSERT_EQ(got.fault, want.fault) << "step " << step;
      ASSERT_EQ(fast.stats.Snapshot(), ref.stats.Snapshot()) << "step " << step;
      ASSERT_EQ(fast.memory.total_bytes(), ref.memory.total_bytes()) << "step " << step;
    } else if (op < 80) {
      const Iova iova = random_iova();
      const bool huge = iova >= kHugeBase;
      both([&](auto& s) {
        IoPageTable& pt = s.PageTable(domain);
        const bool mapped = huge ? pt.MapHuge(iova & ~(kHugeSpan - 1), 0x200000000ULL)
                                 : pt.Map(iova, 0x100000000ULL + (iova - kSmallBase));
        if (mapped && s.oracle != nullptr && domain == kHostDomain) {
          s.oracle->OnMap(iova & ~(kPageSize - 1), 1);
        }
      });
    } else if (op < 95) {
      const Iova iova = random_iova();
      const std::uint64_t len = iova >= kHugeBase ? kHugeSpan : kPageSize;
      const Iova base = iova & ~(len - 1);
      const bool invalidate = !c.deferred || rng.NextBelow(2) == 0;
      const bool leaf_only = rng.NextBelow(2) == 0;
      both([&](auto& s) {
        const UnmapResult r = s.PageTable(domain).Unmap(base, len);
        if (s.oracle != nullptr && domain == kHostDomain && r.unmapped_pages != 0) {
          s.oracle->OnUnmap(base, len / kPageSize);
        }
        if (invalidate) {
          s.iommu.InvalidateRange(domain, base, len, leaf_only, now);
          for (const ReclaimedTablePage& page : r.reclaimed) {
            s.iommu.OnTablePageReclaimed(domain, page);
          }
        }
      });
    } else if (op < 98) {
      both([&](auto& s) { s.iommu.InvalidateDomain(domain, now); });
    } else {
      both([&](auto& s) { s.iommu.InvalidateAll(now); });
    }
  }
  // The streams must reach the paths they are meant to cover.
  if (c.with_iommu) {
    EXPECT_GT(fast.stats.Value("iommu.translations"), 0u);
    EXPECT_GT(fast.stats.Value("pcie.faults"), 0u);
  }
  if (c.deferred && c.iommu.track_safety) {
    EXPECT_GT(fast.stats.Value("iommu.stale_iotlb_use"), 0u);
  }
}

LockstepCase MakeCase(const char* name, const std::function<void(LockstepCase*)>& apply) {
  LockstepCase c;
  c.name = name;
  apply(&c);
  return c;
}

INSTANTIATE_TEST_SUITE_P(
    Streams, PageRunLockstep,
    ::testing::Values(
        MakeCase("single_domain", [](LockstepCase*) {}),
        MakeCase("deferred_stale_memos", [](LockstepCase* c) { c->deferred = true; }),
        MakeCase("two_domains", [](LockstepCase* c) { c->two_domains = true; }),
        MakeCase("oracle_attached",
                 [](LockstepCase* c) {
                   c->oracle = true;
                   c->deferred = true;
                 }),
        MakeCase("no_safety_tracking",
                 [](LockstepCase* c) {
                   c->iommu.track_safety = false;
                   c->deferred = true;
                 }),
        MakeCase("tiny_rc_buffer", [](LockstepCase* c) { c->pcie.rc_buffer_bytes = 200; }),
        MakeCase("one_outstanding_read",
                 [](LockstepCase* c) { c->pcie.max_outstanding_reads = 1; }),
        MakeCase("odd_payload",
                 [](LockstepCase* c) {
                   c->pcie.max_payload_bytes = 100;
                   c->pcie.commit_bytes_per_ns = 3.0;
                 }),
        MakeCase("no_iommu", [](LockstepCase* c) { c->with_iommu = false; })),
    [](const ::testing::TestParamInfo<LockstepCase>& info) { return info.param.name; });

}  // namespace
}  // namespace fsio

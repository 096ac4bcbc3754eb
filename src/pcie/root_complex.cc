#include "src/pcie/root_complex.h"

#include <stdexcept>

namespace fsio {

namespace {
const PcieConfig& Validated(const PcieConfig& config) {
  if (config.max_payload_bytes == 0) {
    throw std::invalid_argument("RootComplex: max_payload_bytes must be >= 1");
  }
  if (config.max_outstanding_reads == 0) {
    throw std::invalid_argument("RootComplex: max_outstanding_reads must be >= 1");
  }
  if (!(config.link_gbps > 0.0)) {
    throw std::invalid_argument("RootComplex: link_gbps must be > 0");
  }
  if (!(config.commit_bytes_per_ns > 0.0)) {
    throw std::invalid_argument("RootComplex: commit_bytes_per_ns must be > 0");
  }
  return config;
}

// Initial RC-buffer ring entries (a power of two; ReleaseAt doubles it).
constexpr std::size_t kInitialRcRing = 32;
}  // namespace

RootComplex::RootComplex(const PcieConfig& config, Iommu* iommu, MemorySystem* memory,
                         StatsRegistry* stats)
    : config_(Validated(config)),
      full_wire_ns_(SerializationDelayNs(config.max_payload_bytes + config.tlp_header_bytes,
                                         config.link_gbps)),
      full_drain_ns_(ComputeDrainNs(config.max_payload_bytes)),
      request_wire_ns_(SerializationDelayNs(config.tlp_header_bytes, config.link_gbps)),
      iommu_(iommu),
      memory_(memory),
      rc_buffer_(kInitialRcRing),
      outstanding_reads_(config.max_outstanding_reads),
      write_tlps_(stats->Get("pcie.write_tlps")),
      read_tlps_(stats->Get("pcie.read_tlps")),
      wire_bytes_(stats->Get("pcie.wire_bytes")),
      stall_ns_(stats->Get("pcie.stall_ns")),
      faults_(stats->Get("pcie.faults")),
      backpressure_bursts_(stats->Get("pcie.backpressure_bursts")) {}

TimeNs RootComplex::ComputeDrainNs(std::uint32_t payload) const {
  const auto drain = static_cast<TimeNs>(static_cast<double>(payload) / config_.commit_bytes_per_ns);
  return drain == 0 ? 1 : drain;
}

TimeNs RootComplex::ApplyBackpressure(TimeNs start) {
  if (fault_injector_ != nullptr) {
    if (const FaultDecision d =
            fault_injector_->Sample(FaultKind::kRootComplexBackpressure, start);
        d.fire) {
      backpressure_bursts_->Add();
      stall_ns_->Add(d.magnitude_ns);
      return start + d.magnitude_ns;
    }
  }
  return start;
}

inline void RootComplex::PopBuffered() {
  rc_buffer_occupancy_ -= rc_buffer_[rc_buffer_head_].bytes;
  rc_buffer_head_ = (rc_buffer_head_ + 1) & (rc_buffer_.size() - 1);
  --rc_buffer_count_;
}

inline TimeNs RootComplex::WaitForBufferSpace(TimeNs t, std::uint32_t bytes) {
  // Free everything already committed by time t.
  while (rc_buffer_count_ != 0 && rc_buffer_[rc_buffer_head_].release <= t) {
    PopBuffered();
  }
  if (rc_buffer_occupancy_ + bytes <= config_.rc_buffer_bytes) {
    return t;
  }
  return StallForBufferSpace(t, bytes);
}

TimeNs RootComplex::StallForBufferSpace(TimeNs t, std::uint32_t bytes) {
  // The buffer cannot admit the TLP: the link stalls until the head
  // commits (commit order == arrival order, so releases are sorted).
  while (rc_buffer_occupancy_ + bytes > config_.rc_buffer_bytes && rc_buffer_count_ != 0) {
    const TimeNs head = rc_buffer_[rc_buffer_head_].release;
    if (head > t) {
      stall_ns_->Add(head - t);
      // The Little's-law bottleneck made visible: link time lost waiting
      // for the head-of-line payload to drain into memory.
      trace_.Complete("pcie", "rc_stall", t, head);
      t = head;
    }
    PopBuffered();
  }
  return t;
}

inline void RootComplex::ReleaseAt(TimeNs when, std::uint32_t bytes) {
  if (rc_buffer_count_ == rc_buffer_.size()) {
    GrowRcBuffer();
  }
  rc_buffer_[(rc_buffer_head_ + rc_buffer_count_) & (rc_buffer_.size() - 1)] =
      BufferedBytes{when, bytes};
  ++rc_buffer_count_;
  rc_buffer_occupancy_ += bytes;
}

void RootComplex::GrowRcBuffer() {
  // Double the ring, unrolled so the oldest entry lands at 0.
  std::vector<BufferedBytes> grown(2 * rc_buffer_.size());
  for (std::size_t i = 0; i < rc_buffer_count_; ++i) {
    grown[i] = rc_buffer_[(rc_buffer_head_ + i) & (rc_buffer_.size() - 1)];
  }
  rc_buffer_.swap(grown);
  rc_buffer_head_ = 0;
}

TimeNs RootComplex::TranslateAt(DomainId domain, Iova iova, TimeNs at, bool* fault) {
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

template <typename Tlp>
void RootComplex::ForEachTlp(const std::vector<DmaSegment>& segments, Tlp&& tlp) {
  const std::uint32_t max_payload = config_.max_payload_bytes;
  for (const DmaSegment& seg : segments) {
    std::uint32_t off = 0;
    while (off < seg.len) {
      // One page run: the segment's bytes up to the next 4 KB boundary,
      // which no TLP crosses.
      Iova iova = seg.iova + off;
      const auto to_page_end = static_cast<std::uint32_t>(kPageSize - (iova & (kPageSize - 1)));
      std::uint32_t left = seg.len - off < to_page_end ? seg.len - off : to_page_end;
      off += left;
      bool claimed = iommu_ == nullptr;
      while (left != 0) {
        const std::uint32_t payload = left < max_payload ? left : max_payload;
        left -= payload;
        if (tlp(seg.domain, iova, payload, claimed) && !claimed && left != 0) {
          // The TLP's translation may have left the repeat-hit memo valid
          // for this page: then the run's remaining TLPs would all replay
          // it, and their translations are accounted here at once.
          claimed = iommu_->ClaimRepeatHits(seg.domain, iova,
                                            (left + max_payload - 1) / max_payload);
        }
        iova += payload;
      }
    }
  }
}

DmaTiming RootComplex::DmaWrite(TimeNs start, const std::vector<DmaSegment>& segments) {
  DmaTiming timing;
  start = ApplyBackpressure(start);
  TimeNs t = start;
  std::uint64_t total_bytes = 0;
  std::uint64_t tlps = 0;
  std::uint64_t wire_bytes = 0;
  ForEachTlp(segments, [&](DomainId domain, Iova iova, std::uint32_t payload, bool claimed) {
    ++tlps;
    total_bytes += payload;
    // Admission: wire serialization plus RC buffer flow control.
    const TimeNs send =
        WaitForBufferSpace(t > upstream_link_free_ ? t : upstream_link_free_, payload);
    wire_bytes += payload + config_.tlp_header_bytes;
    upstream_link_free_ = send + WireNs(payload);
    const TimeNs arrival = upstream_link_free_;
    t = arrival;  // the NIC streams the next TLP right behind this one

    // Lookahead translation: starts at arrival, independent of the commit
    // pointer. A claimed translation is a memo replay, done at arrival.
    bool fault = false;
    const TimeNs translated = claimed ? arrival : TranslateAt(domain, iova, arrival, &fault);
    if (fault) {
      timing.fault = true;
      // Faulted transaction is dropped by the IOMMU; it occupies no
      // commit slot. Release no earlier than prior releases so the
      // release queue stays sorted.
      ReleaseAt(commit_free_ > arrival ? commit_free_ : arrival, payload);
      return false;
    }
    // In-order commit: wait for predecessor commits and the translation.
    TimeNs commit_start = translated > arrival ? translated : arrival;
    if (commit_free_ > commit_start) {
      commit_start = commit_free_;
    }
    commit_free_ = commit_start + DrainNs(payload);
    memory_->Post(commit_start, payload);
    ReleaseAt(commit_free_, payload);
    return true;
  });
  write_tlps_->Add(tlps);
  wire_bytes_->Add(wire_bytes);
  timing.link_done = upstream_link_free_;
  timing.commit_done = commit_free_ > start ? commit_free_ : start;
  if (trace_.enabled()) {
    trace_.Complete("pcie", "dma_write", start, timing.commit_done, "bytes",
                    static_cast<double>(total_bytes), "tlps", static_cast<double>(tlps));
    trace_.Counter("pcie", "rc_occupancy", start, static_cast<double>(rc_buffer_occupancy_));
  }
  return timing;
}

DmaTiming RootComplex::DmaRead(TimeNs start, const std::vector<DmaSegment>& segments) {
  DmaTiming timing;
  start = ApplyBackpressure(start);
  TimeNs t = start;
  TimeNs last_completion = start;
  std::uint64_t tlps = 0;
  std::uint64_t wire_bytes = 0;
  const std::size_t max_reads = outstanding_reads_.size();
  const auto pop_oldest_read = [&] {
    if (++outstanding_head_ == max_reads) {
      outstanding_head_ = 0;
    }
    --outstanding_count_;
  };
  ForEachTlp(segments, [&](DomainId domain, Iova iova, std::uint32_t payload, bool claimed) {
    ++tlps;
    // Bounded outstanding read requests.
    while (outstanding_count_ != 0 && outstanding_reads_[outstanding_head_] <= t) {
      pop_oldest_read();
    }
    if (outstanding_count_ == max_reads) {
      const TimeNs free_at = outstanding_reads_[outstanding_head_];
      if (free_at > t) {
        stall_ns_->Add(free_at - t);
        t = free_at;
      }
      pop_oldest_read();
    }
    // Request TLP upstream (header only).
    const TimeNs send = t > upstream_link_free_ ? t : upstream_link_free_;
    wire_bytes += config_.tlp_header_bytes;
    upstream_link_free_ = send + request_wire_ns_;
    const TimeNs arrival = upstream_link_free_;
    t = arrival;

    bool fault = false;
    const TimeNs translated = claimed ? arrival : TranslateAt(domain, iova, arrival, &fault);
    if (fault) {
      timing.fault = true;
      return false;
    }
    // Memory read (latency + bank occupancy), then a completion TLP back
    // over the downstream link.
    const TimeNs data_ready = memory_->Read(translated, payload);
    const TimeNs comp_start =
        data_ready > downstream_link_free_ ? data_ready : downstream_link_free_;
    wire_bytes += payload + config_.tlp_header_bytes;
    downstream_link_free_ = comp_start + WireNs(payload);
    const TimeNs completion = downstream_link_free_;
    std::size_t tail = outstanding_head_ + outstanding_count_;
    if (tail >= max_reads) {
      tail -= max_reads;
    }
    outstanding_reads_[tail] = completion;
    ++outstanding_count_;
    if (completion > last_completion) {
      last_completion = completion;
    }
    return true;
  });
  read_tlps_->Add(tlps);
  wire_bytes_->Add(wire_bytes);
  timing.link_done = upstream_link_free_ > start ? upstream_link_free_ : start;
  timing.commit_done = last_completion;
  return timing;
}

}  // namespace fsio

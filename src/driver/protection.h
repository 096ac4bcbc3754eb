// Memory-protection datapath modes.
//
// kOff / kStrict / kDeferred are the configurations modern Linux offers
// (§2.1). kStrictPreserve and kStrictContig are the paper's Figure 12
// ablations (Linux + idea A, Linux + idea B). kFastSafe combines all three
// F&S ideas: contiguous descriptor-sized IOVA allocation, PTcache
// preservation on unmap, and batched invalidations.
#ifndef FASTSAFE_SRC_DRIVER_PROTECTION_H_
#define FASTSAFE_SRC_DRIVER_PROTECTION_H_

#include <string_view>

namespace fsio {

enum class ProtectionMode {
  kOff,             // IOMMU disabled: devices use physical addresses
  kStrict,          // Linux strict: per-IOVA unmap + full invalidation
  kDeferred,        // Linux lazy: invalidations deferred until a threshold
  kStrictPreserve,  // ablation A: strict + IOTLB-only invalidations
  kStrictContig,    // ablation B: contiguous IOVAs + batched (full) invalidations
  kFastSafe,        // F&S: contiguous + preserve + batched
  // Related-work baseline (Farshin et al. [16]): Rx buffers come from a
  // hugepage pool whose IOVA mappings are created once and never torn down.
  // Near-zero protection overhead, but the device retains access to the
  // buffers forever: a weaker safety property than strict.
  kHugepagePersistent,
  // Related-work alternative (CAPIO-style kernel bypass): the IOMMU stays in
  // pass-through (device addresses are physical), and protection moves to
  // epoch-tagged capability checks at descriptor-enqueue time. Map grants a
  // capability, unmap revokes it synchronously (quiescing in-flight
  // descriptors), so the strict safety property holds without any per-op
  // IOMMU walk or invalidation work.
  kCapability,
};

constexpr const char* ProtectionModeName(ProtectionMode mode) {
  switch (mode) {
    case ProtectionMode::kOff:
      return "iommu-off";
    case ProtectionMode::kStrict:
      return "linux-strict";
    case ProtectionMode::kDeferred:
      return "linux-deferred";
    case ProtectionMode::kStrictPreserve:
      return "linux+A(preserve)";
    case ProtectionMode::kStrictContig:
      return "linux+B(contig+batch)";
    case ProtectionMode::kFastSafe:
      return "fast-and-safe";
    case ProtectionMode::kHugepagePersistent:
      return "hugepage-persistent";
    case ProtectionMode::kCapability:
      return "capability";
  }
  return "?";
}

// Every protection mode, in declaration order: the one mode table. Suites,
// sweeps and tools iterate it instead of spelling the modes out, so a new
// mode is picked up everywhere (or fails the exhaustive switches below).
inline constexpr ProtectionMode kAllModes[] = {
    ProtectionMode::kOff,           ProtectionMode::kStrict,
    ProtectionMode::kDeferred,      ProtectionMode::kStrictPreserve,
    ProtectionMode::kStrictContig,  ProtectionMode::kFastSafe,
    ProtectionMode::kHugepagePersistent, ProtectionMode::kCapability,
};

// Single-token spelling of a mode for CLI flags and repro/trace files
// (ProtectionModeName() is a human-facing label with punctuation).
constexpr const char* ModeToken(ProtectionMode mode) {
  switch (mode) {
    case ProtectionMode::kOff:
      return "off";
    case ProtectionMode::kStrict:
      return "strict";
    case ProtectionMode::kDeferred:
      return "deferred";
    case ProtectionMode::kStrictPreserve:
      return "strict-preserve";
    case ProtectionMode::kStrictContig:
      return "strict-contig";
    case ProtectionMode::kFastSafe:
      return "fast-safe";
    case ProtectionMode::kHugepagePersistent:
      return "hugepage-persistent";
    case ProtectionMode::kCapability:
      return "capability";
  }
  return "?";
}

// Inverse of ModeToken(); false (and *mode untouched) for unknown tokens.
constexpr bool ParseModeToken(std::string_view token, ProtectionMode* mode) {
  for (ProtectionMode m : kAllModes) {
    if (token == ModeToken(m)) {
      *mode = m;
      return true;
    }
  }
  return false;
}

// True if the mode guarantees the strict safety property: a device can never
// access memory through an IOVA after that IOVA's unmap returns. kCapability
// qualifies — revocation fails the device's capability check in the same
// op-window the unmap returns in — even though it does no IOMMU work.
constexpr bool IsStrictlySafe(ProtectionMode mode) {
  return mode != ProtectionMode::kOff && mode != ProtectionMode::kDeferred &&
         mode != ProtectionMode::kHugepagePersistent;
}

// True if the mode programs the IOMMU at all. kOff disables it outright;
// kCapability leaves it in pass-through and enforces safety at the NIC's
// descriptor-enqueue capability check instead.
constexpr bool UsesIommu(ProtectionMode mode) {
  return mode != ProtectionMode::kOff && mode != ProtectionMode::kCapability;
}

// True if IOVAs for a descriptor are allocated as one contiguous chunk.
constexpr bool UsesContiguousIovas(ProtectionMode mode) {
  return mode == ProtectionMode::kStrictContig || mode == ProtectionMode::kFastSafe;
}

// True if unmap-time invalidations preserve the IO page table caches.
constexpr bool PreservesPtCaches(ProtectionMode mode) {
  return mode == ProtectionMode::kStrictPreserve || mode == ProtectionMode::kFastSafe;
}

}  // namespace fsio

#endif  // FASTSAFE_SRC_DRIVER_PROTECTION_H_

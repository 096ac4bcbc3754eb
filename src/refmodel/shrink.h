// Generic counterexample shrinker: the PR-4 minimization machinery
// (shortest-failing-prefix binary search + chunked ddmin to a fixpoint),
// factored out of the differential harness so every harness whose inputs are
// self-contained sequences can reuse it:
//
//   * DifferentialHarness::Shrink — sequences of DiffOps replayed against
//     the real stack + RefModel (src/refmodel/diff_harness.cc).
//   * ModelChecker::Shrink — interleaving traces replayed against the
//     abstract protocol model (src/check/checker.cc).
//   * fsio_chaos --break-recovery — cluster fault-event lists replayed
//     against a whole cluster run (tools/fsio_chaos.cc).
//
// Requirements on the caller: any subsequence of a failing sequence must
// still be executable (ops reference targets modulo live pools, or disabled
// steps replay as no-ops), and failure must be monotone in the prefix — a
// prefix failing at index i keeps failing there for every longer prefix.
#ifndef FASTSAFE_SRC_REFMODEL_SHRINK_H_
#define FASTSAFE_SRC_REFMODEL_SHRINK_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fsio {

template <typename Op, typename Result>
struct ShrunkSequence {
  std::vector<Op> ops;      // minimal failing subsequence
  Result result;            // result of running the minimal sequence
  std::uint32_t runs = 0;   // run() invocations spent shrinking
};

// Shrinks `ops`, known to fail at `fail_index` with result `first`, to a
// local minimum. `run(candidate)` executes a candidate subsequence and
// returns a Result; `failed(result)` says whether the failure reproduced.
template <typename Op, typename Result, typename RunFn, typename FailPred>
ShrunkSequence<Op, Result> ShrinkSequence(std::vector<Op> ops, std::size_t fail_index,
                                          const Result& first, RunFn&& run, FailPred&& failed) {
  ShrunkSequence<Op, Result> out;
  // Everything after the failing op is irrelevant by construction.
  if (fail_index + 1 < ops.size()) {
    ops.resize(fail_index + 1);
  }
  out.result = first;

  // Binary-search the shortest failing prefix: execution up to the failing
  // index is identical for every longer prefix (monotonicity requirement).
  std::size_t lo = 1;
  std::size_t hi = ops.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    std::vector<Op> prefix(ops.begin(), ops.begin() + static_cast<std::ptrdiff_t>(mid));
    Result r = run(prefix);
    ++out.runs;
    if (failed(r)) {
      hi = mid;
      out.result = std::move(r);
    } else {
      lo = mid + 1;
    }
  }
  ops.resize(lo);

  // Chunked + single-op removal to a fixpoint (ddmin-style). Removal shifts
  // later modular selections, so the large-chunk passes are what actually
  // escape the local minima a pure one-op pass gets stuck in.
  auto attempt = [&](std::size_t start, std::size_t len) {
    std::vector<Op> candidate;
    candidate.reserve(ops.size() - len);
    for (std::size_t j = 0; j < ops.size(); ++j) {
      if (j < start || j >= start + len) {
        candidate.push_back(ops[j]);
      }
    }
    Result r = run(candidate);
    ++out.runs;
    if (failed(r)) {
      ops = std::move(candidate);
      out.result = std::move(r);
      return true;
    }
    return false;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t chunk = ops.size() / 2; chunk >= 1; chunk /= 2) {
      for (std::size_t start = ops.size(); start-- > 0;) {
        if (start + chunk > ops.size()) {
          continue;
        }
        if (attempt(start, chunk)) {
          changed = true;
          // Stay at the same start: the window now covers fresh ops.
          ++start;
        }
      }
    }
  }
  out.ops = std::move(ops);
  return out;
}

}  // namespace fsio

#endif  // FASTSAFE_SRC_REFMODEL_SHRINK_H_

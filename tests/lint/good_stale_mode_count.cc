// Lint fixture (never compiled): mode-count references that stay correct
// when the mode table grows — derived from the canonical table, spelled-out
// mode names, numbers that are not mode counts, and a justified suppression.
#include <iterator>

#include "src/driver/protection.h"

// The sweep below covers every protection mode in the canonical table.
constexpr std::size_t kModeCount = std::size(fsio::kAllModes);

// Numbers near the word in other senses are fine: stage 2 of mode selection,
// mode 3, a 4 KiB page, 8 domains.
void ModeThreeUses4KiBPages() {}

// Historical note pinned to a past release where the count was true then:
// v0.2 shipped with 4 modes.  fsio-lint: allow(stale-mode-count)
void HistoricalNote() {}

#include "core/bank_search.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <optional>

#include "common/errors.h"
#include "common/math_util.h"
#include "common/op_counter.h"
#include "common/simd.h"
#include "core/bank_kernels.h"
#include "obs/flight_recorder.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mempart {
namespace {

/// First candidate >= `from` whose own difference bit is clear, capped at
/// max_value + 1. A set bit at nf means the difference nf itself was
/// observed, so k = 1 already rejects nf — the word-parallel scan skips a
/// run of such candidates with one countr_one per 64 of them, which is
/// the "smallest non-divisor lower bound" prefilter of the N-scan: dense
/// difference sets (contiguous taps) reject their first max_diff - m
/// candidates at one word-read per 64 instead of one probe each.
Count next_clear_candidate(const std::uint64_t* words, Count from,
                           Count max_value) {
  Count nf = from;
  while (nf <= max_value) {
    const std::uint64_t shifted =
        words[static_cast<std::size_t>(nf >> 6)] >>
        (static_cast<std::uint64_t>(nf) & 63);
    const int run = std::countr_one(shifted);
    if (run == 0) break;
    nf += run;  // a run ending at the word boundary resumes in the next word
  }
  return nf;
}

}  // namespace

BankSearchResult minimize_banks(std::span<const Address> z,
                                bool collect_diagnostics,
                                BankSearchScratch* scratch) {
  MEMPART_REQUIRE(!z.empty(), "minimize_banks: z must be non-empty");
  const Count m = static_cast<Count>(z.size());

  obs::Span span("bank_search.minimize");
  span.arg("m", m);
  obs::LatencyTimer timer("bank_search.minimize.ns");

  BankSearchResult result;
  if (m == 1) {
    // A single access never conflicts; one bank suffices and Q is empty.
    result.num_banks = 1;
    return result;
  }

  // Lines 4-10: Q = { |z(i) - z(j)| }, M = max Q. M equals max(z) - min(z),
  // and that one checked subtraction bounds every pairwise difference, so
  // the SoA pair scan below runs tier-dispatched vector kernels with no
  // per-pair overflow checks. The existence table E[1..M] (lines 11-16) is
  // a packed bitset — one cache line covers 512 differences — filled row
  // by row from the kernel's abs-diff staging buffer; the O(m^2) diffs
  // vector is only materialised when the caller wants the difference-set
  // diagnostics or the spread forces the fallback.
  //
  // Beyond kMaxTableDiff the dense bitset would still allocate hundreds of
  // megabytes for a handful of pairwise differences (a rank-1 pattern with
  // offsets {0, 2^40} has M = 2^40 but |Q| = 1), so large spreads fall
  // back to a sorted unique-difference list probed by divisibility.
  const auto [min_it, max_it] = std::minmax_element(z.begin(), z.end());
  const Count max_diff = abs_diff_checked(*max_it, *min_it);
  constexpr Count kMaxTableDiff = Count{1} << 24;
  const bool use_table = max_diff <= kMaxTableDiff;
  const bool keep_diffs = collect_diagnostics || !use_table;
  BankSearchScratch local;
  BankSearchScratch& buffers = scratch != nullptr ? *scratch : local;
  std::vector<std::uint64_t>& bits = buffers.exist_bits;
  std::vector<Count>& diffs = buffers.diffs;
  std::vector<std::int64_t>& row = buffers.row;
  diffs.clear();
  if (use_table) {
    bits.assign(static_cast<std::size_t>(max_diff >> 6) + 1, 0);
  }
  if (keep_diffs) {
    // The sorted-fallback list is deduplicated anyway and std::vector
    // growth is amortised, so don't reserve the full quadratic count up
    // front — a 4k-tap wide-spread pattern would reserve 64 MiB before
    // the first probe. Diagnostics callers asked for the whole set.
    constexpr Count kDiffReserveCap = 4096;
    const Count pairs = m * (m - 1) / 2;
    diffs.reserve(static_cast<std::size_t>(
        collect_diagnostics ? pairs : std::min(pairs, kDiffReserveCap)));
  }
  row.resize(static_cast<std::size_t>(m));

  const bank::Kernels& kern = bank::kernels_for(simd::active_tier());
  bool saw_duplicate = false;
  // The bit fill coalesces consecutive same-word updates in a register:
  // a read-modify-write per difference would serialise on the store
  // forwarding of the shared word exactly when the diffs are densest
  // (contiguous taps put 64 consecutive differences in one word), which
  // is the regime the bitset is supposed to win.
  std::size_t fill_word = 0;
  std::uint64_t fill_mask = 0;
  for (std::size_t i = 0; i + 1 < z.size(); ++i) {
    const Count count = m - static_cast<Count>(i) - 1;
    kern.abs_diff_row(z[i], z.data() + i + 1, count, row.data());
    if (use_table) {
      for (Count j = 0; j < count; ++j) {
        const auto d = static_cast<std::uint64_t>(row[static_cast<std::size_t>(j)]);
        const auto w = static_cast<std::size_t>(d >> 6);
        const std::uint64_t bit = std::uint64_t{1} << (d & 63);
        if (w == fill_word) {
          fill_mask |= bit;
        } else {
          bits[fill_word] |= fill_mask;
          fill_word = w;
          fill_mask = bit;
        }
      }
    }
    if (keep_diffs) {
      diffs.insert(diffs.end(), row.begin(),
                   row.begin() + static_cast<std::ptrdiff_t>(count));
    }
  }
  if (use_table) bits[fill_word] |= fill_mask;
  if (use_table) {
    saw_duplicate = (bits[0] & 1) != 0;  // difference 0 observed
  }
  if (!use_table) {
    std::sort(diffs.begin(), diffs.end());
    diffs.erase(std::unique(diffs.begin(), diffs.end()), diffs.end());
    saw_duplicate = diffs.front() == 0;
  } else if (collect_diagnostics) {
    std::sort(diffs.begin(), diffs.end());
    diffs.erase(std::unique(diffs.begin(), diffs.end()), diffs.end());
  }
  MEMPART_REQUIRE(!saw_duplicate, "minimize_banks: z values must be distinct");
  OpCounter::charge(OpKind::kAdd, m * (m - 1) / 2);

  // Lines 17-25: advance N_f past every value with a multiple in Q. The
  // bitset prefilter disposes of candidates whose k = 1 probe would hit
  // (their own value is in Q) 64 at a time; only candidates surviving it
  // run the k >= 2 multiple probe, one span per such candidate. Skipped
  // candidates are still charged and counted as rejected — one multiply
  // and one compare each, exactly the work the byte-table scan paid for
  // their single k = 1 probe — so rejected_candidates stays N_f - m and
  // the op model sees the same per-candidate floor. In the fallback,
  // "has a multiple in Q" is tested by the modular-inverse divisibility
  // kernel over the deduplicated difference list — same predicate,
  // O(|Q| / lanes) per candidate and no division.
  // Candidate-loop instrumentation is hoisted: the old scan opened a span
  // (two flight-recorder writes and a name-intern lookup) and recorded two
  // metrics per candidate, which on probe-heavy inputs cost more than the
  // probes themselves. The loop now prices flight per solve (the quiet
  // scope below, per the flight-recorder idiom), emits per-candidate spans
  // and histogram samples only when tracing / metrics are actually on, and
  // charges the op model in bulk per candidate.
  const bool traced = obs::tracing_enabled();
  const bool metrics = obs::metrics_enabled();
  obs::FlightQuietScope quiet;
  Count nf = m;
  const Count fallback_count = static_cast<Count>(diffs.size());
  for (;;) {
    if (use_table) {
      const Count clear = next_clear_candidate(bits.data(), nf, max_diff);
      if (clear != nf) {
        const Count skipped = clear - nf;
        OpCounter::charge(OpKind::kMul, skipped);
        OpCounter::charge(OpKind::kCompare, skipped);
        if (metrics) obs::count("bank_search.candidates.rejected", skipped);
        result.rejected_candidates += skipped;
        nf = clear;
      }
    }
    std::optional<obs::Span> candidate;
    if (traced) candidate.emplace("bank_search.candidate");
    Count probes = 0;
    bool rejected = false;
    if (use_table) {
      if (nf <= max_diff) {
        probes = 1;  // the prefilter's own-bit read was candidate nf's k = 1 probe
        rejected = kern.table_has_multiple(bits.data(), max_diff, nf, &probes);
      }
      OpCounter::charge(OpKind::kMul, probes);
      OpCounter::charge(OpKind::kCompare, probes);
    } else {
      rejected = kern.any_divisible(diffs.data(), fallback_count, nf, &probes);
      OpCounter::charge(OpKind::kCompare, probes);
    }
    if (traced) {
      candidate->arg("N", nf).arg("probes", probes).arg("rejected",
                                                        Count{rejected});
    }
    if (metrics) {
      obs::observe("bank_search.probes_per_candidate", probes);
      obs::count(rejected ? "bank_search.candidates.rejected"
                          : "bank_search.candidates.accepted");
    }
    if (!rejected) break;
    ++nf;
    ++result.rejected_candidates;
  }

  result.num_banks = nf;
  result.max_difference = max_diff;
  span.arg("nf", nf).arg("rejected_candidates", result.rejected_candidates);
  if (collect_diagnostics) {
    if (use_table) {
      std::sort(diffs.begin(), diffs.end());
      diffs.erase(std::unique(diffs.begin(), diffs.end()), diffs.end());
    }
    // Copy (not move): diffs may live in caller-owned scratch.
    result.difference_set.assign(diffs.begin(), diffs.end());
  }
  return result;
}

bool is_conflict_free_bank_count(std::span<const Address> z, Count banks) {
  MEMPART_REQUIRE(banks >= 1, "is_conflict_free_bank_count: banks must be >= 1");
  for (size_t i = 0; i + 1 < z.size(); ++i) {
    for (size_t j = i + 1; j < z.size(); ++j) {
      // Reduce each value first so the difference cannot overflow even when
      // z spans nearly the whole 64-bit range.
      if (euclid_mod(euclid_mod(z[i], banks) - euclid_mod(z[j], banks),
                     banks) == 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace mempart

// A/B harness for the vectorized cold-solve engine.
//
// The "A" side is reference_minimize_banks below: a line-for-line copy of
// the pre-vectorization scalar implementation (byte existence table,
// per-pair checked abs-diff, probe-every-candidate N-scan) including its
// instrumentation — the old path opened an obs::Span per candidate and
// charged the op model per probe, and that cost was part of every cold
// solve this PR replaces, so the reference keeps it. The "B" side
// is the library's minimize_banks, once per supported simd tier via
// TierOverride. Every case is solved by both sides first and compared
// STRUCTURALLY — num_banks, max_difference, rejected_candidates and the
// diagnostics difference_set must match exactly, for every tier — and the
// process exits non-zero on any mismatch, so the timing numbers can never
// outrun correctness. The LTB leg does the same A/B between the unpruned
// DAC'13 enumeration (LtbOptions::prune = false, the paper's cost model)
// and the pruned conflict-difference DFS, checking bank count and
// transform equality.
//
// Cases: the seven Table 1 stencils, synthetic adversarial classes
// covering both solver regimes (dense-table up to the 2^24 boundary,
// sorted-fallback beyond it), and batches drawn from the fuzz generator's
// random classes. Results land in BENCH_solver.json (CI artifact;
// docs/PERFORMANCE.md documents the fields).
//
// Exit codes: 0 ok; 1 structural mismatch; 2 speedup gate failed
// (geomean of best-tier speedups < --min-geomean, default 3).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/ltb.h"
#include "bench_host.h"
#include "check/generator.h"
#include "common/args.h"
#include "common/errors.h"
#include "common/math_util.h"
#include "common/op_counter.h"
#include "common/random.h"
#include "common/simd.h"
#include "core/bank_search.h"
#include "core/linear_transform.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pattern/pattern.h"
#include "pattern/pattern_library.h"

namespace {

using namespace mempart;

// ---------------------------------------------------------------------------
// Reference implementation: the scalar minimize_banks this PR replaced.
// Kept verbatim (including its op charges and byte table) so the A side
// of the A/B pays exactly the cost the old cold path paid.
// ---------------------------------------------------------------------------

struct ReferenceScratch {
  std::vector<char> exists;
  std::vector<Count> diffs;
};

BankSearchResult reference_minimize_banks(std::span<const Address> z,
                                          bool collect_diagnostics,
                                          ReferenceScratch* scratch) {
  MEMPART_REQUIRE(!z.empty(), "minimize_banks: z must be non-empty");
  const Count m = static_cast<Count>(z.size());
  obs::Span span("bank_search.minimize.reference");
  span.arg("m", m);
  BankSearchResult result;
  if (m == 1) {
    result.num_banks = 1;
    return result;
  }
  const auto [min_it, max_it] = std::minmax_element(z.begin(), z.end());
  const Count max_diff = abs_diff_checked(*max_it, *min_it);
  constexpr Count kMaxTableDiff = Count{1} << 24;
  const bool use_table = max_diff <= kMaxTableDiff;
  ReferenceScratch local;
  ReferenceScratch& buffers = scratch != nullptr ? *scratch : local;
  std::vector<char>& exists = buffers.exists;
  std::vector<Count>& diffs = buffers.diffs;
  diffs.clear();
  if (use_table) exists.assign(static_cast<size_t>(max_diff) + 1, 0);
  if (collect_diagnostics || !use_table) {
    diffs.reserve(z.size() * (z.size() - 1) / 2);
  }
  for (size_t i = 0; i + 1 < z.size(); ++i) {
    for (size_t j = i + 1; j < z.size(); ++j) {
      const Count d = abs_diff_checked(z[i], z[j]);
      MEMPART_REQUIRE(d != 0, "minimize_banks: z values must be distinct");
      if (use_table) exists[static_cast<size_t>(d)] = 1;
      if (collect_diagnostics || !use_table) diffs.push_back(d);
    }
  }
  if (!use_table) {
    std::sort(diffs.begin(), diffs.end());
    diffs.erase(std::unique(diffs.begin(), diffs.end()), diffs.end());
  }
  OpCounter::charge(OpKind::kAdd, m * (m - 1) / 2);
  Count nf = m;
  for (;;) {
    obs::Span candidate("bank_search.candidate");
    Count probes = 0;
    bool rejected = false;
    if (use_table) {
      for (Count k = 1; k * nf <= max_diff; ++k) {
        OpCounter::charge(OpKind::kMul);
        ++probes;
        rejected = exists[static_cast<size_t>(k * nf)] != 0;
        OpCounter::charge(OpKind::kCompare);
        if (rejected) break;
      }
    } else {
      for (const Count d : diffs) {
        ++probes;
        rejected = (d % nf) == 0;
        OpCounter::charge(OpKind::kCompare);
        if (rejected) break;
      }
    }
    candidate.arg("N", nf).arg("probes", probes).arg("rejected",
                                                     Count{rejected});
    static const std::vector<double> kProbeBounds = obs::pow2_bounds(10);
    obs::observe("bank_search.probes_per_candidate",
                 static_cast<double>(probes), kProbeBounds);
    obs::count(rejected ? "bank_search.candidates.rejected"
                        : "bank_search.candidates.accepted");
    if (!rejected) break;
    ++nf;
    ++result.rejected_candidates;
  }
  result.num_banks = nf;
  result.max_difference = max_diff;
  span.arg("nf", nf).arg("rejected_candidates", result.rejected_candidates);
  if (collect_diagnostics) {
    std::sort(diffs.begin(), diffs.end());
    diffs.erase(std::unique(diffs.begin(), diffs.end()), diffs.end());
    result.difference_set.assign(diffs.begin(), diffs.end());
  }
  return result;
}

// ---------------------------------------------------------------------------
// Cases
// ---------------------------------------------------------------------------

/// One minimize_banks case: a batch of z vectors solved back to back per
/// timed repetition (batching keeps per-rep work measurable for the small
/// stencils without touching the solver).
struct SolveCase {
  std::string name;
  std::string regime;  // "table" or "fallback"
  std::vector<std::vector<Address>> batch;
  Count reps_full = 0;   // timed repetitions, full mode
  Count reps_quick = 0;  // timed repetitions, --quick
};

std::vector<Address> pattern_z(const Pattern& p) {
  return LinearTransform::derive(p).transform_values(p);
}

std::vector<SolveCase> build_cases() {
  std::vector<SolveCase> cases;
  for (const Pattern& p : patterns::table1_patterns()) {
    cases.push_back({"table1:" + p.name(), "table", {pattern_z(p)}, 2000, 500});
  }

  // Squares: differences (j-i)(j+i) half-fill [1, 65280]; the candidate
  // scan rejects hundreds of N at k = 1, which is the packed-bitset
  // prefilter's best case, and the 32640-pair scan stresses the SoA pass.
  {
    std::vector<Address> z;
    for (Count i = 0; i < 256; ++i) z.push_back(i * i);
    cases.push_back({"adv:squares-m256", "table", {std::move(z)}, 50, 15});
  }
  // Contiguous taps: the solve is one giant pair pass (8.4M pairs) plus an
  // instantly-accepted candidate; isolates the vectorized abs-diff scan.
  {
    std::vector<Address> z;
    for (Count i = 0; i < 4096; ++i) z.push_back(i);
    cases.push_back({"adv:contiguous-m4096", "table", {std::move(z)}, 3, 2});
  }
  // Random taps at the dense-table boundary: the byte table was 16 MiB
  // here, the bitset is 2 MiB, and the sparse candidate scan probes far
  // into the table per candidate.
  {
    Rng rng(0x5eed0001);
    std::vector<Address> z;
    while (z.size() < 64) {
      const Count v = rng.uniform(0, (Count{1} << 24) - 1);
      if (std::find(z.begin(), z.end(), v) == z.end()) z.push_back(v);
    }
    cases.push_back({"adv:dense-boundary-m64", "table", {std::move(z)}, 40, 8});
  }
  // Mid-spread dense table, more taps: pair pass and table zeroing both
  // matter, with a non-trivial reject run.
  {
    Rng rng(0x5eed0002);
    std::vector<Address> z;
    while (z.size() < 192) {
      const Count v = rng.uniform(0, (Count{1} << 20) - 1);
      if (std::find(z.begin(), z.end(), v) == z.end()) z.push_back(v);
    }
    cases.push_back({"adv:dense-random-m192", "table", {std::move(z)}, 60, 12});
  }
  // Sorted-fallback regime: random 2^40 spread forces the divisibility
  // probe; thousands of candidates are rejected and each one scans the
  // unique-difference list until its first multiple, so the runtime is
  // dominated by the division the modular-inverse kernel eliminates.
  for (const Count m : {Count{32}, Count{64}}) {
    Rng rng(0x5eed0003 + m);
    std::vector<Address> z;
    while (static_cast<Count>(z.size()) < m) {
      const Count v = rng.uniform(0, Count{1} << 40);
      if (std::find(z.begin(), z.end(), v) == z.end()) z.push_back(v);
    }
    cases.push_back({"adv:fallback-random-m" + std::to_string(m), "fallback",
                     {std::move(z)}, m == 32 ? 40 : 10,
                     m == 32 ? 10 : 4});
  }
  // Collinear wide-stride taps: the fallback list is small but highly
  // divisible, so accepted candidates scan it end to end.
  {
    std::vector<Address> z;
    for (Count i = 0; i < 512; ++i) z.push_back(i * (Count{1} << 21));
    cases.push_back(
        {"adv:fallback-collinear-m512", "fallback", {std::move(z)}, 60, 12});
  }

  // Fuzz-generator random classes, batched: the same adversarial draws the
  // differential fuzzer replays, restricted to configs that yield a valid
  // pattern with at least two taps.
  const struct {
    const char* cls;
    const char* label;
  } kClasses[] = {{"random:box-reach", "fuzz:box-reach"},
                  {"random:collinear", "fuzz:collinear"},
                  {"random:sparse-wide", "fuzz:sparse-wide"}};
  for (const auto& cls : kClasses) {
    Rng rng(0xf022);
    check::GeneratorOptions opts;
    opts.degenerate_rate = 0.0;
    opts.overflow_rate = 0.0;
    std::vector<std::vector<Address>> batch;
    int guard = 0;
    while (batch.size() < 24 && ++guard < 4000) {
      const check::CheckConfig config = check::generate_config(rng, opts);
      if (config.note != cls.cls || config.offsets.size() < 2) continue;
      try {
        const Pattern p(config.offsets);
        batch.push_back(pattern_z(p));
      } catch (const Error&) {
        continue;  // degenerate draw (duplicate offsets etc.)
      }
    }
    cases.push_back({cls.label, "table", std::move(batch), 400, 60});
  }
  return cases;
}

// ---------------------------------------------------------------------------
// Timing and comparison
// ---------------------------------------------------------------------------

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Times fn() over `reps` repetitions, three times; returns the best
/// per-rep average (min-of-means rides out scheduler noise on shared CI
/// machines better than a single long mean).
template <typename Fn>
double time_best_ns(Count reps, Fn&& fn) {
  double best = 0;
  for (int round = 0; round < 3; ++round) {
    const double t0 = now_ns();
    for (Count r = 0; r < reps; ++r) fn();
    const double per = (now_ns() - t0) / static_cast<double>(reps);
    if (round == 0 || per < best) best = per;
  }
  return best;
}

bool same_result(const BankSearchResult& a, const BankSearchResult& b) {
  return a.num_banks == b.num_banks && a.max_difference == b.max_difference &&
         a.rejected_candidates == b.rejected_candidates &&
         a.difference_set == b.difference_set;
}

struct TierTiming {
  simd::Tier tier;
  double ns = 0;
  double speedup = 0;
};

struct CaseReport {
  std::string name;
  std::string regime;
  Count batch = 0;
  Count m = 0;
  Count num_banks = 0;
  double reference_ns = 0;
  std::vector<TierTiming> tiers;
  double best_speedup = 0;
  std::string best_tier;
};

int verify_and_time(const SolveCase& c, const std::vector<simd::Tier>& tiers,
                    bool quick, CaseReport& report) {
  report.name = c.name;
  report.regime = c.regime;
  report.batch = static_cast<Count>(c.batch.size());
  report.m = c.batch.empty() ? 0 : static_cast<Count>(c.batch.front().size());

  // Structural gate first: reference vs every tier, with diagnostics so
  // the difference_set is compared too.
  ReferenceScratch ref_scratch;
  std::vector<BankSearchResult> expected;
  for (const auto& z : c.batch) {
    expected.push_back(
        reference_minimize_banks(z, /*collect_diagnostics=*/true, &ref_scratch));
  }
  if (!expected.empty()) report.num_banks = expected.front().num_banks;
  for (const simd::Tier tier : tiers) {
    simd::TierOverride override(tier);
    BankSearchScratch scratch;
    for (size_t i = 0; i < c.batch.size(); ++i) {
      const BankSearchResult got =
          minimize_banks(c.batch[i], /*collect_diagnostics=*/true, &scratch);
      if (!same_result(expected[i], got)) {
        std::cerr << "FAIL " << c.name << " tier " << simd::tier_name(tier)
                  << " z[" << i << "]: banks " << got.num_banks << " vs "
                  << expected[i].num_banks << ", max_diff "
                  << got.max_difference << " vs "
                  << expected[i].max_difference << ", rejected "
                  << got.rejected_candidates << " vs "
                  << expected[i].rejected_candidates << ", |Q| "
                  << got.difference_set.size() << " vs "
                  << expected[i].difference_set.size() << '\n';
        return 1;
      }
    }
  }

  // Timing: no diagnostics (the serve cold path's configuration), scratch
  // reused, identical batch on both sides.
  const Count reps = std::max<Count>(1, quick ? c.reps_quick : c.reps_full);
  report.reference_ns = time_best_ns(reps, [&] {
    for (const auto& z : c.batch) {
      (void)reference_minimize_banks(z, false, &ref_scratch);
    }
  });
  for (const simd::Tier tier : tiers) {
    simd::TierOverride override(tier);
    BankSearchScratch scratch;
    TierTiming t;
    t.tier = tier;
    t.ns = time_best_ns(reps, [&] {
      for (const auto& z : c.batch) {
        (void)minimize_banks(z, false, &scratch);
      }
    });
    t.speedup = t.ns > 0 ? report.reference_ns / t.ns : 0;
    report.tiers.push_back(t);
    if (t.speedup > report.best_speedup) {
      report.best_speedup = t.speedup;
      report.best_tier = simd::tier_name(tier);
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// LTB leg
// ---------------------------------------------------------------------------

struct LtbReport {
  std::string name;
  Count num_banks = 0;
  double unpruned_ns = 0;
  double pruned_ns = 0;
  double speedup = 0;
};

int ltb_leg(bool quick, std::vector<LtbReport>& out) {
  const char* kNames[] = {"LoG", "Median", "Gaussian", "Sobel3D"};
  for (const Pattern& p : patterns::table1_patterns()) {
    bool selected = false;
    for (const char* n : kNames) selected |= p.name() == n;
    if (!selected) continue;
    if (quick && p.name() == "Sobel3D") continue;  // ~1s per unpruned solve

    baseline::LtbOptions unpruned;
    baseline::LtbOptions pruned;
    pruned.prune = true;
    baseline::LtbScratch scratch;

    const baseline::LtbSolution a = baseline::ltb_solve(p, unpruned);
    const baseline::LtbSolution b = baseline::ltb_solve(p, pruned, scratch);
    if (a.num_banks != b.num_banks ||
        a.transform.alpha() != b.transform.alpha()) {
      std::cerr << "FAIL ltb " << p.name()
                << ": pruned solution differs from the unpruned "
                   "enumeration\n";
      return 1;
    }

    LtbReport r;
    r.name = p.name();
    r.num_banks = a.num_banks;
    const Count reps = quick ? 3 : (p.name() == "Sobel3D" ? 1 : 5);
    r.unpruned_ns =
        time_best_ns(reps, [&] { (void)baseline::ltb_solve(p, unpruned); });
    baseline::LtbSolution warm;
    r.pruned_ns = time_best_ns(reps, [&] {
      baseline::ltb_solve_into(p, pruned, scratch, warm);
    });
    r.speedup = r.pruned_ns > 0 ? r.unpruned_ns / r.pruned_ns : 0;
    out.push_back(r);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void write_json(const std::string& path, bool quick,
                const std::vector<simd::Tier>& tiers,
                const std::vector<CaseReport>& cases,
                const std::vector<LtbReport>& ltb, double geomean,
                double min_geomean, bool pass) {
  std::ostringstream json;
  json << "{\n  \"quick\": " << (quick ? "true" : "false") << ",\n  "
       << bench::host_json_fields() << ",\n";
  json << "  \"tiers\": [";
  for (size_t i = 0; i < tiers.size(); ++i) {
    json << (i ? ", " : "") << '"' << simd::tier_name(tiers[i]) << '"';
  }
  json << "],\n  \"cases\": [\n";
  for (size_t i = 0; i < cases.size(); ++i) {
    const CaseReport& c = cases[i];
    json << "    {\"name\": \"" << c.name << "\", \"regime\": \"" << c.regime
         << "\", \"batch\": " << c.batch << ", \"m\": " << c.m
         << ", \"num_banks\": " << c.num_banks
         << ", \"reference_ns\": " << c.reference_ns << ", \"tiers\": {";
    for (size_t t = 0; t < c.tiers.size(); ++t) {
      json << (t ? ", " : "") << '"' << simd::tier_name(c.tiers[t].tier)
           << "\": {\"ns\": " << c.tiers[t].ns
           << ", \"speedup\": " << c.tiers[t].speedup << '}';
    }
    json << "}, \"best_tier\": \"" << c.best_tier
         << "\", \"best_speedup\": " << c.best_speedup << '}'
         << (i + 1 < cases.size() ? ",\n" : "\n");
  }
  json << "  ],\n  \"ltb\": [\n";
  for (size_t i = 0; i < ltb.size(); ++i) {
    const LtbReport& r = ltb[i];
    json << "    {\"name\": \"" << r.name << "\", \"num_banks\": "
         << r.num_banks << ", \"unpruned_ns\": " << r.unpruned_ns
         << ", \"pruned_ns\": " << r.pruned_ns
         << ", \"speedup\": " << r.speedup << '}'
         << (i + 1 < ltb.size() ? ",\n" : "\n");
  }
  json << "  ],\n  \"geomean_best_speedup\": " << geomean
       << ",\n  \"gate\": {\"min_geomean\": " << min_geomean
       << ", \"pass\": " << (pass ? "true" : "false") << "}\n}\n";
  std::ofstream out(path);
  out << json.str();
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("bench_solver",
                   "A/B harness: vectorized cold-solve engine vs the scalar "
                   "reference implementation");
  parser.add_bool("quick", "fewer repetitions for CI");
  parser.add_int("min-geomean", 3, "speedup gate (geomean of best tiers)");
  parser.add_string("out", "BENCH_solver.json", "JSON output path");
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    parser.parse(args);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n' << parser.usage();
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.usage();
    return 0;
  }
  const bool quick = parser.get_bool("quick");
  const auto min_geomean = static_cast<double>(parser.get_int("min-geomean"));

  const std::vector<simd::Tier> tiers = simd::supported_tiers();
  std::cout << "bench_solver: tiers";
  for (const simd::Tier t : tiers) std::cout << ' ' << simd::tier_name(t);
  std::cout << (quick ? " (quick)" : "") << '\n';

  const std::vector<SolveCase> cases = build_cases();
  std::vector<CaseReport> reports;
  for (const SolveCase& c : cases) {
    CaseReport report;
    if (verify_and_time(c, tiers, quick, report) != 0) return 1;
    std::cout << "  " << report.name << ": ref " << report.reference_ns
              << " ns, best " << report.best_tier << " x"
              << report.best_speedup << '\n';
    reports.push_back(std::move(report));
  }

  std::vector<LtbReport> ltb;
  if (ltb_leg(quick, ltb) != 0) return 1;
  for (const LtbReport& r : ltb) {
    std::cout << "  ltb:" << r.name << ": unpruned " << r.unpruned_ns
              << " ns, pruned x" << r.speedup << '\n';
  }

  double log_sum = 0;
  for (const CaseReport& r : reports) {
    log_sum += std::log(std::max(r.best_speedup, 1e-9));
  }
  const double geomean =
      reports.empty() ? 0 : std::exp(log_sum / static_cast<double>(reports.size()));
  const bool pass = geomean >= min_geomean;
  std::cout << "geomean best-tier speedup: x" << geomean << " (gate "
            << min_geomean << ": " << (pass ? "pass" : "FAIL") << ")\n";

  write_json(parser.get_string("out"), quick, tiers, reports, ltb, geomean,
             min_geomean, pass);
  return pass ? 0 : 2;
}

// Tests of the benchmark's own arithmetic (arith.h). Exits non-zero on the
// first failed expectation; run.py runs it before every benchmark run.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "arith.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "arith_test: FAILED: %s\n", what);
    ++failures;
  }
}

void percentiles() {
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<size_t>(i)] = i + 1;
  expect(perfbench::percentile(v, 50) == 50, "p50 of 1..100 is 50");
  expect(perfbench::percentile(v, 90) == 90, "p90 of 1..100 is 90");
  expect(perfbench::percentile(v, 99) == 99, "p99 of 1..100 is 99");
  expect(perfbench::percentile(v, 100) == 100, "p100 is the maximum");
  const std::vector<int> odd = {3, 7, 9};
  expect(perfbench::percentile(odd, 50) == 7, "p50 of three is the middle");
  expect(perfbench::percentile(odd, 1) == 3, "p1 is the minimum");
  const std::vector<int> one = {42};
  expect(perfbench::percentile(one, 90) == 42, "one sample is every rank");
  // 0.9 * 10 is 9.000000000000002 in binary; the rank must still be 9.
  expect(perfbench::nearest_rank(10, 90) == 9, "rank of p90 among 10 is 9");
}

void tail_rule() {
  expect(perfbench::samples_beyond(100, 90) == 10, "100 samples: 10 beyond p90");
  expect(perfbench::samples_beyond(99, 90) == 9, "99 samples: 9 beyond p90");
  expect(perfbench::samples_beyond(1000, 99) == 10, "1000 samples: 10 beyond p99");
  expect(perfbench::samples_beyond(999, 99) == 9, "999 samples: 9 beyond p99");
  expect(perfbench::samples_beyond(100, 90) >= perfbench::kMinTail,
         "100 samples are enough for p90");
  expect(perfbench::samples_beyond(99, 90) < perfbench::kMinTail,
         "99 samples are not enough for p90");
}

void failure_accounting() {
  perfbench::Outcome clean;
  clean.attempted = 200;
  clean.ok = 200;
  expect(clean.failed() == 0 && clean.failed_pct() == 0.0, "all ok: 0% failed");

  perfbench::Outcome shed = clean;
  shed.ok = 190;
  shed.shed = 10;
  expect(shed.failed() == 10 && shed.failed_pct() == 5.0, "shed counts as failed");

  perfbench::Outcome lost = clean;
  lost.ok = 196;
  expect(lost.unanswered() == 4 && lost.failed_pct() == 2.0,
         "unanswered counts as failed");

  perfbench::Outcome wrong = clean;
  wrong.wrong = 2;
  expect(wrong.failed() == 2 && wrong.failed_pct() == 1.0,
         "a wrong answer counts as failed");

  perfbench::Outcome mixed = clean;
  mixed.ok = 190;
  mixed.errors = 4;
  mixed.shed = 2;
  mixed.wrong = 1;
  expect(mixed.unanswered() == 4 && mixed.failed() == 11,
         "error + shed + unanswered + wrong");

  perfbench::Outcome none;
  expect(none.failed_pct() == 100.0, "nothing attempted reads as all failed");
}

void throughput_counts_completions() {
  expect(perfbench::throughput(1000, 2.0) == 500.0, "1000 in 2 s is 500/s");
  perfbench::Outcome lossy;
  lossy.attempted = 1000;
  lossy.ok = 900;
  expect(perfbench::throughput(lossy.ok, 2.0) < perfbench::throughput(lossy.attempted, 2.0),
         "lost responses lower throughput");
  expect(perfbench::throughput(5, 0.0) == 0.0, "zero wall time reads 0");
}

// LoG 5x5 support (13 taps): alpha = (5, 1) gives N_f = 13 on 640x480.
std::vector<std::vector<std::int64_t>> log_offsets() {
  return {{0, 2}, {1, 1}, {1, 2}, {1, 3}, {2, 0}, {2, 1}, {2, 2},
          {2, 3}, {2, 4}, {3, 1}, {3, 2}, {3, 3}, {4, 2}};
}

perfbench::Answer answer_for(const std::vector<std::vector<std::int64_t>>& offsets,
                             std::vector<std::int64_t> alpha, std::int64_t n,
                             std::int64_t nf, std::int64_t fold) {
  perfbench::Answer a;
  a.alpha = std::move(alpha);
  a.num_banks = n;
  a.fold_factor = fold;
  for (const std::int64_t z : perfbench::transformed(offsets, a.alpha)) {
    std::int64_t bank = perfbench::mod(z, fold > 1 ? nf : n);
    if (fold > 1) bank = perfbench::mod(bank, n);
    a.pattern_banks.push_back(bank);
  }
  a.delta_ii = perfbench::max_multiplicity(a.pattern_banks, n) - 1;
  return a;
}

void bank_recomputation() {
  const auto offsets = log_offsets();
  const std::vector<std::int64_t> z = perfbench::transformed(offsets, {5, 1});
  expect(perfbench::min_conflict_free_banks(z) == 13, "LoG needs 13 banks");

  const perfbench::Answer good = answer_for(offsets, {5, 1}, 13, 13, 1);
  expect(perfbench::check_answer(offsets, 0, good).empty(), "LoG N=13 holds");

  perfbench::Answer flipped = good;
  flipped.pattern_banks[3] = (flipped.pattern_banks[3] + 1) % 13;
  expect(!perfbench::check_answer(offsets, 0, flipped).empty(),
         "a wrong bank index is rejected");

  perfbench::Answer too_many = answer_for(offsets, {5, 1}, 14, 14, 1);
  expect(!perfbench::check_answer(offsets, 0, too_many).empty(),
         "a non-minimal bank count is rejected");

  perfbench::Answer lying_delta = good;
  lying_delta.delta_ii = 1;
  expect(!perfbench::check_answer(offsets, 0, lying_delta).empty(),
         "a delta_ii that disagrees with the banks is rejected");

  // Same-size under N_max = 4: z mod 4, delta_P exact.
  const perfbench::Answer same = answer_for(offsets, {5, 1}, 4, 13, 1);
  expect(same.delta_ii > 0, "13 taps in 4 banks collide");
  expect(perfbench::check_answer(offsets, 4, same).empty(), "same-size N=4 holds");
  perfbench::Answer understated = same;
  --understated.delta_ii;
  expect(!perfbench::check_answer(offsets, 4, understated).empty(),
         "an understated same-size delta is rejected");
  expect(!perfbench::check_answer(offsets, 3, same).empty(),
         "N above N_max is rejected");

  // Fast fold under N_max = 4: F = 4, N = 4, delta bounded by F - 1.
  perfbench::Answer fold = answer_for(offsets, {5, 1}, 4, 13, 4);
  fold.delta_ii = 3;
  expect(perfbench::check_answer(offsets, 4, fold).empty(), "fast fold holds");
  perfbench::Answer bad_fold = fold;
  bad_fold.pattern_banks[0] = (bad_fold.pattern_banks[0] + 1) % 4;
  expect(!perfbench::check_answer(offsets, 4, bad_fold).empty(),
         "a wrong folded bank is rejected");

  perfbench::Answer collapsing = good;
  collapsing.alpha = {0, 1};  // every row lands on the same addresses
  expect(!perfbench::check_answer(offsets, 0, collapsing).empty(),
         "an alpha that maps two offsets together is rejected");

  perfbench::Answer wrong_rank = good;
  wrong_rank.alpha.push_back(1);
  expect(!perfbench::check_answer(offsets, 0, wrong_rank).empty(),
         "an alpha of the wrong rank is rejected");
}

}  // namespace

int main() {
  percentiles();
  tail_rule();
  failure_accounting();
  throughput_counts_completions();
  bank_recomputation();
  if (failures != 0) return 1;
  std::printf("arith_test: all checks passed\n");
  return 0;
}

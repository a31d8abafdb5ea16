// Solver corpus and field-by-field solution comparison shared by the cache
// and batched-solver identity tests.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/partitioner.h"
#include "pattern/pattern_library.h"

namespace mempart::testsupport {

/// Distinct shapeless requests covering the solver surface: the Table 1
/// patterns plus larger and sparser generated ones (where Algorithm 1's
/// pair scan dominates), each unconstrained and under N_max = 8 with both
/// strategies, the capped ones also at bank bandwidth 2.
inline std::vector<PartitionRequest> solver_corpus() {
  std::vector<Pattern> pool = patterns::table1_patterns();
  pool.push_back(patterns::box2d(8));
  pool.push_back(patterns::box2d(10));
  pool.push_back(patterns::cross2d(16));
  pool.push_back(patterns::cross2d(24));
  pool.push_back(patterns::box3d(5));
  pool.push_back(patterns::row1d(24));
  pool.push_back(patterns::atrous2d(7, 5));

  std::vector<PartitionRequest> corpus;
  for (const Pattern& pattern : pool) {
    for (const Count max_banks : {Count{0}, Count{8}}) {
      for (const ConstraintStrategy strategy :
           {ConstraintStrategy::kFastFold, ConstraintStrategy::kSameSize}) {
        PartitionRequest request;
        request.pattern = pattern;
        request.max_banks = max_banks;
        request.strategy = strategy;
        corpus.push_back(request);
        if (max_banks != 0) {
          request.bank_bandwidth = 2;
          corpus.push_back(request);
        }
      }
    }
  }
  return corpus;
}

/// Names a corpus request in failure messages.
inline std::string describe(const PartitionRequest& request) {
  return request.pattern->name() + " nmax=" + std::to_string(request.max_banks) +
         (request.strategy == ConstraintStrategy::kSameSize ? " same-size"
                                                            : " fast") +
         " B=" + std::to_string(request.bank_bandwidth);
}

/// Expects every field of two solutions of one request to match, ops
/// excepted: a cache hit honestly performs less arithmetic than a solve.
inline void expect_same_solution(const PartitionSolution& got,
                                 const PartitionSolution& want,
                                 const std::string& where) {
  EXPECT_EQ(got.transform.alpha(), want.transform.alpha()) << where;
  EXPECT_EQ(got.search.num_banks, want.search.num_banks) << where;
  EXPECT_EQ(got.search.max_difference, want.search.max_difference) << where;
  EXPECT_EQ(got.constraint.num_banks, want.constraint.num_banks) << where;
  EXPECT_EQ(got.constraint.fold_factor, want.constraint.fold_factor) << where;
  EXPECT_EQ(got.constraint.delta_ii, want.constraint.delta_ii) << where;
  EXPECT_EQ(got.constraint.strategy, want.constraint.strategy) << where;
  EXPECT_EQ(got.constraint.sweep, want.constraint.sweep) << where;
  EXPECT_EQ(got.transformed, want.transformed) << where;
  EXPECT_EQ(got.pattern_banks, want.pattern_banks) << where;
  EXPECT_EQ(got.bank_bandwidth, want.bank_bandwidth) << where;
}

}  // namespace mempart::testsupport

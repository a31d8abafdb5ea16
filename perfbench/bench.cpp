// perfbench: runs one workload of the mempart end-to-end benchmark in this
// process, checks every answer, and prints the metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
//
// Workloads (each drives the program through its public functions only):
//
//   serve_repeat    an in-process serve::Server on an AF_UNIX socket with one
//                   solver worker; this thread is the one client and keeps
//                   kInFlight requests in flight on one connection (a closed
//                   loop, as compile jobs wait for their answer). 19 of every
//                   20 requests are translations / dimension swaps of the
//                   Table-1 stencils on Table-1 arrays; the 20th is a fresh
//                   random pattern that misses the cache.
//   batch_distinct  Partitioner::solve_many_collect on one thread with the
//                   global cache, on calls of kBatchSize random 2-D/3-D
//                   patterns that are all new classes, so the cache fills
//                   and LRU eviction runs.
//   sim_replay      loopnest::simulate_fast of one 640x480 frame under the six
//                   2-D Table-1 stencils, each unconstrained and with
//                   N_max = 4 (same-size, so delta_P > 0 is exact).
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, timed by spans this file opens around each public call, replayed
// on the workload's own inputs. The program's own telemetry stays at its
// defaults either way. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the exit code is non-zero
// when any answer is wrong.
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "arith.h"
#include "check/oracle.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "core/bank_constraint.h"
#include "core/bank_mapping.h"
#include "core/bank_search.h"
#include "core/linear_transform.h"
#include "core/partitioner.h"
#include "core/solve_cache.h"
#include "hw/resolutions.h"
#include "loopnest/schedule.h"
#include "loopnest/stencil_program.h"
#include "pattern/canonical.h"
#include "pattern/pattern_library.h"
#include "serve/request.h"
#include "serve/server.h"
#include "sim/access_engine.h"
#include "sim/access_plan.h"
#include "sim/address_map.h"

namespace {

using namespace mempart;
namespace pb = perfbench;

constexpr int kInFlight = 8;          // serve_repeat requests in flight
constexpr Count kServeWorkers = 1;  // serve_repeat solver workers
constexpr std::int64_t kMissEvery = 20;  // every 20th serve request is new
constexpr int kBatchSize = 256;
// batch_distinct solves on one thread. With the default pool (one thread per
// core, created per call) a shared 4-vCPU Xeon VM swung between about 55k
// and 106k requests/s from one quarter hour to the next, as the guest
// scheduler did or did not spread the new threads; no bound could hold.
constexpr Count kBatchThreads = 1;
constexpr int kSetupReps = 11;
// serve_repeat's warm pass sends the hot set this many times: a few
// milliseconds of thread placement then move its set-up time by a small
// share, not by half.
constexpr std::int64_t kWarmPasses = 8;
// Quality means (banks, cycles, overhead) cover a fixed prefix of the
// request stream, so they repeat exactly for a seed whatever the speed.
constexpr std::int64_t kServeQualityRequests = 35000;
constexpr std::int64_t kBatchQualityCalls = 256;
// Traced-run replays: fixed inputs, so their counts repeat for a seed.
constexpr std::int64_t kServeReplayRequests = 7000;
constexpr std::int64_t kBatchReplayCalls = 24;
constexpr std::int64_t kServeProbeRequests = 4000;
constexpr size_t kSimProbeDesigns = 4;
constexpr size_t kMaxProblems = 5;
// A measured leg is cut into windows and each end-to-end timing is the
// median of its per-window values, so interference from other tenants of
// the machine moves a minority of windows, not the result. Throughput and
// CPU per op use rate windows of at least kRateWindowNs (one op when ops are
// longer); p50 and p90 use tail windows of at least kTailWindowNs and
// kMinOps ops, which leaves at least ten samples beyond each p90.
constexpr std::int64_t kRateWindowNs = 10'000'000;
constexpr std::int64_t kTailWindowNs = 100'000'000;
constexpr std::int64_t kMinOps = 110;

// ---------------------------------------------------------------- clocks

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// A /proc/self/status field in MB (VmRSS = now, VmHWM = peak).
double status_mb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ':', 0) == 0) {
      return std::stod(line.substr(key.size() + 1)) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------- inputs

/// splitmix64 keyed on (seed, stream, index): request k of a stream is the
/// same in every run of a seed, however many requests came before it.
struct Rng {
  std::uint64_t state;
  Rng(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
      : state(seed * 0x9E3779B97F4A7C15ull ^ (stream + 1) * 0xBF58476D1CE4E5B9ull ^
              (index + 1) * 0x94D049BB133111EBull) {
    next();
  }
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<size_t>(range(0, static_cast<std::int64_t>(i) - 1))]);
    }
  }
};

/// One generated request, with its NDJSON members pre-rendered.
struct Req {
  std::vector<NdIndex> offsets;
  std::vector<Count> shape;
  Count cap = 0;
  ConstraintStrategy strategy = ConstraintStrategy::kFastFold;
  int memo = -1;     ///< serve: slot of the memoised verified answer
  std::string body;  ///< members after "id", closing brace included

  [[nodiscard]] double elements() const {
    double v = 1.0;
    for (const Count e : shape) v *= static_cast<double>(e);
    return v;
  }
};

void append_list(std::string& out, const std::vector<Coord>& v) {
  out += '[';
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(v[i]);
  }
  out += ']';
}

/// Renders the request's NDJSON members. Offsets go out sorted, the order
/// Pattern keeps them in, so pattern_banks[i] answers offsets[i].
void render(Req& r) {
  std::sort(r.offsets.begin(), r.offsets.end());
  r.body = "\"offsets\": [";
  for (size_t i = 0; i < r.offsets.size(); ++i) {
    if (i) r.body += ", ";
    append_list(r.body, r.offsets[i]);
  }
  r.body += "], \"shape\": ";
  append_list(r.body, r.shape);
  r.body += ", \"max_banks\": " + std::to_string(r.cap) +
            ", \"bank_bandwidth\": 1, \"strategy\": \"" +
            (r.strategy == ConstraintStrategy::kSameSize ? "same_size" : "fast_fold") +
            "\", \"tail\": \"padded\"}";
}

std::string request_line(std::int64_t id, const Req& r) {
  return "{\"id\": \"" + std::to_string(id) + "\", " + r.body;
}

PartitionRequest to_partition(const Req& r) {
  PartitionRequest p;
  p.pattern = Pattern(r.offsets);
  p.array_shape = NdShape(r.shape);
  p.max_banks = r.cap;
  p.strategy = r.strategy;
  return p;
}

/// m distinct random cells of a `box`, as offsets.
void random_offsets(Rng& rng, const std::vector<Count>& box, Count m,
                    std::vector<NdIndex>& out) {
  Count volume = 1;
  for (const Count e : box) volume *= e;
  std::vector<Count> cells(static_cast<size_t>(volume));
  for (Count i = 0; i < volume; ++i) cells[static_cast<size_t>(i)] = i;
  for (Count i = 0; i < m; ++i) {
    std::swap(cells[static_cast<size_t>(i)],
              cells[static_cast<size_t>(rng.range(i, volume - 1))]);
  }
  out.assign(static_cast<size_t>(m), NdIndex(box.size()));
  for (Count i = 0; i < m; ++i) {
    Count cell = cells[static_cast<size_t>(i)];
    for (size_t d = box.size(); d-- > 0;) {
      out[static_cast<size_t>(i)][d] = cell % box[d];
      cell /= box[d];
    }
  }
}

void random_cap(Rng& rng, Count lo, Count hi, Req& r) {
  r.cap = rng.range(0, 1) ? rng.range(lo, hi) : 0;
  r.strategy = rng.range(0, 1) ? ConstraintStrategy::kSameSize
                               : ConstraintStrategy::kFastFold;
}

/// serve_repeat's cache-missing request `k`: 6..16 taps in a <= 8x8 box on
/// the SD frame.
void serve_miss(std::uint64_t seed, std::int64_t k, Req& r) {
  Rng rng(seed, 2, static_cast<std::uint64_t>(k));
  const Count m = rng.range(6, 16);
  std::vector<Count> box;
  do {
    box = {rng.range(3, 8), rng.range(3, 8)};
  } while (box[0] * box[1] < m + 2);
  random_offsets(rng, box, m, r.offsets);
  r.shape = {640, 480};
  random_cap(rng, 4, 8, r);
  r.memo = -1;
  render(r);
}

/// batch_distinct's request `slot` of call `call`: rank 2 (3 in 4) or 3,
/// 8..48 taps in a box of at least 2m cells, on a random array.
Req batch_request(std::uint64_t seed, std::int64_t call, int slot) {
  Rng rng(seed, 3, static_cast<std::uint64_t>(call) * kBatchSize +
                       static_cast<std::uint64_t>(slot));
  Req r;
  const bool three_d = rng.range(0, 3) == 0;
  const Count m = rng.range(8, 48);
  std::vector<Count> box;
  do {
    box = three_d ? std::vector<Count>{rng.range(3, 6), rng.range(3, 6), rng.range(3, 6)}
                  : std::vector<Count>{rng.range(4, 16), rng.range(4, 16)};
  } while (std::accumulate(box.begin(), box.end(), Count{1}, std::multiplies<>()) < 2 * m);
  random_offsets(rng, box, m, r.offsets);
  r.shape = three_d ? std::vector<Count>{rng.range(16, 96), rng.range(16, 96), rng.range(16, 96)}
                    : std::vector<Count>{rng.range(64, 640), rng.range(64, 640)};
  random_cap(rng, 4, 16, r);
  render(r);
  return r;
}

std::vector<Req> batch_call(std::uint64_t seed, std::int64_t call) {
  std::vector<Req> out;
  out.reserve(kBatchSize);
  for (int j = 0; j < kBatchSize; ++j) out.push_back(batch_request(seed, call, j));
  return out;
}

/// A Table-1 stencil translated by the seed and optionally with dims 0/1
/// swapped, on `shape` (swapped alike).
Req stencil_request(const Pattern& p, std::vector<Count> shape, bool swap,
                    Count cap, ConstraintStrategy strategy, Rng& rng) {
  Req r;
  NdIndex shift(static_cast<size_t>(p.rank()));
  for (Coord& s : shift) s = rng.range(-8, 8);
  for (NdIndex o : p.offsets()) {
    for (size_t d = 0; d < o.size(); ++d) o[d] += shift[d];
    if (swap) std::swap(o[0], o[1]);
    r.offsets.push_back(std::move(o));
  }
  if (swap) std::swap(shape[0], shape[1]);
  r.shape = std::move(shape);
  r.cap = cap;
  r.strategy = strategy;
  render(r);
  return r;
}

struct CapConfig {
  Count cap;
  ConstraintStrategy strategy;
};

/// serve_repeat's hot set: every (stencil, cap, Table-1 resolution, swap)
/// combination once, in a seeded order, so the mix is the same for every
/// seed and only translations and order move.
std::vector<Req> hot_variants(std::uint64_t seed) {
  const std::vector<CapConfig> caps = {{0, ConstraintStrategy::kFastFold},
                                       {4, ConstraintStrategy::kFastFold},
                                       {4, ConstraintStrategy::kSameSize},
                                       {8, ConstraintStrategy::kFastFold},
                                       {8, ConstraintStrategy::kSameSize}};
  Rng rng(seed, 1, 0);
  std::vector<Req> out;
  for (const Pattern& p : patterns::table1_patterns()) {
    for (const CapConfig& c : caps) {
      for (const hw::Resolution& res : hw::table1_resolutions()) {
        for (const bool swap : {false, true}) {
          const NdShape shape = p.rank() == 3 ? res.shape3d() : res.shape2d();
          out.push_back(stencil_request(p, shape.extents(), swap, c.cap,
                                        c.strategy, rng));
        }
      }
    }
  }
  rng.shuffle(out);
  for (size_t i = 0; i < out.size(); ++i) out[i].memo = static_cast<int>(i);
  return out;
}

/// sim_replay's designs: the six 2-D Table-1 stencils on 640x480,
/// unconstrained and same-size N_max = 4, seeded translation and order.
std::vector<Req> sim_requests(std::uint64_t seed) {
  Rng rng(seed, 4, 0);
  std::vector<Req> out;
  for (const Pattern& p : patterns::table1_patterns()) {
    if (p.rank() != 2) continue;
    for (const Count cap : {Count{0}, Count{4}}) {
      out.push_back(stencil_request(p, {640, 480}, false, cap,
                                    ConstraintStrategy::kSameSize, rng));
    }
  }
  rng.shuffle(out);
  return out;
}

// ---------------------------------------------------------------- checks

pb::Answer answer_of(const PartitionSolution& s) {
  pb::Answer a;
  a.alpha = s.transform.alpha();
  a.num_banks = s.num_banks();
  a.delta_ii = s.delta_ii();
  a.fold_factor = s.constraint.fold_factor;
  a.pattern_banks = s.pattern_banks;
  return a;
}

/// Confirms an answer on a small domain with the exhaustive oracle: the
/// worst bank multiplicity over every anchor, and (bank, offset) uniqueness
/// of the BankMapping the answer's alpha and N define.
std::string oracle_check(const Req& r, const pb::Answer& a) {
  const size_t rank = a.alpha.size();
  std::vector<Coord> lo(rank, INT64_MAX), hi(rank, INT64_MIN);
  for (const NdIndex& o : r.offsets) {
    for (size_t d = 0; d < rank; ++d) {
      lo[d] = std::min(lo[d], o[d]);
      hi[d] = std::max(hi[d], o[d]);
    }
  }
  std::vector<std::vector<Coord>> rel;
  for (const NdIndex& o : r.offsets) {
    std::vector<Coord> x(rank);
    for (size_t d = 0; d < rank; ++d) x[d] = o[d] - lo[d];
    rel.push_back(std::move(x));
  }
  std::vector<Count> extents(rank);
  for (size_t d = 0; d < rank; ++d) {
    extents[d] = std::min(r.shape[d], hi[d] - lo[d] + 9);
  }
  // The innermost-remap precondition depends on the innermost extent when
  // alpha is permuted, so that dimension keeps the request's extent.
  if (a.alpha.back() != 1) extents[rank - 1] = r.shape[rank - 1];

  const bool folded = a.fold_factor > 1;
  const Count nf = pb::min_conflict_free_banks(pb::transformed(r.offsets, a.alpha));
  const auto own_bank = [&](const std::vector<Coord>& x) {
    Count z = 0;
    for (size_t d = 0; d < rank; ++d) z += a.alpha[d] * x[d];
    const Count b = pb::mod(z, folded ? nf : a.num_banks);
    return folded ? pb::mod(b, a.num_banks) : b;
  };
  const check::ConflictReport conflicts =
      check::enumerate_conflicts(rel, extents, own_bank);
  std::ostringstream why;
  if (conflicts.positions == 0) return "no anchor fits the oracle domain";
  if (folded ? conflicts.delta_p > a.delta_ii : conflicts.delta_p != a.delta_ii) {
    why << "oracle delta_P " << conflicts.delta_p << " vs answer " << a.delta_ii;
    return why.str();
  }
  BankMapping::Options options;
  options.num_banks = a.num_banks;
  options.fold_modulus = folded ? nf : 0;
  const BankMapping map(NdShape(extents), LinearTransform(a.alpha), options);
  std::vector<Count> capacity;
  for (Count b = 0; b < a.num_banks; ++b) capacity.push_back(map.bank_capacity(b));
  bool agree = true;
  const check::AddressReport addresses = check::enumerate_addresses(
      extents, a.num_banks,
      [&](const std::vector<Coord>& x) {
        const Count b = map.bank_of(x);
        agree = agree && b == own_bank(x);
        return b;
      },
      [&](const std::vector<Coord>& x) { return map.offset_of(x); }, capacity);
  if (!agree) return "BankMapping::bank_of disagrees with the answer's alpha";
  if (!addresses.ok) return addresses.violation;
  return "";
}

/// Means of the answer-quality metrics over a fixed set of answers.
struct Quality {
  double banks = 0.0;
  double cycles = 0.0;
  double overhead = 0.0;  ///< storage overhead / array elements
  std::int64_t n = 0;

  void add(double b, double c, double o) {
    banks += b;
    cycles += c;
    overhead += o;
    ++n;
  }
  [[nodiscard]] double mean(double sum) const {
    return n ? sum / static_cast<double>(n) : 0.0;
  }
};

/// What one timed leg measured: totals over the leg, plus closed windows.
struct Leg {
  pb::Outcome outcome;
  std::int64_t completed = 0;  ///< throughput numerator (ops or accesses)
  double wall_s = 0.0;         ///< throughput denominator
  double cpu_s = 0.0;          ///< program CPU over the leg
  double process_cpu_s = 0.0;  ///< all process CPU over the leg
  double span_s = 0.0;         ///< leg wall time, end to end
  std::vector<double> latency_us;  ///< every op, in completion order
  Quality quality;
  std::vector<std::string> problems;

  // Closed windows.
  std::vector<double> rate_throughput;
  std::vector<double> rate_cpu_us;
  std::vector<double> tail_p50_us;
  std::vector<double> tail_p90_us;

  // The open rate window, and the open tail window's first sample.
  std::int64_t rate_start = 0;
  std::int64_t rate_units = 0;
  std::int64_t rate_cpu_ops = 0;
  double rate_busy_s = 0.0;
  double rate_cpu_s = 0.0;
  std::int64_t tail_start = 0;
  size_t tail_first = 0;

  void problem(const std::string& what) {
    if (problems.size() < kMaxProblems) problems.push_back(what);
  }

  /// Accounts one op: its latency, `units` of throughput, `cpu_ops` ops of
  /// CPU accounting, and the wall and CPU time it kept the program busy.
  void op(double latency, std::int64_t units, std::int64_t cpu_ops, double busy,
          double cpu) {
    latency_us.push_back(latency);
    completed += units;
    wall_s += busy;
    cpu_s += cpu;
    rate_units += units;
    rate_cpu_ops += cpu_ops;
    rate_busy_s += busy;
    rate_cpu_s += cpu;
  }

  /// Opens both windows at `now`.
  void begin(std::int64_t now) {
    rate_start = tail_start = now;
    rate_units = rate_cpu_ops = 0;
    rate_busy_s = rate_cpu_s = 0.0;
    tail_first = latency_us.size();
  }

  [[nodiscard]] bool rate_full(std::int64_t now) const {
    return now - rate_start >= kRateWindowNs && rate_cpu_ops > 0;
  }
  void close_rate(std::int64_t now) {
    rate_throughput.push_back(pb::throughput(rate_units, rate_busy_s));
    rate_cpu_us.push_back(1e6 * rate_cpu_s / static_cast<double>(rate_cpu_ops));
    rate_start = now;
    rate_units = rate_cpu_ops = 0;
    rate_busy_s = rate_cpu_s = 0.0;
  }

  [[nodiscard]] bool tail_full(std::int64_t now) const {
    return now - tail_start >= kTailWindowNs &&
           static_cast<std::int64_t>(latency_us.size() - tail_first) >= kMinOps;
  }
  void close_tail(std::int64_t now) {
    std::vector<double> w(latency_us.begin() + static_cast<std::ptrdiff_t>(tail_first),
                          latency_us.end());
    std::sort(w.begin(), w.end());
    tail_p50_us.push_back(pb::percentile(w, 50));
    tail_p90_us.push_back(pb::percentile(w, 90));
    tail_start = now;
    tail_first = latency_us.size();
  }

  /// Closes whichever windows are full, for legs that time each op.
  void tick(std::int64_t now) {
    if (rate_full(now)) close_rate(now);
    if (tail_full(now)) close_tail(now);
  }

  [[nodiscard]] bool measured() const {
    return !rate_throughput.empty() && !tail_p50_us.empty();
  }
};

// ---------------------------------------------------------------- tracing

/// Spans the benchmark records around its calls into the program. Kept in
/// memory and written once at exit. Single-threaded: the stack gives each
/// span its parent.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    std::int32_t parent;
    std::int64_t request;
  };

  bool on = false;

  std::int32_t open(const char* name, std::int64_t request = -1) {
    if (!on) return -1;
    spans_.push_back({name, now_ns(), 0, parent(), request});
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void close(std::int32_t id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end = now_ns();
    stack_.pop_back();
  }
  /// A span whose interval was measured elsewhere (overlapping requests).
  void record(const char* name, std::int64_t start, std::int64_t end,
              std::int64_t request) {
    if (on) spans_.push_back({name, start, end, parent(), request});
  }

  /// Self time per span name: duration minus the union of its children.
  [[nodiscard]] std::map<std::string, std::vector<double>> self_ns() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) kids[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
    std::map<std::string, std::vector<double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto& c = kids[i];
      std::sort(c.begin(), c.end());
      std::int64_t covered = 0, reach = spans_[i].start;
      for (const auto& [a, b] : c) {
        const std::int64_t from = std::max(a, reach), to = std::min(b, spans_[i].end);
        if (to > from) covered += to - from;
        reach = std::max(reach, to);
      }
      out[spans_[i].name].push_back(
          static_cast<double>(spans_[i].end - spans_[i].start - covered));
    }
    return out;
  }

  [[nodiscard]] std::map<std::string, double> total_ns() const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) out[s.name] += static_cast<double>(s.end - s.start);
    return out;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "name\tstart_ns\tend_ns\tparent\trequest\n";
    for (const Span& s : spans_) {
      out << s.name << '\t' << s.start << '\t' << s.end << '\t' << s.parent
          << '\t' << s.request << '\n';
    }
  }

 private:
  [[nodiscard]] std::int32_t parent() const { return stack_.empty() ? -1 : stack_.back(); }

  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class Scoped {
 public:
  Scoped(Tracer& t, const char* name, std::int64_t request = -1)
      : t_(t), id_(t.open(name, request)) {}
  ~Scoped() { t_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& t_;
  std::int32_t id_;
};

// ---------------------------------------------------------------- serving

bool find_int(std::string_view line, std::string_view key, std::int64_t& out) {
  const size_t at = line.find(key);
  if (at == std::string_view::npos) return false;
  const char* p = line.data() + at + key.size();
  return std::from_chars(p, line.data() + line.size(), out).ec == std::errc();
}

bool find_array(std::string_view line, std::string_view key,
                std::vector<std::int64_t>& out) {
  out.clear();
  size_t at = line.find(key);
  if (at == std::string_view::npos) return false;
  at += key.size();
  while (at < line.size() && line[at] != ']') {
    std::int64_t v = 0;
    const auto r = std::from_chars(line.data() + at, line.data() + line.size(), v);
    if (r.ec != std::errc()) return false;
    out.push_back(v);
    at = static_cast<size_t>(r.ptr - line.data());
    while (at < line.size() && (line[at] == ',' || line[at] == ' ')) ++at;
  }
  return at < line.size();
}

bool parse_answer(std::string_view line, pb::Answer& a, std::int64_t& overhead) {
  return find_int(line, "\"num_banks\": ", a.num_banks) &&
         find_int(line, "\"delta_ii\": ", a.delta_ii) &&
         find_int(line, "\"fold_factor\": ", a.fold_factor) &&
         find_array(line, "\"alpha\": [", a.alpha) &&
         find_array(line, "\"pattern_banks\": [", a.pattern_banks) &&
         find_int(line, "\"storage_overhead\": ", overhead);
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// An in-process serve::Server on a socket plus one client connection.
class ServeHarness {
 public:
  ServeHarness(const std::string& path, SolveCache* cache) {
    serve::ServeOptions options;
    options.socket_path = path;
    options.threads = kServeWorkers;
    options.cache = cache;
    server_ = std::make_unique<serve::Server>(options);
    thread_ = std::thread([this] {
      try {
        summary_ = server_->run_socket();
      } catch (const std::exception& e) {
        error_ = e.what();
        failed_.store(true);
      }
    });
    const std::int64_t deadline = now_ns() + 5'000'000'000;
    while ((fd_ = connect_unix(path)) < 0) {
      if (failed_.load() || now_ns() > deadline) {
        stop();
        throw std::runtime_error("serve: cannot connect to " + path + " " + error_);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
  ~ServeHarness() { stop(); }
  ServeHarness(const ServeHarness&) = delete;
  ServeHarness& operator=(const ServeHarness&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  /// Closes the connection, drains the server and joins it.
  serve::ServeSummary stop() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    if (thread_.joinable()) {
      server_->request_shutdown();
      thread_.join();
    }
    return summary_;
  }

 private:
  std::unique_ptr<serve::Server> server_;
  serve::ServeSummary summary_;
  std::string error_;
  std::atomic<bool> failed_{false};
  std::thread thread_;
  int fd_ = -1;
};

/// How long one client run lasts and what it records.
struct Plan {
  std::int64_t max_requests = -1;  ///< stop sending after this many (< 0: no cap)
  std::int64_t min_requests = 0;   ///< ... or once this many are sent and
  double seconds = 0.0;            ///< this much time has passed and,
  bool windowed = false;           ///< for a measured leg, a window has closed
  std::int64_t quality_end = 0;    ///< answers to requests k < this feed quality
  std::function<bool(std::int64_t)> sample = [](std::int64_t) { return false; };
};

/// The closed-loop client: keeps kInFlight requests in flight, matches each
/// response to its request by id, and verifies every answer.
class Client {
 public:
  using Source = std::function<const Req*(std::int64_t k)>;

  explicit Client(size_t memo_slots) : memo_(memo_slots) {}

  /// Sends requests source(0), source(1), ... on `fd` as `plan` says, then
  /// waits for the ones in flight. `plan.sample(k)` picks answers for the
  /// oracle.
  void run(int fd, const Source& source, const Plan& plan, Leg& leg, Tracer* tracer) {
    const std::int64_t start = now_ns();
    const auto limit = static_cast<std::int64_t>(plan.seconds * 1e9);
    const double cpu0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID), own0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
    // Program CPU: the process's, minus this client thread's own.
    double window_cpu = cpu0 - own0;
    leg.begin(start);
    std::int64_t sent = 0;
    int inflight = 0;
    bool stopping = false;
    const auto send_next = [&] {
      const Req* r = source(sent);
      Slot& slot = slots_[static_cast<size_t>(next_id_ % kSlots)];
      slot = {next_id_, sent, now_ns(), r, true};
      const std::string line = request_line(next_id_, *r) + '\n';
      send_all(fd, line);
      ++next_id_;
      ++sent;
      ++inflight;
      ++leg.outcome.attempted;
    };
    const auto may_send = [&] {
      if (stopping) return false;
      if ((plan.max_requests >= 0 && sent >= plan.max_requests) ||
          (sent >= plan.min_requests && now_ns() - start >= limit &&
           (!plan.windowed || leg.measured()))) {
        stopping = true;
      }
      return !stopping;
    };
    while (inflight < kInFlight && may_send()) send_next();
    std::string buffer;
    std::vector<char> chunk(1 << 16);
    while (inflight > 0) {
      // Busy-polls: a client blocked in poll() added its own wake-up
      // latency, erratic on a shared VM, to every request. One that yielded
      // between polls spread 22% (throughput) and 34% (p90) between the
      // quartiles of ten runs, against 3% and 5% without yielding.
      ssize_t n = 0;
      const std::int64_t silent_since = now_ns();
      while ((n = ::recv(fd, chunk.data(), chunk.size(), MSG_DONTWAIT)) < 0 &&
             (errno == EAGAIN || errno == EWOULDBLOCK) &&
             now_ns() - silent_since < 10'000'000'000) {
      }
      if (n <= 0) break;  // closed, failed, or silent for 10 s
      buffer.append(chunk.data(), static_cast<size_t>(n));
      size_t begin = 0;
      for (size_t end = buffer.find('\n'); end != std::string::npos;
           end = buffer.find('\n', begin)) {
        if (handle(std::string_view(buffer).substr(begin, end - begin), plan, leg,
                   tracer)) {
          --inflight;
        }
        begin = end + 1;
        const std::int64_t now = now_ns();
        if (!stopping && leg.rate_full(now)) {
          const double cpu = cpu_s(CLOCK_PROCESS_CPUTIME_ID) - cpu_s(CLOCK_THREAD_CPUTIME_ID);
          leg.rate_busy_s = 1e-9 * static_cast<double>(now - leg.rate_start);
          leg.rate_cpu_s = cpu - window_cpu;
          leg.close_rate(now);
          window_cpu = cpu;
        }
        if (!stopping && leg.tail_full(now)) leg.close_tail(now);
        if (may_send()) send_next();
      }
      buffer.erase(0, begin);
    }
    const std::int64_t stop = now_ns();
    leg.span_s += 1e-9 * static_cast<double>(stop - start);
    leg.wall_s += 1e-9 * static_cast<double>(stop - start);
    const double own = cpu_s(CLOCK_THREAD_CPUTIME_ID) - own0;
    leg.process_cpu_s += cpu_s(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    leg.cpu_s += cpu_s(CLOCK_PROCESS_CPUTIME_ID) - cpu0 - own;
    if (inflight > 0) leg.problem(std::to_string(inflight) + " requests unanswered");
  }

  /// Answers picked by `sample`, for the oracle after the timed leg.
  std::vector<std::pair<Req, pb::Answer>> sampled;

 private:
  static constexpr std::int64_t kSlots = 64;
  struct Slot {
    std::int64_t id = -1;
    std::int64_t k = 0;
    std::int64_t sent_ns = 0;
    const Req* req = nullptr;
    bool pending = false;
  };
  struct Memo {
    std::string payload;  ///< the verified response after the id member
    double banks = 0, cycles = 0, overhead = 0;
    bool set = false;
  };

  static void send_all(int fd, const std::string& data) {
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("serve: send failed");
      p += n;
      left -= static_cast<size_t>(n);
    }
  }

  /// Accounts one response line; returns true when it answered a pending
  /// request.
  bool handle(std::string_view line, const Plan& plan, Leg& leg, Tracer* tracer) {
    const std::int64_t received = now_ns();
    constexpr std::string_view kId = "{\"id\": \"";
    std::int64_t id = -1;
    if (line.substr(0, kId.size()) == kId) {
      std::from_chars(line.data() + kId.size(), line.data() + line.size(), id);
    }
    Slot& slot = slots_[static_cast<size_t>((id < 0 ? 0 : id) % kSlots)];
    if (id < 0 || !slot.pending || slot.id != id) {
      ++leg.outcome.wrong;
      leg.problem("response to no pending request: " + std::string(line.substr(0, 80)));
      return false;
    }
    slot.pending = false;
    if (line.find("\"ok\": true") == std::string_view::npos) {
      if (line.find("\"shed\": true") != std::string_view::npos) {
        ++leg.outcome.shed;
      } else {
        ++leg.outcome.errors;
        leg.problem("error response: " + std::string(line.substr(0, 160)));
      }
      return true;
    }
    ++leg.outcome.ok;
    leg.op(1e-3 * static_cast<double>(received - slot.sent_ns), 1, 1, 0.0, 0.0);
    if (tracer != nullptr) tracer->record("serve.request", slot.sent_ns, received, id);

    const Req& r = *slot.req;
    const std::string_view payload = line.substr(line.find("\", ") + 3);
    Memo scratch;
    Memo& memo = r.memo >= 0 && static_cast<size_t>(r.memo) < memo_.size()
                     ? memo_[static_cast<size_t>(r.memo)]
                     : scratch;
    if (memo.set) {
      if (payload != memo.payload) {
        ++leg.outcome.wrong;
        leg.problem("answer changed between requests: " + std::string(line.substr(0, 160)));
        return true;
      }
    } else {
      pb::Answer a;
      std::int64_t overhead = 0;
      std::string why = parse_answer(line, a, overhead)
                            ? pb::check_answer(r.offsets, r.cap, a)
                            : "unparsable answer";
      if (!why.empty()) {
        ++leg.outcome.wrong;
        leg.problem("wrong answer (" + why + "): " + std::string(line.substr(0, 160)));
        return true;
      }
      memo = {std::string(payload), static_cast<double>(a.num_banks),
              static_cast<double>(a.delta_ii + 1),
              static_cast<double>(overhead) / r.elements(), true};
    }
    if (plan.sample(slot.k)) {
      pb::Answer a;
      std::int64_t overhead = 0;
      if (parse_answer(line, a, overhead)) sampled.emplace_back(r, std::move(a));
    }
    if (slot.k < plan.quality_end) leg.quality.add(memo.banks, memo.cycles, memo.overhead);
    return true;
  }

  std::array<Slot, kSlots> slots_{};
  std::vector<Memo> memo_;
  std::int64_t next_id_ = 0;
};

// ---------------------------------------------------------------- layers

struct LayerMetric {
  std::string name;
  double value;
  std::string unit;
  std::string base;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return pb::percentile(v, 50);
}

/// The benchmark's copy of the solve-cache key layout (core/partitioner.cpp),
/// so SolveCache::find can be timed on keys of realistic length.
std::vector<std::int64_t> cache_key(const PartitionRequest& r,
                                    const Canonicalizer::View& view) {
  std::vector<std::int64_t> key = {r.max_banks, r.bank_bandwidth,
                                   static_cast<std::int64_t>(r.strategy), 1,
                                   static_cast<std::int64_t>(view.extents.size()),
                                   static_cast<std::int64_t>(view.values.size())};
  key.insert(key.end(), view.extents.begin(), view.extents.end());
  key.insert(key.end(), view.sorted_values.begin(), view.sorted_values.end());
  return key;
}

/// Times each public call of the pattern, core and serve layers once per
/// input, inside a per-request parent span.
void replay_calls(const std::vector<Req>& inputs, Tracer& tracer,
                  std::vector<LayerMetric>& out) {
  std::vector<PartitionRequest> requests;
  for (const Req& r : inputs) requests.push_back(to_partition(r));

  // Untimed preparation: a cache holding every input's key, and a warm
  // partitioner whose private cache holds every input's class.
  const auto n = static_cast<Count>(inputs.size());
  SolveCache resident(std::max<Count>(4096, 2 * n));
  SolveCache warm_cache(std::max<Count>(4096, 2 * n));
  Partitioner warm(&warm_cache);
  Partitioner cold(nullptr);
  Canonicalizer canon;
  std::vector<std::vector<std::int64_t>> keys;
  PartitionSolution solution;
  for (const PartitionRequest& r : requests) {
    keys.push_back(cache_key(r, canon.run(*r.pattern)));
    resident.insert(keys.back(), std::make_shared<CachedSolve>());
    warm.solve_into(r, solution);
  }

  BankSearchScratch scratch;
  double rejected = 0;
  std::int64_t hits = 0;
  size_t rendered = 0;
  Count constrained = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const PartitionRequest& r = requests[i];
    const Scoped request_span(tracer, "bench.replay_request", static_cast<std::int64_t>(i));
    serve::ServeRequest parsed;
    std::string error;
    {
      const std::string line = request_line(static_cast<std::int64_t>(i), inputs[i]);
      const Scoped s(tracer, "serve.parse_request");
      if (!serve::parse_request(line, parsed, &error)) {
        throw std::runtime_error("replay: parse_request rejected a request: " + error);
      }
    }
    Canonicalizer::View view;
    {
      const Scoped s(tracer, "pattern.canonicalize");
      view = canon.run(*r.pattern);
    }
    {
      const Scoped s(tracer, "core.cache_find_hit");
      hits += resident.find(keys[i]) != nullptr;
    }
    {
      const Scoped s(tracer, "core.solve_hit");
      warm.solve_into(r, solution);
    }
    PartitionSolution fresh;
    {
      const Scoped s(tracer, "core.solve_miss");
      cold.solve_into(r, fresh);
    }
    const std::vector<Address> sorted(view.sorted_values.begin(), view.sorted_values.end());
    BankSearchResult search;
    {
      const Scoped s(tracer, "core.bank_search");
      search = minimize_banks(sorted, /*collect_diagnostics=*/false, &scratch);
    }
    rejected += static_cast<double>(search.rejected_candidates);
    if (r.max_banks > 0 && search.num_banks > r.max_banks) {
      const Scoped s(tracer, "core.constrain");
      constrained += (r.strategy == ConstraintStrategy::kFastFold
                          ? constrain_fast(search.num_banks, r.max_banks)
                          : constrain_same_size(sorted, r.max_banks))
                         .num_banks;
    }
    {
      BankMapping::Options options;
      options.num_banks = solution.num_banks();
      options.fold_modulus =
          solution.constraint.fold_factor > 1 ? solution.search.num_banks : 0;
      const Scoped s(tracer, "core.mapping");
      const BankMapping mapping(*r.array_shape, solution.transform, options);
    }
    {
      const Scoped s(tracer, "serve.ok_response");
      rendered += serve::ok_response(parsed, solution).size();
    }
  }
  if (hits != n) throw std::runtime_error("replay: a resident key missed");
  if (rendered == 0 || constrained < 0) throw std::runtime_error("replay: no output");

  // Cache accounting over the same inputs, in calls of kBatchSize through a
  // fresh cache of the global cache's default size.
  SolveCache fresh_cache;
  Partitioner batcher(&fresh_cache);
  double dedup = 0;
  std::int64_t calls = 0;
  for (size_t begin = 0; begin < requests.size(); begin += kBatchSize) {
    const size_t end = std::min(requests.size(), begin + kBatchSize);
    std::unordered_set<std::string> distinct;
    for (size_t i = begin; i < end; ++i) {
      distinct.emplace(reinterpret_cast<const char*>(keys[i].data()),
                       keys[i].size() * sizeof(std::int64_t));
    }
    dedup += static_cast<double>(end - begin) / static_cast<double>(distinct.size());
    ++calls;
    const std::span<const PartitionRequest> chunk(requests.data() + begin, end - begin);
    for (const BatchResult& result : batcher.solve_many_collect(chunk)) {
      if (!result.ok()) throw std::runtime_error("replay: batch error " + result.error);
    }
  }
  const SolveCache::Stats stats = fresh_cache.stats();

  const auto self = tracer.self_ns();
  const auto med = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : median(it->second);
  };
  const std::string base = std::to_string(n) + " requests";
  out.push_back({"serve.parse_ns", med("serve.parse_request"), "ns", base});
  out.push_back({"serve.render_ns", med("serve.ok_response"), "ns", base});
  out.push_back({"pattern.canonicalize_ns", med("pattern.canonicalize"), "ns", base});
  out.push_back({"core.cache_find_hit_ns", med("core.cache_find_hit"), "ns", base});
  out.push_back({"core.cache_misses", static_cast<double>(stats.misses), "count",
                 base + " in " + std::to_string(calls) + " calls"});
  out.push_back({"core.cache_evictions", static_cast<double>(stats.evictions), "count",
                 base + ", capacity " + std::to_string(stats.capacity)});
  out.push_back({"core.solve_hit_ns", med("core.solve_hit"), "ns", base});
  out.push_back({"core.solve_miss_ns", med("core.solve_miss"), "ns", base});
  out.push_back({"core.bank_search_ns", med("core.bank_search"), "ns", base});
  out.push_back({"core.bank_search_rejected", rejected / static_cast<double>(n), "count",
                 "mean over " + base});
  const auto capped = self.find("core.constrain");
  out.push_back({"core.constrain_ns", med("core.constrain"), "ns",
                 std::to_string(capped == self.end() ? 0 : capped->second.size()) +
                     " capped requests over N_f"});
  out.push_back({"core.mapping_ns", med("core.mapping"), "ns", base});
  out.push_back({"core.dedup_factor", dedup / static_cast<double>(calls), "ratio",
                 "mean over " + std::to_string(calls) + " calls"});
}

/// A solved design ready to simulate.
struct Design {
  Req req;
  PartitionSolution solution;
  std::unique_ptr<sim::CoreAddressMap> map;
  std::unique_ptr<loopnest::StencilProgram> program;
};

Design make_design(const Req& r) {
  Design d;
  d.req = r;
  d.solution = Partitioner::solve(to_partition(r));
  d.map = std::make_unique<sim::CoreAddressMap>(*d.solution.mapping);
  d.program = std::make_unique<loopnest::StencilProgram>(NdShape(r.shape), Pattern(r.offsets));
  return d;
}

/// Times the sim layer's public calls on one frame per design.
void replay_sim(const std::vector<Design>& designs, Tracer& tracer,
                std::vector<LayerMetric>& out) {
  Count accesses = 0, conflicts = 0;
  for (size_t i = 0; i < designs.size(); ++i) {
    const Design& d = designs[i];
    const Scoped design_span(tracer, "bench.replay_design", static_cast<std::int64_t>(i));
    std::optional<sim::AccessPlan> plan;
    {
      const Scoped s(tracer, "sim.plan_compile");
      plan.emplace(*d.map, d.program->extract_pattern(),
                   loopnest::plan_domain(d.program->loop_nest()));
    }
    {
      const Scoped s(tracer, "sim.block_gen");
      plan->for_each_row_block_banks([](const NdIndex&, const sim::AccessPlan::RowBlock&) {});
    }
    sim::AccessEngine engine(*d.map);
    {
      const Scoped s(tracer, "sim.issue_walk");
      plan->for_each_row_block_banks(
          [&](const NdIndex&, const sim::AccessPlan::RowBlock& block) {
            const Scoped issue(tracer, "sim.issue_batch_soa");
            engine.issue_batch_soa(block.banks, block.taps, block.groups);
          });
    }
    accesses += engine.stats().accesses;
    conflicts += engine.stats().conflict_cycles;
  }
  const auto total = tracer.total_ns();
  const auto self = tracer.self_ns();
  const auto at = [](const auto& m, const char* k) {
    const auto it = m.find(k);
    return it == m.end() ? decltype(it->second){} : it->second;
  };
  const double per = accesses > 0 ? 1.0 / static_cast<double>(accesses) : 0.0;
  const std::string base = std::to_string(accesses) + " accesses in " +
                           std::to_string(designs.size()) + " designs";
  out.push_back({"sim.plan_compile_us", 1e-3 * median(at(self, "sim.plan_compile")), "us",
                 std::to_string(designs.size()) + " plans"});
  out.push_back({"sim.block_gen_ns_per_access", at(total, "sim.block_gen") * per, "ns", base});
  out.push_back({"sim.issue_ns_per_access", at(total, "sim.issue_batch_soa") * per, "ns", base});
  out.push_back({"sim.conflict_cycles", static_cast<double>(conflicts), "count", base});
}

/// Serve-layer figures of a closed-loop leg: client p99 and what the stage
/// medians leave of the client p50.
void serve_layer(const Leg& leg, const serve::ServeSummary& summary,
                 const std::vector<LayerMetric>& stages, std::vector<LayerMetric>& out) {
  std::vector<double> lat = leg.latency_us;
  std::sort(lat.begin(), lat.end());
  const double p50 = lat.empty() ? 0.0 : pb::percentile(lat, 50);
  const double p99 = lat.empty() ? 0.0 : pb::percentile(lat, 99);
  double stage_sum_us = 0;
  for (const LayerMetric& m : stages) {
    if (m.name == "serve.parse_ns" || m.name == "core.solve_hit_ns" ||
        m.name == "serve.render_ns") {
      stage_sum_us += 1e-3 * m.value;
    }
  }
  const std::string base = std::to_string(lat.size()) + " requests";
  out.push_back({"serve.unattributed_us", p50 - stage_sum_us, "us",
                 "client p50 " + std::to_string(p50) + " us; parse + warm solve + render explain " +
                     std::to_string(p50 > 0 ? 100.0 * stage_sum_us / p50 : 0.0) + "%"});
  out.push_back({"serve.latency_p99_us", p99, "us", base});
  out.push_back({"serve.shed", static_cast<double>(summary.shed), "count",
                 std::to_string(summary.admitted) + " admitted"});
  out.push_back({"serve.failed", static_cast<double>(summary.failed), "count",
                 std::to_string(summary.admitted) + " admitted"});
}

// ---------------------------------------------------------------- workloads

class Workload {
 public:
  virtual ~Workload() = default;
  /// One set-up repetition; the last one leaves the workload ready to time.
  virtual void setup() = 0;
  /// One timed leg of about `seconds`; a `windowed` leg runs on until at
  /// least one window has closed.
  virtual void run(double seconds, bool windowed, Leg& leg, Tracer* tracer) = 0;
  /// Per-layer replays on this workload's inputs (traced run only);
  /// `traced` is the traced leg.
  virtual void layers(const Leg& traced, Tracer& tracer, std::vector<LayerMetric>& out) = 0;
  /// Oracle-confirms the sampled answers into `problems`; returns how many
  /// answers it checked.
  virtual size_t oracle(std::vector<std::string>& problems) = 0;
  virtual std::string record() const = 0;
};

/// serve.* figures from a fixed-length closed loop over `inputs`.
void serve_probe(const std::vector<Req>& inputs, const std::string& socket, Tracer& tracer,
                 const std::vector<LayerMetric>& stages, std::vector<LayerMetric>& out) {
  SolveCache cache;
  ServeHarness harness(socket, &cache);
  Client client(0);
  Leg leg;
  Plan plan;
  plan.max_requests = plan.min_requests = kServeProbeRequests;
  const Scoped s(tracer, "bench.serve_probe");
  client.run(
      harness.fd(),
      [&](std::int64_t k) { return &inputs[static_cast<size_t>(k) % inputs.size()]; }, plan,
      leg, &tracer);
  const serve::ServeSummary summary = harness.stop();
  if (leg.outcome.failed() != 0) {
    throw std::runtime_error("serve probe: " +
                             (leg.problems.empty() ? std::string("failed") : leg.problems[0]));
  }
  serve_layer(leg, summary, stages, out);
}

/// sim.* figures from the first few 2-D inputs no larger than the SD frame.
void sim_probe(const std::vector<Req>& inputs, Tracer& tracer, std::vector<LayerMetric>& out) {
  std::vector<Design> designs;
  for (const Req& r : inputs) {
    if (r.shape.size() == 2 && r.elements() <= 640.0 * 480.0) designs.push_back(make_design(r));
    if (designs.size() == kSimProbeDesigns) break;
  }
  replay_sim(designs, tracer, out);
}

class ServeRepeat final : public Workload {
 public:
  ServeRepeat(std::uint64_t seed, std::string socket)
      : seed_(seed), socket_(std::move(socket)), hot_(hot_variants(seed)),
        client_(hot_.size()) {}

  void setup() override {
    if (harness_) harness_->stop();
    harness_.reset();
    SolveCache::global().clear();
    harness_ = std::make_unique<ServeHarness>(socket_, nullptr);
    Leg warm;
    Plan plan;
    plan.max_requests = plan.min_requests =
        kWarmPasses * static_cast<std::int64_t>(hot_.size());
    client_.run(
        harness_->fd(), [&](std::int64_t k) { return &hot_[static_cast<size_t>(k) % hot_.size()]; },
        plan, warm, nullptr);
    if (warm.outcome.failed() != 0) {
      throw std::runtime_error("serve_repeat warm pass: " +
                               (warm.problems.empty() ? std::string("failed") : warm.problems[0]));
    }
  }

  void run(double seconds, bool windowed, Leg& leg, Tracer* tracer) override {
    const std::int64_t first = next_;
    Plan plan;
    plan.seconds = seconds;
    plan.windowed = windowed;
    if (first == 0) {
      plan.min_requests = plan.quality_end = kServeQualityRequests;
      plan.sample = [&](std::int64_t k) {
        return k < kServeQualityRequests && (static_cast<std::uint64_t>(k) + seed_) % 997 == 0;
      };
    }
    client_.run(
        harness_->fd(), [&](std::int64_t k) { return request(first + k); }, plan, leg, tracer);
    next_ += leg.outcome.attempted;
  }

  void layers(const Leg& traced, Tracer& tracer, std::vector<LayerMetric>& out) override {
    const serve::ServeSummary summary = harness_->stop();
    std::vector<Req> inputs;
    for (std::int64_t k = 0; k < kServeReplayRequests; ++k) inputs.push_back(*request(k));
    replay_calls(inputs, tracer, out);
    serve_layer(traced, summary, out, out);
    sim_probe(inputs, tracer, out);
  }

  size_t oracle(std::vector<std::string>& problems) override {
    for (const auto& [r, a] : client_.sampled) {
      const std::string why = oracle_check(r, a);
      if (!why.empty()) problems.push_back("oracle: " + why);
    }
    return client_.sampled.size();
  }

  std::string record() const override {
    return "hot_variants=" + std::to_string(hot_.size()) +
           " miss_every=" + std::to_string(kMissEvery);
  }

 private:
  const Req* request(std::int64_t k) {
    if (k % kMissEvery == kMissEvery - 1) {
      Req& r = ring_[static_cast<size_t>(k % static_cast<std::int64_t>(ring_.size()))];
      serve_miss(seed_, k, r);
      return &r;
    }
    const std::int64_t hot = (k / kMissEvery) * (kMissEvery - 1) + k % kMissEvery;
    return &hot_[static_cast<size_t>(hot % static_cast<std::int64_t>(hot_.size()))];
  }

  std::uint64_t seed_;
  std::string socket_;
  std::vector<Req> hot_;
  std::array<Req, 64> ring_;
  Client client_;
  std::unique_ptr<ServeHarness> harness_;
  std::int64_t next_ = 0;
};

class BatchDistinct final : public Workload {
 public:
  BatchDistinct(std::uint64_t seed, std::string socket)
      : seed_(seed), socket_(std::move(socket)) {}

  void setup() override {
    SolveCache::global().clear();
    partitioner_ = std::make_unique<Partitioner>();
    Leg warm;
    solve_call(batch_call(seed_, -1), warm, nullptr, -1);
    if (warm.outcome.failed() != 0) {
      throw std::runtime_error("batch_distinct warm call: " + warm.problems.at(0));
    }
  }

  void run(double seconds, bool windowed, Leg& leg, Tracer* tracer) override {
    const std::int64_t start = now_ns();
    const double process0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
    const std::int64_t first = next_;
    leg.begin(start);
    for (;;) {
      const std::int64_t c = next_ - first;
      const std::int64_t now = now_ns();
      leg.tick(now);
      if (now - start >= static_cast<std::int64_t>(seconds * 1e9) &&
          (!windowed || leg.measured()) && (first > 0 || c >= kBatchQualityCalls)) {
        break;
      }
      solve_call(batch_call(seed_, next_), leg, tracer, first == 0 ? c : -1);
      ++next_;
    }
    leg.span_s += 1e-9 * static_cast<double>(now_ns() - start);
    leg.process_cpu_s += cpu_s(CLOCK_PROCESS_CPUTIME_ID) - process0;
  }

  void layers(const Leg&, Tracer& tracer, std::vector<LayerMetric>& out) override {
    std::vector<Req> inputs;
    for (std::int64_t c = 0; c < kBatchReplayCalls; ++c) {
      for (Req& r : batch_call(seed_, c)) inputs.push_back(std::move(r));
    }
    replay_calls(inputs, tracer, out);
    serve_probe(inputs, socket_, tracer, out, out);
    sim_probe(inputs, tracer, out);
  }

  size_t oracle(std::vector<std::string>& problems) override {
    for (const auto& [r, a] : sampled_) {
      const std::string why = oracle_check(r, a);
      if (!why.empty()) problems.push_back("oracle: " + why);
    }
    return sampled_.size();
  }

  std::string record() const override {
    return "batch_size=" + std::to_string(kBatchSize) + " cache_capacity=" +
           std::to_string(SolveCache::global().capacity());
  }

 private:
  /// One timed solve_many_collect call; `quality_call` >= 0 feeds the
  /// quality means and the oracle sample.
  void solve_call(const std::vector<Req>& batch, Leg& leg, Tracer* tracer,
                  std::int64_t quality_call) {
    std::vector<PartitionRequest> requests;
    requests.reserve(batch.size());
    for (const Req& r : batch) requests.push_back(to_partition(r));
    const std::int32_t span =
        tracer != nullptr ? tracer->open("core.solve_many_collect", next_) : -1;
    const double cpu0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
    const std::int64_t t0 = now_ns();
    BatchOptions options;
    options.threads = kBatchThreads;
    const std::vector<BatchResult> results = partitioner_->solve_many_collect(requests, options);
    const std::int64_t t1 = now_ns();
    const double cpu1 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
    if (tracer != nullptr) tracer->close(span);
    const auto ok = static_cast<std::int64_t>(
        std::count_if(results.begin(), results.end(), [](const BatchResult& b) { return b.ok(); }));
    leg.op(1e-3 * static_cast<double>(t1 - t0), ok, ok, 1e-9 * static_cast<double>(t1 - t0),
           cpu1 - cpu0);
    leg.outcome.attempted += static_cast<std::int64_t>(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const BatchResult& result = results[i];
      if (!result.ok()) {
        ++leg.outcome.errors;
        leg.problem("error: " + result.error);
        continue;
      }
      ++leg.outcome.ok;
      const pb::Answer a = answer_of(*result.solution);
      const std::string why = pb::check_answer(batch[i].offsets, batch[i].cap, a);
      if (!why.empty()) {
        ++leg.outcome.wrong;
        leg.problem("wrong answer: " + why + " for " + batch[i].body.substr(0, 120));
        continue;
      }
      if (quality_call >= 0 && quality_call < kBatchQualityCalls) {
        leg.quality.add(static_cast<double>(a.num_banks), static_cast<double>(a.delta_ii + 1),
                        static_cast<double>(result.solution->storage_overhead_elements()) /
                            batch[i].elements());
        if (static_cast<std::int64_t>(i) == (quality_call * 37 + 5) % kBatchSize) {
          sampled_.emplace_back(batch[i], a);
        }
      }
    }
  }

  std::uint64_t seed_;
  std::string socket_;
  std::unique_ptr<Partitioner> partitioner_;
  std::vector<std::pair<Req, pb::Answer>> sampled_;
  std::int64_t next_ = 0;
};

class SimReplay final : public Workload {
 public:
  SimReplay(std::uint64_t seed, std::string socket)
      : inputs_(sim_requests(seed)), socket_(std::move(socket)) {}

  void setup() override {
    designs_.clear();
    for (const Req& r : inputs_) designs_.push_back(make_design(r));
    Leg warm;
    frame(warm, nullptr);
    if (warm.outcome.failed() != 0) {
      throw std::runtime_error("sim_replay warm frame: " + warm.problems.at(0));
    }
  }

  void run(double seconds, bool windowed, Leg& leg, Tracer* tracer) override {
    const std::int64_t start = now_ns();
    const double process0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
    leg.begin(start);
    for (;;) {
      const std::int64_t now = now_ns();
      leg.tick(now);
      if (now - start >= static_cast<std::int64_t>(seconds * 1e9) &&
          (!windowed || leg.measured())) {
        break;
      }
      frame(leg, tracer);
    }
    leg.span_s += 1e-9 * static_cast<double>(now_ns() - start);
    leg.process_cpu_s += cpu_s(CLOCK_PROCESS_CPUTIME_ID) - process0;
    for (size_t i = 0; i < designs_.size(); ++i) {
      const Design& d = designs_[i];
      leg.quality.add(static_cast<double>(d.solution.num_banks()), cycles_[i],
                      static_cast<double>(d.solution.storage_overhead_elements()) /
                          d.req.elements());
    }
  }

  void layers(const Leg&, Tracer& tracer, std::vector<LayerMetric>& out) override {
    replay_calls(inputs_, tracer, out);
    serve_probe(inputs_, socket_, tracer, out, out);
    replay_sim(designs_, tracer, out);
  }

  size_t oracle(std::vector<std::string>& problems) override {
    for (const Design& d : designs_) {
      const std::string why = oracle_check(d.req, answer_of(d.solution));
      if (!why.empty()) problems.push_back("oracle: " + why);
    }
    return designs_.size();
  }

  std::string record() const override {
    return "designs=" + std::to_string(inputs_.size()) + " frame=640x480";
  }

 private:
  /// One op: the frame under every design, each checked against the
  /// solver's access_cycles().
  void frame(Leg& leg, Tracer* tracer) {
    const std::int32_t span = tracer != nullptr ? tracer->open("bench.frame", frames_) : -1;
    const double cpu0 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
    const std::int64_t t0 = now_ns();
    std::vector<sim::AccessStats> stats;
    stats.reserve(designs_.size());
    for (const Design& d : designs_) {
      const Scoped s(tracer != nullptr ? *tracer : untraced_, "loopnest.simulate_fast");
      stats.push_back(loopnest::simulate_fast(*d.program, *d.map));
    }
    const std::int64_t t1 = now_ns();
    const double cpu1 = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
    if (tracer != nullptr) tracer->close(span);
    ++frames_;
    Count accesses = 0;
    for (const sim::AccessStats& s : stats) accesses += s.accesses;
    leg.op(1e-3 * static_cast<double>(t1 - t0), accesses, 1, 1e-9 * static_cast<double>(t1 - t0),
           cpu1 - cpu0);
    ++leg.outcome.attempted;
    cycles_.assign(designs_.size(), 0.0);
    bool right = true;
    for (size_t i = 0; i < designs_.size(); ++i) {
      const sim::AccessStats& s = stats[i];
      cycles_[i] = static_cast<double>(s.cycles) / static_cast<double>(s.iterations);
      if (s.iterations == 0 ||
          s.cycles != s.iterations * designs_[i].solution.access_cycles()) {
        right = false;
        leg.problem("design " + std::to_string(i) + ": " + std::to_string(s.cycles) +
                    " cycles over " + std::to_string(s.iterations) +
                    " iterations, solver says " +
                    std::to_string(designs_[i].solution.access_cycles()) + " per iteration");
      }
    }
    ++leg.outcome.ok;
    if (!right) ++leg.outcome.wrong;
  }

  std::vector<Req> inputs_;
  std::string socket_;
  std::vector<Design> designs_;
  std::vector<double> cycles_;
  std::int64_t frames_ = 0;
  Tracer untraced_;
};

// ---------------------------------------------------------------- output

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) return line.substr(line.find(':') + 2);
  }
  return "unknown";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--out-dir") a.out_dir = value;
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (a.seconds <= 0) throw std::runtime_error("--seconds must be positive");
  return a;
}

int run(const Args& args) {
  const std::string socket = args.out_dir + "/perfbench-" + std::to_string(::getpid()) + ".sock";
  std::unique_ptr<Workload> w;
  if (args.workload == "serve_repeat") w = std::make_unique<ServeRepeat>(args.seed, socket);
  else if (args.workload == "batch_distinct") w = std::make_unique<BatchDistinct>(args.seed, socket);
  else if (args.workload == "sim_replay") w = std::make_unique<SimReplay>(args.seed, socket);
  else throw std::runtime_error("unknown workload '" + args.workload + "'");

  std::cout << "run: workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0) << '\n'
            << "run: nproc=" << std::thread::hardware_concurrency() << " cpu=\""
            << cpu_model() << "\" simd=" << simd::tier_name(simd::active_tier())
            << " build=" << PERFBENCH_BUILD_TYPE << '\n'
            << "run: in_flight=" << kInFlight << " serve_workers=" << kServeWorkers
            << " batch_threads=" << kBatchThreads
            << " default_pool_threads=" << default_thread_count() << '\n';

  // Reserve the benchmark's own sample buffers before the RSS baseline, so
  // rss_mb measures the program's growth, not the benchmark's.
  Leg leg;
  leg.latency_us.resize(static_cast<size_t>(args.seconds * 200'000) + 1024);
  leg.latency_us.clear();
  const double rss0 = status_mb("VmRSS");

  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    w->setup();
    setups.push_back(1e-9 * static_cast<double>(now_ns() - t0));
  }
  std::cout << "run: " << w->record() << '\n';

  std::vector<LayerMetric> metrics;
  Tracer tracer;
  Leg traced;
  if (!args.trace) {
    w->run(args.seconds, /*windowed=*/true, leg, nullptr);
  } else {
    w->run(args.seconds / 2, /*windowed=*/false, leg, nullptr);
    tracer.on = true;
    w->run(args.seconds / 2, /*windowed=*/false, traced, &tracer);
  }
  std::vector<std::string> problems = leg.problems;
  problems.insert(problems.end(), traced.problems.begin(), traced.problems.end());
  const size_t oracle_checked = w->oracle(problems);

  const auto n = static_cast<std::int64_t>(leg.latency_us.size());
  if (!args.trace && !leg.measured()) problems.push_back("no window closed");
  const double throughput = pb::throughput(leg.completed, leg.wall_s);

  std::cout << "report: setup_ms=";
  for (const double t : setups) std::cout << number(1e3 * t) << ' ';
  std::cout << "\nreport: ops=" << n << " rate_windows=" << leg.rate_throughput.size()
            << " tail_windows=" << leg.tail_p50_us.size()
            << " completed=" << leg.completed
            << " attempted=" << leg.outcome.attempted << " ok=" << leg.outcome.ok
            << " errors=" << leg.outcome.errors << " shed=" << leg.outcome.shed
            << " unanswered=" << leg.outcome.unanswered() << " wrong=" << leg.outcome.wrong
            << " failed_pct=" << number(leg.outcome.failed_pct())
            << " quality_answers=" << leg.quality.n << " oracle_checked=" << oracle_checked
            << '\n';

  if (!args.trace) {
    const std::string rate = "median of " + std::to_string(leg.rate_throughput.size()) +
                             " windows, " + std::to_string(n) + " ops";
    const std::string tail = "median of " + std::to_string(leg.tail_p50_us.size()) +
                             " windows, " + std::to_string(n) + " ops";
    metrics = {
        {"setup_s", median(setups), "s", "median of " + std::to_string(kSetupReps) + " set-ups"},
        {"throughput_per_s", median(leg.rate_throughput), "1/s", rate},
        {"latency_p50_us", median(leg.tail_p50_us), "us", tail},
        {"latency_p90_us", median(leg.tail_p90_us), "us", tail},
        {"cpu_per_op_us", median(leg.rate_cpu_us), "us", rate},
        {"rss_mb", status_mb("VmHWM") - rss0, "MB", "peak minus set-up start"},
        {"banks_mean", leg.quality.mean(leg.quality.banks), "banks",
         std::to_string(leg.quality.n) + " answers"},
        {"access_cycles_mean", leg.quality.mean(leg.quality.cycles), "cycles",
         std::to_string(leg.quality.n) + " answers"},
        {"overhead_pct", 100.0 * leg.quality.mean(leg.quality.overhead), "%",
         std::to_string(leg.quality.n) + " answers"},
    };
  } else {
    const double untraced = throughput;
    const double traced_throughput = pb::throughput(traced.completed, traced.wall_s);
    std::cout << "report: untraced_throughput=" << number(untraced)
              << " traced_throughput=" << number(traced_throughput) << '\n';
    w->layers(traced, tracer, metrics);
    metrics.push_back({"common.cores_busy",
                       leg.span_s > 0 ? leg.process_cpu_s / leg.span_s : 0.0, "cores",
                       "process CPU / wall over the untraced leg"});
    metrics.push_back({"bench.trace_overhead_pct",
                       untraced > 0 ? 100.0 * (untraced - traced_throughput) / untraced : 0.0,
                       "%", "traced vs untraced throughput_per_s"});
    tracer.write(args.out_dir + "/trace-" + args.workload + "-" + std::to_string(args.seed) +
                 ".tsv");
  }

  for (const LayerMetric& m : metrics) {
    std::cout << "metric " << m.name << " = " << number(m.value) << ' ' << m.unit << "  ("
              << m.base << ")\n";
  }
  for (const std::string& p : problems) std::cout << "problem: " << p << '\n';

  const bool correct = problems.empty();
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << leg.outcome.attempted + traced.outcome.attempted
       << ", \"failed\": " << leg.outcome.failed() + traced.outcome.failed()
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
         << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << '\n';
    return 2;
  }
}

#include "check/config.h"

#include <sstream>
#include <utility>

#include "common/errors.h"

namespace mempart::check {
namespace {

const char* strategy_name(ConstraintStrategy s) {
  return s == ConstraintStrategy::kFastFold ? "fast_fold" : "same_size";
}

const char* tail_name(TailPolicy t) {
  return t == TailPolicy::kPadded ? "padded" : "compact";
}

/// Replaces `out` with the array of integers `in` is at.
void read_ints(json::Reader& in, std::vector<std::int64_t>& out) {
  out.clear();
  in.begin_array();
  while (in.next_item()) out.push_back(in.read_int());
}

}  // namespace

std::string CheckConfig::to_json() const {
  std::ostringstream os;
  os << "{\n  \"offsets\": [";
  for (size_t i = 0; i < offsets.size(); ++i) {
    if (i > 0) os << ", ";
    os << '[';
    for (size_t d = 0; d < offsets[i].size(); ++d) {
      if (d > 0) os << ", ";
      os << offsets[i][d];
    }
    os << ']';
  }
  os << "],\n  \"shape\": [";
  for (size_t d = 0; d < shape.size(); ++d) {
    if (d > 0) os << ", ";
    os << shape[d];
  }
  os << "],\n  \"max_banks\": " << max_banks
     << ",\n  \"bank_bandwidth\": " << bank_bandwidth << ",\n  \"strategy\": \""
     << strategy_name(strategy) << "\",\n  \"tail\": \"" << tail_name(tail)
     << "\",\n  \"seed\": " << seed << ",\n  \"note\": \""
     << json_escape(note) << "\"\n}\n";
  return os.str();
}

bool CheckConfig::read_field(json::Reader& in, std::string_view key) {
  if (key == "offsets") {
    offsets.clear();
    in.begin_array();
    while (in.next_item()) {
      NdIndex& coords = offsets.emplace_back();
      coords.reserve(offsets.front().size());  // offsets share one rank
      read_ints(in, coords);
    }
  } else if (key == "shape") {
    read_ints(in, shape);
  } else if (key == "max_banks") {
    max_banks = in.read_int();
  } else if (key == "bank_bandwidth") {
    bank_bandwidth = in.read_int();
  } else if (key == "strategy") {
    const std::string_view v = in.read_string();
    if (v == "fast_fold") {
      strategy = ConstraintStrategy::kFastFold;
    } else if (v == "same_size") {
      strategy = ConstraintStrategy::kSameSize;
    } else {
      in.fail("unknown strategy '" + std::string(v) + "'");
    }
  } else if (key == "tail") {
    const std::string_view v = in.read_string();
    if (v == "padded") {
      tail = TailPolicy::kPadded;
    } else if (v == "compact") {
      tail = TailPolicy::kCompact;
    } else {
      in.fail("unknown tail policy '" + std::string(v) + "'");
    }
  } else if (key == "seed") {
    seed = in.read_uint();
  } else if (key == "note") {
    note = in.read_string();
  } else {
    return false;
  }
  return true;
}

CheckConfig CheckConfig::read(json::Reader& in) {
  CheckConfig config;
  in.begin_object();
  for (std::string_view key; in.next_key(key);) {
    if (!config.read_field(in, key)) {
      in.fail("unknown key '" + std::string(key) + "'");
    }
  }
  return config;
}

CheckConfig CheckConfig::from_json(std::string_view text) {
  json::Reader in(text, "CheckConfig::from_json");
  CheckConfig config = read(in);
  // Trailing garbage in a repro file is more likely truncation or a bad
  // merge than intent.
  in.expect_end();
  return config;
}

PartitionRequest to_request(CheckConfig config) {
  PartitionRequest request;
  request.pattern = Pattern(std::move(config.offsets));
  if (!config.shape.empty()) {
    request.array_shape = NdShape(std::move(config.shape));
  }
  request.max_banks = config.max_banks;
  request.bank_bandwidth = config.bank_bandwidth;
  request.strategy = config.strategy;
  request.tail = config.tail;
  return request;
}

}  // namespace mempart::check

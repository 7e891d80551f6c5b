// Shared helpers for the figure/table bench binaries.
//
// Every binary prints the series of one figure or table from the paper's
// evaluation (docs/BENCHMARKS.md maps ids to binaries). Run counts are
// modest by default so `for b in build/bench/*; do $b; done` finishes in
// minutes; export PMCAST_RUNS to tighten the confidence intervals.
//
// Machine-readable results: every table_* binary (and micro_benchmarks)
// accepts `--json <file>` and writes the pmcast-bench-v1 schema —
//
//   {
//     "schema": "pmcast-bench-v1",
//     "binary": "<bench id>",
//     "tables": [
//       { "title": "<section>", "headers": ["col", ...],
//         "rows": [[cell, ...], ...] }
//     ]
//   }
//
// Cells are JSON numbers when the printed cell parses as one, else JSON
// strings, so the JSON mirrors the human tables exactly.
// tools/check_bench_json.py validates the schema and gates the perf-smoke
// CI job on it; committed BENCH_*.json snapshots record the perf
// trajectory PR over PR.
#pragma once

#ifndef _WIN32
#include <sys/resource.h>
#endif

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/table.hpp"

namespace pmc::bench {

/// env_size_t for a bench's size knob: a malformed value is reported and
/// the bench exits 2 before printing anything.
inline std::size_t env_size(const char* name, std::size_t fallback) {
  try {
    return env_size_t(name, fallback);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
  }
}

inline std::size_t runs_per_point(std::size_t fallback) {
  return env_size("PMCAST_RUNS", fallback);
}

/// Peak RSS of this process in bytes — the getrusage ru_maxrss high-water
/// mark, which only ever grows. ru_maxrss is reported in KILOBYTES on
/// Linux but in BYTES on macOS (a classic silent 1024x unit bug when the
/// caller divides unconditionally), so the platform branch lives here,
/// once, for every bench binary. Returns 0 on Windows (no getrusage).
inline std::uint64_t peak_rss_bytes() {
#ifdef _WIN32
  return 0;
#else
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
#ifdef __APPLE__
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#endif
#endif
}

inline double peak_rss_mb() {
  return static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
}

inline void print_header(const std::string& id, const std::string& title,
                         const std::string& params) {
  std::cout << "=====================================================\n"
            << id << " — " << title << "\n"
            << params << "\n"
            << "=====================================================\n";
}

inline std::string pm(const Accumulator& s, int precision = 4) {
  return Table::num(s.mean(), precision) + " ±" +
         Table::num(s.ci95_halfwidth(), precision);
}

/// True when `cell` prints as a JSON-compatible number ("12", "-3.5",
/// "0.25"; not "1e3x" or "±0.1").
inline bool cell_is_number(const std::string& cell) {
  if (cell.empty()) return false;
  std::size_t i = cell[0] == '-' ? 1 : 0;
  if (i == cell.size()) return false;
  bool digit = false, dot = false;
  for (; i < cell.size(); ++i) {
    const char c = cell[i];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      digit = true;
    } else if (c == '.' && !dot) {
      dot = true;
    } else {
      return false;
    }
  }
  return digit;
}

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Collects the tables a bench binary prints and mirrors them to a
/// pmcast-bench-v1 JSON file when the binary was invoked with
/// `--json <file>`. Without the flag every call is a no-op, so binaries
/// wire it up unconditionally.
class JsonWriter {
 public:
  /// Parses `--json <file>` out of the command line (the flag may appear
  /// anywhere; other arguments are left for the binary to interpret).
  JsonWriter(int argc, char** argv, std::string binary_id)
      : binary_(std::move(binary_id)) {
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--json") {
        if (i + 1 >= argc)
          throw std::invalid_argument("--json requires a file path");
        path_ = argv[i + 1];
        ++i;
      }
    }
  }

  bool enabled() const noexcept { return !path_.empty(); }

  /// Records one printed table (same headers and stringified cells).
  void add_table(const std::string& title,
                 const std::vector<std::string>& headers,
                 const std::vector<std::vector<std::string>>& rows) {
    if (!enabled()) return;
    tables_.push_back(TableDump{title, headers, rows});
  }

  /// Writes the file (call once, after the last add_table). Throws on I/O
  /// failure so a broken --json path fails the bench run loudly.
  void write() const {
    if (!enabled()) return;
    std::ofstream out(path_);
    if (!out) throw std::runtime_error("cannot open " + path_);
    out << "{\n  \"schema\": \"pmcast-bench-v1\",\n  \"binary\": \""
        << json_escape(binary_) << "\",\n  \"tables\": [";
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      const auto& table = tables_[t];
      out << (t == 0 ? "" : ",") << "\n    { \"title\": \""
          << json_escape(table.title) << "\",\n      \"headers\": [";
      for (std::size_t h = 0; h < table.headers.size(); ++h)
        out << (h == 0 ? "" : ", ") << '"' << json_escape(table.headers[h])
            << '"';
      out << "],\n      \"rows\": [";
      for (std::size_t r = 0; r < table.rows.size(); ++r) {
        out << (r == 0 ? "" : ",") << "\n        [";
        for (std::size_t c = 0; c < table.rows[r].size(); ++c) {
          const auto& cell = table.rows[r][c];
          out << (c == 0 ? "" : ", ");
          if (cell_is_number(cell))
            out << cell;
          else
            out << '"' << json_escape(cell) << '"';
        }
        out << "]";
      }
      out << "\n      ] }";
    }
    out << "\n  ]\n}\n";
    if (!out.good()) throw std::runtime_error("write failed: " + path_);
    std::cout << "\nwrote " << path_ << "\n";
  }

 private:
  struct TableDump {
    std::string title;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };

  std::string binary_;
  std::string path_;
  std::vector<TableDump> tables_;
};

}  // namespace pmc::bench

// Helpers shared by the workloads: result digests, the serial-reference
// verification of bi_warm and scan_cold, deck order and set-up checks.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "harness.h"
#include "trace.h"

namespace hivebench {

int64_t Delta(const MetricDelta& delta, const char* name) {
  auto it = delta.find(name);
  return it == delta.end() ? 0 : it->second;
}

void Must(const hive::Status& status, const std::string& what) {
  if (!status.ok()) {
    std::fprintf(stderr, "hivebench: %s failed: %s\n", what.c_str(),
                 status.ToString().c_str());
    std::exit(2);
  }
}

std::vector<int> Workload::DeckOrder(const std::vector<int>& copies, size_t n,
                                     hive::Rng& rng) {
  std::vector<int> deck;
  for (size_t t = 0; t < copies.size(); ++t) deck.insert(deck.end(), copies[t], static_cast<int>(t));
  deck_size_ = std::max<size_t>(1, deck.size());
  std::vector<int> out;
  out.reserve(n + deck.size());
  while (out.size() < n && !deck.empty()) {
    for (size_t i = deck.size() - 1; i > 0; --i) std::swap(deck[i], deck[rng.Uniform(i + 1)]);
    out.insert(out.end(), deck.begin(), deck.end());
  }
  out.resize(std::min(out.size(), n));
  return out;
}

uint64_t DigestRows(const std::vector<std::vector<hive::Value>>& rows) {
  // FNV-1a over each value's SQL rendering, with separators so that row
  // and column boundaries are part of the digest.
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& row : rows) {
    for (const hive::Value& v : row) {
      mix(v.ToString());
      mix("\x1f");
    }
    mix("\x1e");
  }
  return h;
}

int64_t VerifyAgainstReference(Env& env, const std::vector<Stmt>& stream,
                               const std::vector<StmtRecord>& records) {
  hive::Connection ref = env.server->Connect("reference");
  ref.config().num_executors = 1;
  ref.config().llap_enabled = false;
  ref.config().result_cache_enabled = false;
  // Every execution of one text must agree with the others and with the
  // serial reference; each distinct text is re-run once.
  std::map<std::string, uint64_t> reference;
  int64_t mismatches = 0;
  for (const StmtRecord& rec : records) {
    if (!rec.ok) continue;  // already counted as failed
    const std::string& sql = stream[rec.index].sql;
    auto it = reference.find(sql);
    if (it == reference.end()) {
      auto result = ref.Execute(sql);
      uint64_t digest = result.ok() ? DigestRows(result->rows) : 0;
      if (!result.ok())
        std::fprintf(stderr, "reference run failed: %s\n  %s\n",
                     result.status().ToString().c_str(), sql.substr(0, 160).c_str());
      it = reference.emplace(sql, digest).first;
    }
    if (it->second != rec.digest) {
      ++mismatches;
      std::fprintf(stderr, "result mismatch at statement %zu: %s\n", rec.index,
                   sql.substr(0, 160).c_str());
    }
  }
  hive::Status closed = ref.Close();
  Must(closed, "closing the reference connection");
  return mismatches;
}

}  // namespace hivebench

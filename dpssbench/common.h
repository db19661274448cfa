// Shared pieces of the dpss benchmark: clock, input generator, percentile
// summaries, the benchmark's own model of the item set with the
// correctness gates computed from it, and the span tracer of the traced run.
//
// Everything here is the benchmark's own code. The program under test is
// reached only through the calls the workloads make; every expectation the
// gates compare against is computed from the model, never read back from
// the program.

#ifndef DPSSBENCH_COMMON_H_
#define DPSSBENCH_COMMON_H_

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "bigint/rational.h"

namespace dpssbench {

using u128 = unsigned __int128;

inline uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// xoshiro256** seeded through splitmix64: the benchmark's input generator,
// independent of the program's RandomEngine.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    for (uint64_t& w : s_) {
      seed += 0x9e3779b97f4a7c15ull;
      uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      w = z ^ (z >> 31);
    }
  }
  uint64_t Next() {
    const uint64_t r = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return r;
  }
  // Uniform in [0, n), n > 0 (multiply-shift; the bias is below 2^-40 for
  // every n used here).
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>((static_cast<u128>(Next()) * n) >> 64);
  }
  double Uniform01() { return (Next() >> 11) * 0x1.0p-53; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

// Percentiles over raw per-operation timings (nearest rank). A p99 is
// reported only when at least ten samples lie beyond it.
struct Summary {
  size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  bool has_p99 = false;
  double mean = 0;
};

inline Summary Summarize(std::vector<uint64_t> v) {
  Summary s;
  s.count = v.size();
  if (v.empty()) return s;
  auto rank = [&](double q) {
    size_t r = static_cast<size_t>(std::ceil(q * v.size()));
    r = r == 0 ? 0 : r - 1;
    std::nth_element(v.begin(), v.begin() + r, v.end());
    return std::make_pair(static_cast<double>(v[r]), r);
  };
  s.p50 = rank(0.50).first;
  auto [p99, r99] = rank(0.99);
  if (v.size() - 1 - r99 >= 10) {
    s.p99 = p99;
    s.has_p99 = true;
  }
  double total = 0;
  for (uint64_t x : v) total += static_cast<double>(x);
  s.mean = total / v.size();
  return s;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// One metric line of the result object.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Query parameters for a target expected size mu_target. Every workload
// keeps each item's probability below 1 (checked per query), so the exact
// expected size is sum_w / W with W = alpha*sum_w + beta, and the variance
// of the output size is mu - sum_w2 / W^2.
//   beta = 0:  alpha = A / 2^20, A = round(2^20 / mu_target).
//   beta > 0:  alpha = A / 2^21 and beta = C with C = round(sum_w / (2 mu)),
//              so alpha*sum_w and beta each carry half of W.
// W is held exactly as wnum / wden.
struct QueryParams {
  dpss::Rational64 alpha;
  dpss::Rational64 beta;
  u128 wnum = 0;
  u128 wden = 1;
};

inline QueryParams MakeQuery(double mu_target, bool with_beta, u128 sum_w) {
  QueryParams q;
  const double a = std::max(1.0, std::round(1048576.0 / mu_target));
  const uint64_t A = static_cast<uint64_t>(a);
  if (!with_beta) {
    q.alpha = {A, uint64_t{1} << 20};
    q.beta = {0, 1};
    q.wnum = static_cast<u128>(A) * sum_w;
    q.wden = u128{1} << 20;
  } else {
    const double c = std::max(
        1.0, std::round(static_cast<double>(sum_w) / (2.0 * mu_target)));
    const uint64_t C = static_cast<uint64_t>(c);
    q.alpha = {A, uint64_t{1} << 21};
    q.beta = {C, 1};
    q.wnum = static_cast<u128>(A) * sum_w + (static_cast<u128>(C) << 21);
    q.wden = u128{1} << 21;
  }
  return q;
}

// Stratified log-uniform targets over [2^lo, 2^hi]: one draw per stratum,
// shuffled, so every round covers the range evenly whatever the seed.
inline std::vector<double> StratifiedMus(Rng& rng, int count, double lo,
                                         double hi) {
  std::vector<double> mus(count);
  for (int i = 0; i < count; ++i) {
    const double u = (i + rng.Uniform01()) / count;
    mus[i] = std::exp2(lo + (hi - lo) * u);
  }
  for (int i = count - 1; i > 0; --i) {
    std::swap(mus[i], mus[rng.Below(i + 1)]);
  }
  return mus;
}

// The benchmark's own record of the live item set: ids as the program
// returned them, weights as the benchmark set them, and the exact sums the
// expected output sizes are computed from. Ids are opaque keys here: the
// model assumes nothing about how the program encodes them.
class Model {
 public:
  struct Item {
    uint64_t id = 0;
    uint64_t w = 0;
    bool tracked = false;
    uint32_t pos = 0;   // index in movable() for untracked items
    uint64_t seen = 0;  // last query stamp (distinctness check)
    uint64_t hits = 0;  // inclusion count (tracked items)
  };

  void Reserve(size_t n) { index_.reserve(n); items_.reserve(n); }

  // Returns false if the id is already live.
  bool Add(uint64_t id, uint64_t w, bool tracked) {
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<uint32_t>(items_.size());
      items_.emplace_back();
    }
    if (!index_.emplace(id, slot).second) {
      free_.push_back(slot);
      return false;
    }
    Item& it = items_[slot];
    it = Item{};
    it.id = id;
    it.w = w;
    it.tracked = tracked;
    if (tracked) {
      tracked_.push_back(slot);
    } else {
      it.pos = static_cast<uint32_t>(movable_.size());
      movable_.push_back(id);
    }
    sum_w_ += w;
    sum_w2_ += static_cast<u128>(w) * w;
    return true;
  }

  Item* Find(uint64_t id) {
    auto it = index_.find(id);
    return it == index_.end() ? nullptr : &items_[it->second];
  }

  // Removes a live untracked item.
  void Remove(uint64_t id) {
    auto found = index_.find(id);
    Item& it = items_[found->second];
    sum_w_ -= it.w;
    sum_w2_ -= static_cast<u128>(it.w) * it.w;
    const uint64_t last = movable_.back();
    movable_[it.pos] = last;
    Find(last)->pos = it.pos;
    movable_.pop_back();
    free_.push_back(found->second);
    index_.erase(found);
  }

  void Set(uint64_t id, uint64_t w) {
    Item* it = Find(id);
    sum_w_ -= it->w;
    sum_w2_ -= static_cast<u128>(it->w) * it->w;
    it->w = w;
    sum_w_ += w;
    sum_w2_ += static_cast<u128>(w) * w;
  }

  uint64_t RandomMovable(Rng& rng) const {
    return movable_[rng.Below(movable_.size())];
  }

  u128 sum_w() const { return sum_w_; }
  u128 sum_w2() const { return sum_w2_; }
  uint64_t live() const { return index_.size(); }
  const std::vector<uint64_t>& movable() const { return movable_; }
  const std::vector<uint32_t>& tracked_slots() const { return tracked_; }
  const Item& at_slot(uint32_t s) const { return items_[s]; }
  template <typename Fn>
  void ForEachLive(Fn&& fn) const {
    for (const auto& [id, slot] : index_) fn(items_[slot]);
  }

 private:
  std::unordered_map<uint64_t, uint32_t> index_;
  std::vector<Item> items_;
  std::vector<uint32_t> free_;
  std::vector<uint64_t> movable_;
  std::vector<uint32_t> tracked_;
  u128 sum_w_ = 0;
  u128 sum_w2_ = 0;
};

// Pooled statistical gates over all queries of a run. Per query the caller
// reports W and the returned ids; the expectations come from the model.
class Gates {
 public:
  static constexpr double kSigmas = 4.5;
  static constexpr double kMinItemExpectation = 20;

  // Accounts one query answered from `model` at parameterized total
  // W = q.wnum / q.wden. `max_weight` bounds every weight in the model;
  // a W below it would cap a probability at 1 and is a workload error.
  void BeginQuery(const QueryParams& q, const Model& model,
                  uint64_t max_weight) {
    ++queries_;
    if (static_cast<u128>(max_weight) * q.wden > q.wnum) ++capped_;
    const double W = static_cast<double>(q.wnum) / static_cast<double>(q.wden);
    const double sw = static_cast<double>(model.sum_w());
    const double sw2 = static_cast<double>(model.sum_w2());
    const double mu = sw / W;
    mu_sum_ += mu;
    var_sum_ += mu - sw2 / (W * W);
    inv_w_ += 1.0 / W;
    inv_w2_ += 1.0 / (W * W);
  }

  // Checks one returned id against the model: live, not returned twice in
  // this query, and counted if tracked. Single-threaded callers only.
  void CountId(Model& model, uint64_t id) {
    Model::Item* it = model.Find(id);
    if (it == nullptr) {
      ++returned_;
      ++not_live_;
      return;
    }
    if (it->seen == queries_) {
      ++duplicates_;
      return;
    }
    it->seen = queries_;
    Returned(it);
  }
  // Building blocks for callers that judge liveness and distinctness
  // themselves (the server workload, whose mutations are in flight).
  void Returned(Model::Item* it) {
    ++returned_;
    if (it->tracked) ++it->hits;
  }
  void ReturnedUnmodelled() { ++returned_; }
  void NotLive() { ++not_live_; }
  void Duplicate() { ++duplicates_; }

  // Evaluates every gate; prints the failing ones to stderr with `label`
  // and returns their names (empty when all pass).
  std::vector<std::string> Check(Model& model, const char* label) const {
    std::vector<std::string> failed;
    auto fail = [&](const char* what, double got, double want, double tol) {
      std::fprintf(stderr, "%s: gate %s failed: got %.6g, want %.6g +- %.6g\n",
                   label, what, got, want, tol);
      failed.push_back(what);
    };
    if (not_live_ != 0) fail("ids_live", not_live_, 0, 0);
    if (duplicates_ != 0) fail("ids_distinct", duplicates_, 0, 0);
    if (capped_ != 0) fail("uncapped_queries", capped_, 0, 0);
    if (queries_ == 0) fail("queries", 0, 1, 0);
    const double tol = kSigmas * std::sqrt(var_sum_);
    if (std::fabs(returned_ - mu_sum_) > tol) {
      fail("pooled_output_size", returned_, mu_sum_, tol);
    }
    // Each tracked item alone, once its expected count is large enough for
    // a 4.5 sigma normal gate, and all of them pooled (a skew shared by a
    // class of items shows in the sum long before it shows per item).
    double hits = 0, e_sum = 0, v_sum = 0;
    bool item_failed = false;
    for (uint32_t k : model.tracked_slots()) {
      const Model::Item& it = model.at_slot(k);
      const double w = static_cast<double>(it.w);
      const double e = w * inv_w_;
      const double v = w * inv_w_ - w * w * inv_w2_;
      hits += it.hits;
      e_sum += e;
      v_sum += v;
      if (!item_failed && e >= kMinItemExpectation &&
          std::fabs(it.hits - e) > kSigmas * std::sqrt(v)) {
        fail("tracked_inclusion", it.hits, e, kSigmas * std::sqrt(v));
        item_failed = true;
      }
    }
    if (std::fabs(hits - e_sum) > kSigmas * std::sqrt(v_sum)) {
      fail("tracked_inclusion_pooled", hits, e_sum, kSigmas * std::sqrt(v_sum));
    }
    return failed;
  }

  double returned() const { return returned_; }
  double expected() const { return mu_sum_; }

 private:
  uint64_t queries_ = 0;
  uint64_t capped_ = 0;
  double returned_ = 0;
  double mu_sum_ = 0;
  double var_sum_ = 0;
  double inv_w_ = 0;
  double inv_w2_ = 0;
  double not_live_ = 0;
  double duplicates_ = 0;
};

// Span recorder of the traced run: (name, start, end, parent) kept in
// memory and written at exit. Aggregates (count, total, self time) cover
// every span; the stored list is capped so a long run stays small.
class Tracer {
 public:
  static constexpr size_t kMaxStored = 200000;

  int Begin(const char* name) {
    Open o;
    o.name = Intern(name);
    o.parent = stack_.empty() ? -1 : stack_.back().index;
    o.index = static_cast<int>(next_index_++);
    o.start = NowNs();
    stack_.push_back(o);
    return o.index;
  }

  void End() {
    const uint64_t end = NowNs();
    Open o = stack_.back();
    stack_.pop_back();
    const uint64_t dur = end - o.start;
    Agg& a = aggs_[o.name];
    ++a.count;
    a.total_ns += dur;
    a.self_ns += dur - std::min(dur, o.child_ns);
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (spans_.size() < kMaxStored) {
      spans_.push_back({o.index, o.parent, o.name, o.start, end});
    }
  }

  // Writes "index,parent,name,start_ns,end_ns" lines, then one summary
  // line per name ("#name,count,total_ns,self_ns").
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "index,parent,name,start_ns,end_ns\n");
    for (const Stored& s : spans_) {
      std::fprintf(f, "%d,%d,%s,%llu,%llu\n", s.index, s.parent,
                   names_[s.name].c_str(),
                   static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.end));
    }
    for (size_t i = 0; i < names_.size(); ++i) {
      std::fprintf(f, "#%s,%llu,%llu,%llu\n", names_[i].c_str(),
                   static_cast<unsigned long long>(aggs_[i].count),
                   static_cast<unsigned long long>(aggs_[i].total_ns),
                   static_cast<unsigned long long>(aggs_[i].self_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    int index = 0;
    int parent = -1;
    int name = 0;
    uint64_t start = 0;
    uint64_t child_ns = 0;
  };
  struct Stored {
    int index;
    int parent;
    int name;
    uint64_t start;
    uint64_t end;
  };
  struct Agg {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };
  int Intern(const char* name) {
    // Span names are string literals: the pointer is a cheap first key.
    auto pit = by_ptr_.find(name);
    if (pit != by_ptr_.end()) return pit->second;
    auto it = index_.find(name);
    int id;
    if (it == index_.end()) {
      id = static_cast<int>(names_.size());
      names_.push_back(name);
      aggs_.emplace_back();
      index_.emplace(name, id);
    } else {
      id = it->second;
    }
    by_ptr_.emplace(name, id);
    return id;
  }

  std::vector<Open> stack_;
  std::vector<Stored> spans_;
  std::vector<std::string> names_;
  std::vector<Agg> aggs_;
  std::map<std::string, int> index_;
  std::map<const char*, int> by_ptr_;
  uint64_t next_index_ = 0;
};

// RAII span; a no-op when the tracer is null (the end-to-end run).
class Span {
 public:
  Span(Tracer* t, const char* name) : t_(t) {
    if (t_ != nullptr) t_->Begin(name);
  }
  ~Span() {
    if (t_ != nullptr) t_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

}  // namespace dpssbench

#endif  // DPSSBENCH_COMMON_H_

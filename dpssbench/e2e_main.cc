// dpssbench_e2e: the end-to-end run of the dpss benchmark. It reaches the
// program only through the registry Sampler, the dpss-serverd binary and
// server::Client, with tracing off.
//
//   dpssbench_e2e --workload query_mu|update_churn|server_durable
//                 --seed N --seconds S --serverd PATH --tmp DIR
//   dpssbench_e2e --selftest --tmp DIR
//
// --selftest runs update_churn against deliberately wrong sampler wrappers,
// and feeds server_durable's checks planted replies; it exits non-zero
// unless every fault trips its gate and the true sampler and the clean
// replies trip none.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>

#include "report.h"
#include "workloads.h"

namespace dpssbench {
namespace {

// A sampler wrapper with one planted fault; forwards everything else.
class FaultySampler final : public dpss::Sampler {
 public:
  enum class Fault { kNone, kDropIds, kSkewWeight, kDuplicateId, kStaleId, kLieWeight };

  FaultySampler(std::unique_ptr<dpss::Sampler> inner, Fault fault)
      : inner_(std::move(inner)), fault_(fault) {}

  const char* name() const override { return "faulty"; }
  Capabilities capabilities() const override { return inner_->capabilities(); }
  dpss::StatusOr<dpss::ItemId> Insert(uint64_t w) override {
    auto id = inner_->Insert(Skew(w));
    if (id.ok()) Hide(*id, w);
    return id;
  }
  dpss::StatusOr<dpss::ItemId> InsertWeight(dpss::Weight w) override {
    return inner_->InsertWeight(w);
  }
  dpss::Status Erase(dpss::ItemId id) override {
    last_erased_ = id;
    Hide(id, 0);
    return inner_->Erase(id);
  }
  dpss::Status SetWeight(dpss::ItemId id, dpss::Weight w) override {
    const uint64_t asked = w.mult;
    if (w.exp == 0) w.mult = Skew(w.mult);
    dpss::Status st = inner_->SetWeight(id, w);
    if (st.ok()) Hide(id, w.exp == 0 ? asked : 0);
    return st;
  }
  bool Contains(dpss::ItemId id) const override { return inner_->Contains(id); }
  dpss::StatusOr<dpss::Weight> GetWeight(dpss::ItemId id) const override {
    auto w = inner_->GetWeight(id);
    auto h = hidden_.find(id);
    if (w.ok() && h != hidden_.end()) return dpss::Weight::FromU64(h->second);
    if (fault_ == Fault::kLieWeight && w.ok() && dpss::SlotIndexOf(id) == 7) {
      return dpss::Weight(w->mult + 1, w->exp);
    }
    return w;
  }
  uint64_t size() const override { return inner_->size(); }
  dpss::BigUInt TotalWeight() const override {
    return inner_->TotalWeight() + dpss::BigUInt::FromU128(hidden_sum_);
  }
  dpss::Status SampleInto(dpss::Rational64 a, dpss::Rational64 b,
                          std::vector<dpss::ItemId>* out) override {
    dpss::Status st = inner_->SampleInto(a, b, out);
    ++queries_;
    if (fault_ == Fault::kDropIds) {
      // Drops about one returned id in 33.
      std::vector<dpss::ItemId> kept;
      for (dpss::ItemId id : *out) {
        if (++dropped_tick_ % 33 != 0) kept.push_back(id);
      }
      *out = kept;
    } else if (fault_ == Fault::kDuplicateId && !out->empty() &&
               queries_ % 100 == 0) {
      out->push_back(out->front());
    } else if (fault_ == Fault::kStaleId && last_erased_ != 0 &&
               queries_ % 100 == 0) {
      out->push_back(last_erased_);
    }
    return st;
  }
  dpss::Status SampleInto(dpss::Rational64 a, dpss::Rational64 b,
                          dpss::RandomEngine& rng,
                          std::vector<dpss::ItemId>* out) const override {
    return inner_->SampleInto(a, b, rng, out);
  }
  size_t ApproxMemoryBytes() const override {
    return inner_->ApproxMemoryBytes();
  }

 private:
  // kSkewWeight stores top-bucket weights (the tracked items' bucket) a
  // fifth lighter than asked, which keeps them inside the workload's
  // bucket range, and hides it: GetWeight and TotalWeight report the
  // weights asked for, so only the sampled output shows the skew.
  uint64_t Skew(uint64_t w) const {
    if (fault_ == Fault::kSkewWeight &&
        w >= (uint64_t{1} << (kSpreadBuckets - 1))) {
      return w - w / 5;
    }
    return w;
  }
  // Records that `id` was asked to weigh `asked` (0: erased, or a weight
  // the skew left alone).
  void Hide(dpss::ItemId id, uint64_t asked) {
    auto h = hidden_.find(id);
    if (h != hidden_.end()) {
      hidden_sum_ -= h->second - Skew(h->second);
      hidden_.erase(h);
    }
    if (asked != 0 && Skew(asked) != asked) {
      hidden_.emplace(id, asked);
      hidden_sum_ += asked - Skew(asked);
    }
  }

  std::unique_ptr<dpss::Sampler> inner_;
  Fault fault_;
  std::unordered_map<dpss::ItemId, uint64_t> hidden_;  // id -> asked weight
  u128 hidden_sum_ = 0;  // sum of asked minus stored weights
  dpss::ItemId last_erased_ = 0;
  uint64_t queries_ = 0;
  uint64_t dropped_tick_ = 0;
};

// server_durable's checks on a scripted exchange with one planted fault.
// Items 101-104 are live; the erase of 104 is acknowledged at t=10 and an
// insert sent at t=20 returns 105, acknowledged at t=23. Query A (sent 5,
// answered 15) returns 101 and 104; query B (sent 21, answered 22) returns
// 102 and 105. Both are legitimate: 104 was erased after A was sent, and
// 105 was inserted before B was answered. Then the server restarts and the
// read-back and STATS answer from `recovered`.
enum class Plant {
  kNone, kStaleId, kRepeatedId, kUnknownId, kLostWeight, kErasedBack,
  kWrongTotals
};

std::vector<std::string> RunServerScript(Plant plant) {
  ServerChecks sh;
  for (uint64_t i = 1; i <= 4; ++i) sh.model.Add(100 + i, 10 * i, false);
  const QueryParams q = MakeQuery(1, false, sh.model.sum_w());
  sh.model.Remove(104);
  sh.erase_acked_ns[104] = 10;
  sh.SampleReply(q, {101, 104}, 5, 15);
  std::vector<dpss::ItemId> b = {102, 105};
  if (plant == Plant::kRepeatedId) b.push_back(102);
  if (plant == Plant::kUnknownId) b.push_back(999);
  sh.SampleReply(q, b, 21, 22);
  sh.model.Add(105, 50, false);
  sh.insert_sent_ns[105] = 20;
  if (plant == Plant::kStaleId) sh.SampleReply(q, {104}, 30, 31);
  sh.Resolve();
  std::vector<std::string> failed = sh.gates.Check(sh.model, "selftest");

  // The recovered server: every live weight, and 104 gone.
  std::unordered_map<dpss::ItemId, uint64_t> recovered = {
      {101, 10}, {102, 20}, {103, 30}, {105, 50}};
  if (plant == Plant::kLostWeight) recovered[102] = 21;
  if (plant == Plant::kErasedBack) recovered[104] = 40;
  std::vector<dpss::server::Request> reads;
  std::vector<uint64_t> want;
  sh.ReadBack(&reads, &want);
  for (size_t i = 0; i < reads.size(); ++i) {
    dpss::server::Response resp;
    auto it = recovered.find(reads[i].id);
    if (it == recovered.end()) {
      resp.status = dpss::server::WireStatus::kInvalidId;
    } else {
      resp.weight = dpss::Weight::FromU64(it->second);
    }
    if (!ServerChecks::ReadBackMatches(want[i], resp)) {
      failed.push_back("read_back");
      break;
    }
  }
  const int size = plant == Plant::kWrongTotals ? 5 : 4;
  const std::string stats = "{\"sampler\": {\"name\": \"sharded8:halt\", "
                            "\"size\": " + std::to_string(size) +
                            ", \"total_weight\": 110}}";
  if (!sh.StatsMatch(stats)) failed.push_back("recovered_totals");
  return failed;
}

// The gates of the script above; the statistical ones are left out, since
// a handful of scripted replies says nothing about output sizes.
int ServerCheckSelfTest() {
  struct Case {
    const char* name;
    Plant plant;
    const char* gate;  // the gate that must fail; null: none may fail
  };
  const Case cases[] = {
      {"clean replies", Plant::kNone, nullptr},
      {"stale id after erase", Plant::kStaleId, "ids_live"},
      {"repeated id", Plant::kRepeatedId, "ids_distinct"},
      {"id never inserted", Plant::kUnknownId, "ids_live"},
      {"lost weight", Plant::kLostWeight, "read_back"},
      {"erase undone", Plant::kErasedBack, "read_back"},
      {"wrong recovered totals", Plant::kWrongTotals, "recovered_totals"},
  };
  const std::string judged[] = {"ids_live", "ids_distinct", "read_back",
                                "recovered_totals"};
  int bad = 0;
  for (const Case& c : cases) {
    bool tripped_other = false, tripped = false;
    for (const std::string& g : RunServerScript(c.plant)) {
      if (std::find(std::begin(judged), std::end(judged), g) ==
          std::end(judged)) {
        continue;
      }
      if (c.gate != nullptr && g == c.gate) {
        tripped = true;
      } else {
        tripped_other = true;
      }
    }
    const bool pass = c.gate == nullptr ? !tripped_other : tripped;
    std::printf("selftest: server %-22s expect %-19s -> %s\n", c.name,
                c.gate ? c.gate : "all gates pass", pass ? "ok" : "WRONG");
    if (!pass) ++bad;
  }
  return bad;
}

int SelfTest(const std::string& tmp) {
  struct Case {
    const char* name;
    FaultySampler::Fault fault;
    const char* gate;  // the gate that must fail; null: none may fail
  };
  const Case cases[] = {
      {"true sampler", FaultySampler::Fault::kNone, nullptr},
      {"drops ids", FaultySampler::Fault::kDropIds, "pooled_output_size"},
      {"skews a weight", FaultySampler::Fault::kSkewWeight,
       "tracked_inclusion_pooled"},
      {"repeats an id", FaultySampler::Fault::kDuplicateId, "ids_distinct"},
      {"returns an erased id", FaultySampler::Fault::kStaleId, "ids_live"},
      {"misreports a weight", FaultySampler::Fault::kLieWeight, "build_state"},
  };
  int bad = 0;
  for (const Case& c : cases) {
    RunConfig cfg;
    cfg.seed = 7;
    cfg.seconds = 1.5;
    cfg.tmp_root = tmp;
    const RunResult r = RunUpdateChurn(cfg, [&](const dpss::SamplerSpec& spec) {
      return std::make_unique<FaultySampler>(RegistryHalt(spec), c.fault);
    });
    bool pass;
    if (c.gate == nullptr) {
      pass = r.failed_gates.empty() && r.correct;
    } else {
      pass = false;
      for (const std::string& g : r.failed_gates) pass = pass || g == c.gate;
    }
    std::printf("selftest: %-22s expect %-26s -> %s\n", c.name,
                c.gate ? c.gate : "all gates pass", pass ? "ok" : "WRONG");
    if (!pass) ++bad;
  }
  bad += ServerCheckSelfTest();
  std::printf("selftest: %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dpssbench

int main(int argc, char** argv) {
  using namespace dpssbench;
  std::string workload, serverd, tmp = ".";
  RunConfig cfg;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : "";
    if (a == "--workload") {
      workload = v, ++i;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10), ++i;
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(v), ++i;
    } else if (a == "--serverd") {
      serverd = v, ++i;
    } else if (a == "--tmp") {
      tmp = v, ++i;
    } else if (a == "--selftest") {
      selftest = true;
    } else {
      std::fprintf(stderr, "dpssbench_e2e: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  cfg.serverd = serverd;
  cfg.tmp_root = tmp;
  if (selftest) return SelfTest(tmp);
  if (cfg.seconds <= 0) {
    std::fprintf(stderr, "dpssbench_e2e: --seconds must be positive\n");
    return 2;
  }
  RunResult r;
  if (workload == "query_mu") {
    r = RunQueryMu(cfg, RegistryHalt);
  } else if (workload == "update_churn") {
    r = RunUpdateChurn(cfg, RegistryHalt);
  } else if (workload == "server_durable") {
    r = RunServerDurable(cfg);
  } else {
    std::fprintf(stderr, "dpssbench_e2e: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  PrintResult(workload, cfg.seed, r, r.metrics);
  return r.correct ? 0 : 1;
}

#include "workloads.h"

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "server/client.h"
#include "server_child.h"

namespace dpssbench {

namespace fs = std::filesystem;
using dpss::ItemId;
using dpss::Status;

namespace {

constexpr uint64_t kTrackedItems = 64;
// Set-up is repeated and its median reported, so one slow build does not
// move setup_s.
constexpr int kQueryMuBuilds = 3;
constexpr int kChurnBuilds = 9;
constexpr int kServerSetups = 3;
constexpr int kServerRestarts = 7;

uint64_t Salted(uint64_t seed, uint64_t salt) {
  return seed * 0x9e3779b97f4a7c15ull + salt;
}

// Exact value of a weight the program reports, for comparison with the
// model's plain integers.
bool WeightEquals(dpss::Weight w, uint64_t expect) {
  if (w.mult == 0) return expect == 0;
  if (w.exp >= 64) return false;
  return (static_cast<u128>(w.mult) << w.exp) == expect;
}

// The program's size, total weight and every item's weight must agree with
// the model; `gate` names the check (build_state after the build,
// final_state after the timed loop). Returns whether they agree.
bool CheckState(const dpss::Sampler& s, Model& model, const char* label,
                const char* gate, RunResult* r) {
  bool ok = s.size() == model.live() &&
            s.TotalWeight() == dpss::BigUInt::FromU128(model.sum_w());
  uint64_t mismatched = 0;
  model.ForEachLive([&](const Model::Item& it) {
    auto w = s.GetWeight(it.id);
    if (!w.ok() || !WeightEquals(*w, it.w)) ++mismatched;
  });
  if (!ok || mismatched != 0) {
    std::fprintf(stderr, "%s: %s differs from the model (%llu items)\n",
                 label, gate, static_cast<unsigned long long>(mismatched));
    r->failed_gates.push_back(gate);
    r->correct = false;
    return false;
  }
  return true;
}

// Records the gate results of a finished run.
void Conclude(const Gates& gates, Model& model, const char* label,
              RunResult* r) {
  for (std::string& g : gates.Check(model, label)) {
    r->failed_gates.push_back(std::move(g));
  }
  if (!r->failed_gates.empty()) r->correct = false;
}

// <prefix>_p50_us and <prefix>_p99_us into `into` (the result's metrics or
// its info), and the sample count into the info.
void AddLatency(RunResult* r, std::vector<Metric>* into, const char* prefix,
                const std::vector<uint64_t>& ns) {
  const Summary s = Summarize(ns);
  r->info.push_back({std::string(prefix) + "_count", static_cast<double>(s.count), "count"});
  if (s.count == 0) return;
  into->push_back({std::string(prefix) + "_p50_us", s.p50 / 1e3, "us"});
  if (s.has_p99) {
    into->push_back({std::string(prefix) + "_p99_us", s.p99 / 1e3, "us"});
  }
}

template <typename T>
std::vector<T> Joined(std::vector<T> a, const std::vector<T>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

int FloorLog2(uint64_t x) { return 63 - __builtin_clzll(x); }

}  // namespace

double StatsNumber(const std::string& json, const std::string& section,
                   const std::string& key) {
  size_t pos = json.find("\"" + section + "\": {");
  if (pos == std::string::npos) return -1;
  pos = json.find("\"" + key + "\": ", pos);
  if (pos == std::string::npos) return -1;
  return std::atof(json.c_str() + pos + key.size() + 4);
}

uint64_t SelfRssBytes() {
  std::ifstream f("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  if (!(f >> size >> resident)) return 0;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

std::unique_ptr<dpss::Sampler> RegistryHalt(const dpss::SamplerSpec& spec) {
  return dpss::MakeSampler("halt", spec);
}

uint64_t BucketWeight(Rng& rng, int bucket) {
  return (uint64_t{1} << bucket) + rng.Below(uint64_t{1} << bucket);
}

uint64_t UniformWeight(Rng& rng) { return 1 + rng.Below(kUniformTopWeight); }

uint64_t SpreadWeight(Rng& rng) {
  return BucketWeight(rng, static_cast<int>(rng.Below(kSpreadBuckets)));
}

// --- Inputs ----------------------------------------------------------------

namespace {

// n weights from `draw` with 64 tracked items in bucket `tracked_bucket`,
// one in each of 64 equal stretches of the insertion order, all from the
// item-set seed.
template <typename Draw>
void MakeItemSet(uint64_t item_seed, uint64_t n, uint64_t salt,
                 int tracked_bucket, Draw&& draw,
                 std::vector<uint64_t>* weights, std::vector<bool>* tracked) {
  Rng rng(Salted(item_seed, 100 + salt));
  weights->resize(n);
  tracked->assign(n, false);
  for (uint64_t& w : *weights) w = draw(rng);
  for (uint64_t t = 0; t < kTrackedItems; ++t) {
    const uint64_t i = t * (n / kTrackedItems) + rng.Below(n / kTrackedItems);
    (*weights)[i] = BucketWeight(rng, tracked_bucket);
    (*tracked)[i] = true;
  }
}

template <typename Kind>
void Shuffle(Rng& rng, std::vector<Kind>* v) {
  for (size_t i = v->size() - 1; i > 0; --i) {
    std::swap((*v)[i], (*v)[rng.Below(i + 1)]);
  }
}

}  // namespace

QueryMuInputs MakeQueryMuInputs(uint64_t seed, uint64_t item_seed) {
  QueryMuInputs in;
  MakeItemSet(item_seed, QueryMuInputs::kN, 1, kUniformTrackedBucket,
              UniformWeight, &in.weights, &in.tracked);
  Rng rng(Salted(seed, 1));
  in.mus = StratifiedMus(rng, 1024, -3, 10);
  for (size_t i = 0; i < in.mus.size(); ++i) in.with_beta.push_back(i % 4 == 0);
  return in;
}

ChurnInputs MakeChurnInputs(uint64_t seed, uint64_t item_seed) {
  ChurnInputs in;
  MakeItemSet(item_seed, ChurnInputs::kN, 2, kSpreadBuckets - 1, SpreadWeight,
              &in.weights, &in.tracked);
  Rng rng(Salted(seed, 2));
  in.round.insert(in.round.end(), 100, ChurnInputs::kQuery);
  in.round.insert(in.round.end(), 150, ChurnInputs::kPair);
  in.round.insert(in.round.end(), 300, ChurnInputs::kSetSame);
  in.round.insert(in.round.end(), 300, ChurnInputs::kSetCross);
  Shuffle(rng, &in.round);
  in.mus = StratifiedMus(rng, 1000, -3, 3);
  return in;
}

ServerInputs MakeServerInputs(uint64_t seed, uint64_t item_seed) {
  ServerInputs in;
  MakeItemSet(item_seed, ServerInputs::kN, 3, kUniformTrackedBucket,
              UniformWeight, &in.weights, &in.tracked);
  Rng rng(Salted(seed, 3));
  in.round.insert(in.round.end(), 36, ServerInputs::kSample);
  in.round.insert(in.round.end(), 2, ServerInputs::kSetWeight);
  in.round.push_back(ServerInputs::kInsert);
  in.round.push_back(ServerInputs::kErase);
  Shuffle(rng, &in.round);
  in.mus = StratifiedMus(rng, 1024, -3, 3);
  for (size_t i = 0; i < in.mus.size(); ++i) in.with_beta.push_back(i % 4 == 0);
  return in;
}

// --- The fault probe ---------------------------------------------------------

namespace {

// One probe: a fresh registry halt sampler takes 40 items of weight 1, then
// one each of weight 2^20, 2^30 and 2^40. On this sequence the first extent
// of a new level-1 bucket is allocated while the arena grows, and a later
// bucket reuses that extent. The query alpha = 0, beta = 1 gives every item
// probability 1, so the output must be exactly the 43 ids.
bool FaultProbeOnce() {
  auto s = dpss::MakeSampler("halt", dpss::SamplerSpec{});
  if (s == nullptr) return false;
  std::vector<uint64_t> weights(40, 1);
  for (int e : {20, 30, 40}) weights.push_back(uint64_t{1} << e);
  std::vector<ItemId> ids, out;
  for (uint64_t w : weights) {
    dpss::StatusOr<ItemId> id = s->Insert(w);
    if (!id.ok()) return false;
    ids.push_back(*id);
  }
  if (!s->SampleInto({0, 1}, {1, 1}, &out).ok()) return false;
  std::sort(ids.begin(), ids.end());
  std::sort(out.begin(), out.end());
  return out == ids;
}

}  // namespace

uint64_t RunFaultProbes(uint64_t count) {
  if (count == 0) return 0;
  int fds[2];
  if (pipe(fds) != 0) return count;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return count;
  }
  if (pid == 0) {
    close(fds[0]);
    // Arenas come from the heap and stay mapped after they are freed, so
    // the fault's write lands in freed heap memory, not in unmapped pages.
    mallopt(M_MMAP_THRESHOLD, 16 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    uint64_t failed = 0;
    for (uint64_t i = 0; i < count; ++i) failed += FaultProbeOnce() ? 0 : 1;
    const bool sent = write(fds[1], &failed, sizeof(failed)) == sizeof(failed);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  uint64_t got = 0;
  const ssize_t n = read(fds[0], &got, sizeof(got));
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  // A child that died fails every probe it was given.
  if (n != sizeof(got) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return count;
  }
  return got;
}

// --- In-process workloads ----------------------------------------------------

namespace {

// One built sampler with the ids it returned for the input weights.
struct Built {
  std::unique_ptr<dpss::Sampler> s;
  std::vector<ItemId> ids;
};

// Builds the sampler `builds` times from `weights`, keeping the last `keep`
// builds. setup_s is the median build time; mem_bytes_per_item is the
// median RSS growth over a build. Each build starts with the heap's free
// memory handed back to the system, and so does each RSS reading: a build
// then neither reuses the last one's pages nor counts pages left free.
// Returns false on any failure.
bool BuildRepeated(const RunConfig& cfg, const SamplerFactory& make,
                   const std::vector<uint64_t>& weights, int builds, int keep,
                   std::vector<Built>* kept, RunResult* r) {
  dpss::SamplerSpec spec;
  std::vector<double> times;
  std::vector<double> mem;
  for (int rep = 0; rep < builds; ++rep) {
    if (kept->size() == static_cast<size_t>(keep)) kept->erase(kept->begin());
    malloc_trim(0);
    Built b;
    b.ids.reserve(weights.size());
    spec.seed = Salted(cfg.seed, 11 + rep);
    const uint64_t rss0 = SelfRssBytes();
    const uint64_t t0 = NowNs();
    Status st;
    {
      Span sp(cfg.tracer, "setup.build");
      b.s = make(spec);
      if (b.s == nullptr) return false;
      st = b.s->InsertBatch(weights, &b.ids);
    }
    times.push_back((NowNs() - t0) * 1e-9);
    if (!st.ok() || b.ids.size() != weights.size()) return false;
    malloc_trim(0);
    mem.push_back(static_cast<double>(SelfRssBytes() - rss0));
    kept->push_back(std::move(b));
  }
  r->metrics.push_back({"setup_s", Median(times), "s"});
  r->metrics.push_back(
      {"mem_bytes_per_item", Median(mem) / weights.size(), "B/item"});
  return true;
}

}  // namespace

RunResult RunQueryMu(const RunConfig& cfg, const SamplerFactory& make) {
  RunResult r;
  const QueryMuInputs in = MakeQueryMuInputs(cfg.seed);
  std::vector<Built> built;
  if (!BuildRepeated(cfg, make, in.weights, kQueryMuBuilds, 1, &built, &r)) {
    std::fprintf(stderr, "query_mu: build failed\n");
    r.correct = false;
    return r;
  }
  dpss::Sampler* s = built[0].s.get();
  const std::vector<ItemId>& ids = built[0].ids;
  Model model;
  model.Reserve(2 * ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!model.Add(ids[i], in.weights[i], in.tracked[i])) {
      r.failed_gates.push_back("ids_fresh");
    }
  }
  // A build the program got wrong is reported before the loop runs on it.
  if (!CheckState(*s, model, "query_mu", "build_state", &r)) return r;
  std::vector<QueryParams> qs;
  for (size_t i = 0; i < in.mus.size(); ++i) {
    qs.push_back(MakeQuery(in.mus[i], in.with_beta[i], model.sum_w()));
  }

  Gates gates;
  std::vector<ItemId> out;
  std::vector<uint64_t> lat;
  lat.reserve(1 << 20);
  uint64_t busy_ns = 0;
  double items = 0;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(cfg.seconds * 1e9);
  do {
    for (const QueryParams& q : qs) {
      Span op(cfg.tracer, "query");
      ++r.attempted;
      const uint64_t t0 = NowNs();
      Status st;
      {
        Span sp(cfg.tracer, "sampler.SampleInto");
        st = s->SampleInto(q.alpha, q.beta, &out);
      }
      const uint64_t t1 = NowNs();
      if (!st.ok()) {
        ++r.failed;
        continue;
      }
      Span check(cfg.tracer, "check");
      busy_ns += t1 - t0;
      lat.push_back(t1 - t0);
      items += out.size();
      gates.BeginQuery(q, model, kUniformMaxWeight);
      for (ItemId id : out) gates.CountId(model, id);
    }
  } while (NowNs() < deadline);

  CheckState(*s, model, "query_mu", "final_state", &r);
  Conclude(gates, model, "query_mu", &r);
  const double busy_s = busy_ns * 1e-9;
  r.metrics.push_back({"ops_per_s", lat.size() / busy_s, "1/s"});
  AddLatency(&r, &r.metrics, "op", lat);
  AddLatency(&r, &r.metrics, "sample", lat);
  r.metrics.push_back({"sampled_items_per_s", items / busy_s, "1/s"});
  r.info.push_back({"expected_items", gates.expected(), "count"});
  r.info.push_back({"returned_items", gates.returned(), "count"});
  return r;
}

RunResult RunUpdateChurn(const RunConfig& cfg, const SamplerFactory& make) {
  RunResult r;
  const ChurnInputs in = MakeChurnInputs(cfg.seed);
  std::vector<Built> built;
  if (!BuildRepeated(cfg, make, in.weights, kChurnBuilds, 1, &built, &r)) {
    std::fprintf(stderr, "update_churn: build failed\n");
    r.correct = false;
    return r;
  }
  dpss::Sampler* s = built[0].s.get();
  Model model;
  model.Reserve(2 * in.weights.size());
  for (size_t i = 0; i < in.weights.size(); ++i) {
    if (!model.Add(built[0].ids[i], in.weights[i], in.tracked[i])) {
      r.failed_gates.push_back("ids_fresh");
    }
  }
  if (!CheckState(*s, model, "update_churn", "build_state", &r)) return r;

  Rng rng(Salted(cfg.seed, 12));
  Gates gates;
  std::vector<ItemId> out;
  std::vector<uint64_t> qlat, ulat;
  qlat.reserve(1 << 18);
  ulat.reserve(1 << 22);
  uint64_t busy_ns = 0;
  double items = 0;
  uint64_t bad_ids = 0;
  size_t qi = 0;
  // Times one mutation, counts it, and applies `on_ok` to the model.
  auto mutate = [&](const char* span, auto&& call, auto&& on_ok) {
    ++r.attempted;
    const uint64_t t0 = NowNs();
    {
      Span sp(cfg.tracer, span);
      if (!call()) {
        ++r.failed;
        return;
      }
    }
    const uint64_t t1 = NowNs();
    busy_ns += t1 - t0;
    ulat.push_back(t1 - t0);
    on_ok();
  };
  uint64_t rounds = 0;
  const uint64_t deadline = NowNs() + static_cast<uint64_t>(cfg.seconds * 1e9);
  do {
    ++rounds;
    for (ChurnInputs::Kind kind : in.round) {
      Span op(cfg.tracer, kind == ChurnInputs::kQuery ? "query" : "update");
      switch (kind) {
        case ChurnInputs::kQuery: {
          const QueryParams q =
              MakeQuery(in.mus[qi % in.mus.size()], qi % 4 == 0, model.sum_w());
          ++qi;
          ++r.attempted;
          const uint64_t t0 = NowNs();
          Status st;
          {
            Span sp(cfg.tracer, "sampler.SampleInto");
            st = s->SampleInto(q.alpha, q.beta, &out);
          }
          const uint64_t t1 = NowNs();
          if (!st.ok()) {
            ++r.failed;
            break;
          }
          Span check(cfg.tracer, "check");
          busy_ns += t1 - t0;
          qlat.push_back(t1 - t0);
          items += out.size();
          gates.BeginQuery(q, model, kMaxWeight);
          for (ItemId id : out) gates.CountId(model, id);
          break;
        }
        case ChurnInputs::kPair: {
          const uint64_t w = SpreadWeight(rng);
          dpss::StatusOr<ItemId> id = ItemId{0};
          mutate("sampler.Insert", [&] { id = s->Insert(w); return id.ok(); },
                 [&] { bad_ids += model.Add(*id, w, false) ? 0 : 1; });
          const ItemId victim = model.RandomMovable(rng);
          mutate("sampler.Erase", [&] { return s->Erase(victim).ok(); },
                 [&] { model.Remove(victim); });
          break;
        }
        case ChurnInputs::kSetSame:
        case ChurnInputs::kSetCross: {
          const ItemId id = model.RandomMovable(rng);
          const int b = FloorLog2(model.Find(id)->w);
          int nb = b;
          if (kind == ChurnInputs::kSetCross) {
            nb = static_cast<int>(rng.Below(kSpreadBuckets - 1));
            if (nb >= b) ++nb;
          }
          const uint64_t w = BucketWeight(rng, nb);
          mutate("sampler.SetWeight", [&] { return s->SetWeight(id, w).ok(); },
                 [&] { model.Set(id, w); });
          break;
        }
      }
    }
  } while (NowNs() < deadline);

  if (bad_ids != 0) {
    std::fprintf(stderr, "update_churn: %llu inserts returned a live id\n",
                 static_cast<unsigned long long>(bad_ids));
    r.failed_gates.push_back("ids_fresh");
  }
  CheckState(*s, model, "update_churn", "final_state", &r);
  Conclude(gates, model, "update_churn", &r);
  // One fault probe per round, outside the timed loop.
  {
    Span sp(cfg.tracer, "fault_probes");
    r.attempted += rounds;
    r.failed += RunFaultProbes(rounds);
    r.info.push_back({"fault_probes", static_cast<double>(rounds), "count"});
  }
  const double busy_s = busy_ns * 1e-9;
  r.metrics.push_back(
      {"ops_per_s", (qlat.size() + ulat.size()) / busy_s, "1/s"});
  AddLatency(&r, &r.metrics, "op", Joined(qlat, ulat));
  AddLatency(&r, &r.metrics, "sample", qlat);
  AddLatency(&r, &r.info, "update", ulat);
  double qbusy = 0;
  for (uint64_t x : qlat) qbusy += x;
  r.metrics.push_back({"sampled_items_per_s", items / (qbusy * 1e-9), "1/s"});
  r.info.push_back({"expected_items", gates.expected(), "count"});
  r.info.push_back({"returned_items", gates.returned(), "count"});
  return r;
}

// --- server_durable --------------------------------------------------------

namespace {

using dpss::server::Client;
using dpss::server::MsgType;
using dpss::server::Request;
using dpss::server::Response;
using dpss::server::WireStatus;

// Sums the sizes of files in `dir` whose names start with `prefix`.
uint64_t FileBytes(const std::string& dir, const std::string& prefix) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.path().filename().string().rfind(prefix, 0) == 0) {
      total += e.file_size(ec);
    }
  }
  return total;
}

// Sends `reqs` over `c` keeping up to `window` in flight; calls
// on_reply(index, response) for each. Returns false on transport failure.
template <typename OnReply>
bool Pipeline(Client& c, const std::vector<Request>& reqs, size_t window,
              OnReply&& on_reply) {
  std::unordered_map<uint64_t, size_t> inflight;
  size_t next = 0;
  while (next < reqs.size() || !inflight.empty()) {
    while (next < reqs.size() && inflight.size() < window) {
      inflight.emplace(c.SendRequest(reqs[next]), next);
      ++next;
    }
    if (!c.Flush().ok()) return false;
    auto resp = c.ReadResponse();
    if (!resp.ok()) {
      std::fprintf(stderr, "read failed: %s\n", resp.status().message());
      return false;
    }
    auto it = inflight.find(resp->seq);
    if (it == inflight.end()) {
      std::fprintf(stderr, "reply to an unknown seq %llu\n",
                   static_cast<unsigned long long>(resp->seq));
      return false;
    }
    on_reply(it->second, *resp);
    inflight.erase(it);
  }
  return true;
}

// A server started on a fresh port and reachable by a pinged client.
struct LiveServer {
  ServerChild child;
  std::unique_ptr<Client> client;
  int port = -1;
};

bool StartServer(const RunConfig& cfg, const std::string& dir, uint64_t seed,
                 LiveServer* srv) {
  const std::string port_file = dir + ".port";
  std::error_code ec;
  fs::remove(port_file, ec);
  srv->client.reset();
  const std::vector<std::string> args = {
      "--backend", "sharded8:halt", "--durable-dir", dir, "--io-threads", "2",
      "--wal-sync-every", "1", "--port", "0", "--port-file", port_file,
      "--seed", std::to_string(seed)};
  if (!srv->child.Start(cfg.serverd, args, dir + ".log")) return false;
  srv->port = srv->child.WaitForPort(port_file, 60);
  if (srv->port <= 0) return false;
  auto c = Client::Connect("127.0.0.1", srv->port);
  if (!c.ok()) return false;
  srv->client = std::move(*c);
  return srv->client->Ping().ok();
}

struct ThreadStats {
  std::vector<uint64_t> sample_ns, update_ns;
  uint64_t attempted = 0, failed = 0, acked = 0, mutations_acked = 0;
  double items = 0;
  bool transport_ok = true;
};

// One client thread of the closed loop: `window` requests in flight over
// its own connection, mutating only the items in `mine`.
void ClientLoop(Client& c, const ServerInputs& in, ServerChecks& sh,
                std::vector<ItemId> mine, uint64_t seed, size_t window,
                uint64_t deadline, Tracer* tracer, ThreadStats* ts) {
  struct Pending {
    ServerInputs::Kind kind;
    uint64_t sent_ns;
    ItemId id;
    uint64_t w;
    QueryParams q;
  };
  Rng rng(seed);
  std::unordered_map<uint64_t, Pending> inflight;
  std::unordered_map<ItemId, int> busy;  // mutation targets in flight
  std::unordered_set<ItemId> gone;  // erased entries left in `mine`
  size_t pos = 0, qi = 0;
  auto pick = [&]() -> ItemId {
    for (;;) {
      const ItemId id = mine[rng.Below(mine.size())];
      if (!busy.count(id) && !gone.count(id)) return id;
    }
  };
  bool issuing = true;
  std::vector<uint64_t> fresh;
  while (issuing || !inflight.empty()) {
    fresh.clear();
    while (issuing && inflight.size() < window) {
      const ServerInputs::Kind kind = in.round[pos % in.round.size()];
      ++pos;
      Pending p{kind, 0, 0, 0, {}};
      Request req;
      switch (kind) {
        case ServerInputs::kSample: {
          const size_t i = qi++ % in.mus.size();
          std::lock_guard<std::mutex> lock(sh.mu);
          p.q = MakeQuery(in.mus[i], in.with_beta[i], sh.model.sum_w());
          req.type = MsgType::kSample;
          req.alpha = p.q.alpha;
          req.beta = p.q.beta;
          break;
        }
        case ServerInputs::kSetWeight:
          p.id = pick();
          p.w = UniformWeight(rng);
          ++busy[p.id];
          req.type = MsgType::kSetWeight;
          req.id = p.id;
          req.weight = dpss::Weight::FromU64(p.w);
          break;
        case ServerInputs::kInsert:
          p.w = UniformWeight(rng);
          req.type = MsgType::kInsert;
          req.weight = dpss::Weight::FromU64(p.w);
          break;
        case ServerInputs::kErase:
          p.id = pick();
          ++busy[p.id];
          req.type = MsgType::kErase;
          req.id = p.id;
          break;
      }
      const uint64_t seq = c.SendRequest(req);
      inflight.emplace(seq, p);
      fresh.push_back(seq);
      ++ts->attempted;
      // Whole rounds only: stop issuing at a round boundary after the
      // deadline.
      if (pos % in.round.size() == 0 && NowNs() >= deadline) issuing = false;
    }
    const uint64_t sent = NowNs();
    for (uint64_t seq : fresh) inflight[seq].sent_ns = sent;
    dpss::StatusOr<Response> resp = Response{};
    {
      Span sp(tracer, "client.roundtrip");
      if (!c.Flush().ok()) {
        ts->transport_ok = false;
        return;
      }
      resp = c.ReadResponse();
    }
    const uint64_t now = NowNs();
    if (!resp.ok()) {
      ts->transport_ok = false;
      return;
    }
    auto it = inflight.find(resp->seq);
    if (it == inflight.end()) {
      ts->transport_ok = false;
      return;
    }
    const Pending p = it->second;
    inflight.erase(it);
    if (p.kind != ServerInputs::kSample && p.kind != ServerInputs::kInsert) {
      if (--busy[p.id] == 0) busy.erase(p.id);
    }
    if (resp->status != WireStatus::kOk) {
      ++ts->failed;
      continue;
    }
    ++ts->acked;
    const uint64_t lat = now - p.sent_ns;
    Span check(tracer, "check");
    std::lock_guard<std::mutex> lock(sh.mu);
    switch (p.kind) {
      case ServerInputs::kSample:
        ts->sample_ns.push_back(lat);
        ts->items += resp->ids.size();
        sh.SampleReply(p.q, resp->ids, p.sent_ns, now);
        break;
      case ServerInputs::kSetWeight:
        ts->update_ns.push_back(lat);
        ++ts->mutations_acked;
        sh.model.Set(p.id, p.w);
        break;
      case ServerInputs::kInsert:
        ts->update_ns.push_back(lat);
        ++ts->mutations_acked;
        if (!sh.model.Add(resp->id, p.w, false)) {
          ++sh.bad_ids;
        } else {
          mine.push_back(resp->id);
          sh.insert_sent_ns[resp->id] = p.sent_ns;
        }
        break;
      case ServerInputs::kErase: {
        ts->update_ns.push_back(lat);
        ++ts->mutations_acked;
        sh.model.Remove(p.id);
        sh.erase_acked_ns[p.id] = now;
        gone.insert(p.id);
        break;
      }
    }
  }
}

}  // namespace

void ServerChecks::SampleReply(const QueryParams& q,
                               const std::vector<ItemId>& ids,
                               uint64_t sent_ns, uint64_t now_ns) {
  gates.BeginQuery(q, model, kUniformMaxWeight);
  sorted_ = ids;
  std::sort(sorted_.begin(), sorted_.end());
  for (size_t i = 0; i < sorted_.size(); ++i) {
    const ItemId id = sorted_[i];
    if (i > 0 && sorted_[i - 1] == id) {
      gates.Duplicate();
      continue;
    }
    if (Model::Item* item = model.Find(id)) {
      gates.Returned(item);
      continue;
    }
    gates.ReturnedUnmodelled();
    auto e = erase_acked_ns.find(id);
    if (e != erase_acked_ns.end()) {
      if (e->second < sent_ns) gates.NotLive();
    } else {
      unresolved.emplace_back(id, now_ns);
    }
  }
}

void ServerChecks::Resolve() {
  for (const auto& [id, when] : unresolved) {
    auto it = insert_sent_ns.find(id);
    if (it == insert_sent_ns.end() || it->second > when) gates.NotLive();
  }
  unresolved.clear();
}

void ServerChecks::ReadBack(std::vector<Request>* reads,
                            std::vector<uint64_t>* want) {
  Request q;
  q.type = MsgType::kGetWeight;
  model.ForEachLive([&](const Model::Item& it) {
    q.id = it.id;
    reads->push_back(q);
    want->push_back(it.w);
  });
  for (const auto& [id, when] : erase_acked_ns) {
    if (model.Find(id) != nullptr) continue;
    q.id = id;
    reads->push_back(q);
    want->push_back(0);
  }
}

bool ServerChecks::ReadBackMatches(uint64_t want, const Response& resp) {
  if (want == 0) return resp.status == WireStatus::kInvalidId;
  return resp.status == WireStatus::kOk && WeightEquals(resp.weight, want);
}

bool ServerChecks::StatsMatch(const std::string& stats) const {
  const double size = StatsNumber(stats, "sampler", "size");
  const double total = StatsNumber(stats, "sampler", "total_weight");
  const double want = static_cast<double>(model.sum_w());
  // STATS prints six significant digits.
  return size == static_cast<double>(model.live()) &&
         std::fabs(total - want) <= 1e-5 * want;
}

RunResult RunServerDurable(const RunConfig& cfg, ServerTrace* trace) {
  RunResult r;
  const ServerInputs in = MakeServerInputs(cfg.seed);
  TempDir root(cfg.tmp_root + "/server-" + std::to_string(getpid()));
  const uint64_t server_seed = Salted(cfg.seed, 21);
  LiveServer srv;
  std::string dir;
  // On failure the server's own log is the useful part; echo its tail.
  auto fail = [&](const char* what) {
    std::fprintf(stderr, "server_durable: %s\n", what);
    if (!srv.child.Running()) {
      std::fprintf(stderr, "server_durable: the server %s\n",
                   srv.child.Ended().c_str());
    }
    srv.client.reset();
    srv.child.Kill();
    std::ifstream log(dir + ".log");
    std::vector<std::string> lines;
    for (std::string line; std::getline(log, line);) lines.push_back(line);
    for (size_t i = lines.size() > 40 ? lines.size() - 40 : 0; i < lines.size(); ++i) {
      std::fprintf(stderr, "  server log: %s\n", lines[i].c_str());
    }
    r.correct = false;
    return r;
  };

  std::vector<Request> preload(in.weights.size());
  for (size_t i = 0; i < preload.size(); ++i) {
    preload[i].type = MsgType::kInsert;
    preload[i].weight = dpss::Weight::FromU64(in.weights[i]);
  }

  // Set-up: server start on a fresh durable directory plus the preload,
  // repeated; the last server stays up for the timed phase.
  std::vector<ItemId> ids(in.weights.size());
  std::vector<double> setup_s, mem;
  for (int rep = 0; rep < kServerSetups; ++rep) {
    srv.client.reset();
    srv.child.Kill();
    dir = root.path + "/d" + std::to_string(rep);
    const uint64_t t0 = NowNs();
    if (!StartServer(cfg, dir, server_seed, &srv)) return fail("start failed");
    const uint64_t rss0 = srv.child.RssBytes();
    bool all_ok = true;
    {
      Span sp(cfg.tracer, "setup.preload");
      if (!Pipeline(*srv.client, preload, 2048, [&](size_t i, const Response& resp) {
            all_ok = all_ok && resp.status == WireStatus::kOk;
            ids[i] = resp.id;
          })) {
        return fail("preload transport failed");
      }
    }
    setup_s.push_back((NowNs() - t0) * 1e-9);
    if (!all_ok) return fail("preload insert refused");
    mem.push_back(static_cast<double>(srv.child.RssBytes() - rss0) /
                  in.weights.size());
    if (rep + 1 < kServerSetups) {
      std::error_code ec;
      srv.client.reset();
      srv.child.Kill();
      fs::remove_all(dir, ec);
    }
  }
  r.metrics.push_back({"setup_s", Median(setup_s), "s"});

  ServerChecks sh;
  sh.model.Reserve(2 * ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!sh.model.Add(ids[i], in.weights[i], in.tracked[i])) {
      return fail("preload returned a duplicate id");
    }
  }

  // Timed phase: two client threads, one connection each, eight requests
  // in flight per connection.
  constexpr int kThreads = 2;
  constexpr size_t kWindow = 8;
  std::vector<std::unique_ptr<Client>> clients;
  for (int t = 0; t < kThreads; ++t) {
    auto c = Client::Connect("127.0.0.1", srv.port);
    if (!c.ok()) return fail("connect failed");
    clients.push_back(std::move(*c));
  }
  if (trace != nullptr) {
    auto st = srv.client->Stats();
    if (st.ok()) trace->stats_before = *st;
  }
  const uint64_t wal0 = FileBytes(dir, "wal-");
  std::vector<std::vector<ItemId>> mine(kThreads);
  for (size_t i = 0; i < sh.model.movable().size(); ++i) {
    mine[i % kThreads].push_back(sh.model.movable()[i]);
  }
  std::vector<ThreadStats> ts(kThreads);
  std::vector<Tracer> tracers(kThreads);
  const uint64_t t0 = NowNs();
  const uint64_t deadline = t0 + static_cast<uint64_t>(cfg.seconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(ClientLoop, std::ref(*clients[t]), std::cref(in),
                           std::ref(sh), mine[t], Salted(cfg.seed, 30 + t),
                           kWindow, deadline,
                           cfg.tracer != nullptr ? &tracers[t] : nullptr,
                           &ts[t]);
    }
    for (std::thread& th : threads) th.join();
  }
  const double phase_s = (NowNs() - t0) * 1e-9;
  std::vector<uint64_t> sample_ns, update_ns;
  uint64_t acked = 0, mutations = 0;
  double items = 0;
  for (const ThreadStats& t : ts) {
    if (!t.transport_ok) return fail("transport failed in the timed phase");
    r.attempted += t.attempted;
    r.failed += t.failed;
    acked += t.acked;
    mutations += t.mutations_acked;
    items += t.items;
    sample_ns.insert(sample_ns.end(), t.sample_ns.begin(), t.sample_ns.end());
    update_ns.insert(update_ns.end(), t.update_ns.begin(), t.update_ns.end());
  }
  sh.Resolve();
  if (trace != nullptr) {
    auto st = srv.client->Stats();
    if (st.ok()) trace->stats_after = *st;
    trace->phase_s = phase_s;
    trace->client_sample_mean_us = Summarize(sample_ns).mean / 1e3;
    for (int t = 0; t < kThreads; ++t) {
      tracers[t].Write(cfg.tmp_root + "/spans-server-client" +
                       std::to_string(t) + ".csv");
    }
  }
  const uint64_t wal1 = FileBytes(dir, "wal-");
  if (sh.bad_ids != 0) r.failed_gates.push_back("ids_fresh");
  Conclude(sh.gates, sh.model, "server_durable", &r);

  // Drain: SIGTERM makes the server finish, fsync and checkpoint.
  srv.client.reset();
  clients.clear();
  if (!srv.child.Terminate(120)) return fail("drain did not exit cleanly");
  const double snapshot_bytes =
      static_cast<double>(FileBytes(dir, "snapshot-") + FileBytes(dir, "delta-"));

  // Recovery: time from restart until a ping is answered, repeated.
  std::vector<double> recover_s;
  for (int rep = 0; rep < kServerRestarts; ++rep) {
    srv.client.reset();
    srv.child.Kill();
    const uint64_t r0 = NowNs();
    Span sp(cfg.tracer, "recover");
    if (!StartServer(cfg, dir, server_seed, &srv)) return fail("restart failed");
    recover_s.push_back((NowNs() - r0) * 1e-9);
  }

  // Every acknowledged weight must read back after the restart, every
  // acknowledged erase must stay erased, and the recovered size and total
  // weight must be the model's.
  std::vector<Request> reads;
  std::vector<uint64_t> want;
  sh.ReadBack(&reads, &want);
  uint64_t lost = 0;
  if (!Pipeline(*srv.client, reads, 1024, [&](size_t i, const Response& resp) {
        if (!ServerChecks::ReadBackMatches(want[i], resp)) ++lost;
      })) {
    return fail("read-back transport failed");
  }
  if (lost != 0) {
    std::fprintf(stderr, "server_durable: %llu acknowledged mutations lost\n",
                 static_cast<unsigned long long>(lost));
    r.failed_gates.push_back("read_back");
    r.correct = false;
  }
  auto stats = srv.client->Stats();
  if (!stats.ok()) return fail("STATS after the restart failed");
  if (!sh.StatsMatch(*stats)) {
    std::fprintf(stderr, "server_durable: recovered size or total weight "
                         "differs from the model\n");
    r.failed_gates.push_back("recovered_totals");
    r.correct = false;
  }
  srv.client.reset();
  if (!srv.child.Terminate(120)) return fail("final drain did not exit cleanly");

  r.metrics.push_back({"ops_per_s", acked / phase_s, "1/s"});
  AddLatency(&r, &r.metrics, "op", Joined(sample_ns, update_ns));
  AddLatency(&r, &r.metrics, "sample", sample_ns);
  AddLatency(&r, &r.info, "update", update_ns);
  r.metrics.push_back({"sampled_items_per_s", items / phase_s, "1/s"});
  r.metrics.push_back({"mem_bytes_per_item", Median(mem), "B/item"});
  // Persistence figures, printed with the run's stamp: the in-process
  // workloads have no persistence, and every workload must report every
  // end-to-end metric.
  r.info.push_back({"wal_bytes_per_update",
                    static_cast<double>(wal1 - wal0) / mutations, "B/op"});
  r.info.push_back({"snapshot_bytes_per_item",
                    snapshot_bytes / sh.model.live(), "B/item"});
  r.info.push_back({"recover_s", Median(recover_s), "s"});
  r.info.push_back({"expected_items", sh.gates.expected(), "count"});
  r.info.push_back({"returned_items", sh.gates.returned(), "count"});
  r.info.push_back({"read_back_items", static_cast<double>(reads.size()), "count"});
  return r;
}

}  // namespace dpssbench

// dpssbench_layers: the traced run of the dpss benchmark. It runs the same
// end-to-end workload as dpssbench_e2e with spans recorded around every
// layer call, then probes the layers below the Sampler interface directly
// (DpssSampler, HaltStructure, BucketStructure, LookupTable, random/,
// ShardedSampler, DurableSampler), each on the inputs of the workload that
// loads it, and prints the per-layer metrics. Every traced run probes every
// layer, whichever workload it runs. Spans are written to
// <tmp>/spans-<workload>.csv.
//
//   dpssbench_layers --workload W --seed N --seconds S --serverd PATH --tmp DIR

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>

#include "bigint/u128.h"
#include "core/bucket_structure.h"
#include "core/dpss_sampler.h"
#include "core/halt.h"
#include "core/lookup_table.h"
#include "persist/recovery.h"
#include "random/bernoulli.h"
#include "random/geometric.h"
#include "report.h"
#include "workloads.h"

// Allocation counter for sampler.allocs_per_update: counts every global
// operator new while `g_count_allocs` is set.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new(size_t n, std::align_val_t al) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const size_t a = static_cast<size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { std::free(p); }

namespace dpssbench {
namespace {

using dpss::BigUInt;
using dpss::ItemId;
using dpss::U128;

// Times `body(i)` for i in [0, count) as one block; returns ns per call.
template <typename Body>
double TimeBlock(size_t count, Body&& body) {
  const uint64_t t0 = NowNs();
  for (size_t i = 0; i < count; ++i) body(i);
  return static_cast<double>(NowNs() - t0) / count;
}

// Median over `rounds` blocks of `count` calls, in ns per call.
template <typename Body>
double MedianBlocks(int rounds, size_t count, Body&& body) {
  std::vector<double> v;
  for (int r = 0; r < rounds; ++r) v.push_back(TimeBlock(count, body));
  return Median(v);
}

struct NoListener : dpss::BucketStructure::RelocationListener {
  void OnRelocate(uint64_t, dpss::BucketStructure::Location) override {}
};

// --- query_mu probes ---------------------------------------------------------

void ProbeQueryMu(const RunConfig& cfg, Tracer& tr, std::vector<Metric>* m) {
  const QueryMuInputs in = MakeQueryMuInputs(cfg.seed);
  u128 sum_w = 0;
  for (uint64_t w : in.weights) sum_w += w;
  std::vector<QueryParams> qs;
  for (size_t i = 0; i < in.mus.size(); ++i) {
    qs.push_back(MakeQuery(in.mus[i], in.with_beta[i], sum_w));
  }
  const uint64_t seed = cfg.seed * 31 + 7;
  std::vector<ItemId> out;
  std::vector<uint64_t> hout;
  constexpr int kPasses = 3;

  // Twin structures over the same weights, queried with the same sequence
  // and engines seeded alike, timed in alternating blocks so drift in the
  // machine's speed hits both alike. The HALT twin is timed afterwards.
  double sampler_ns, dpss_ns, halt_ns;
  int g1;
  {
    Span sp(&tr, "probe.sampler_and_dpss_sampler");
    dpss::SamplerSpec spec;
    spec.seed = seed;
    auto s = dpss::MakeSampler("halt", spec);
    s->InsertBatch(in.weights, nullptr);
    dpss::DpssSampler d(in.weights, seed);
    g1 = d.level1_log2_capacity();
    dpss::RandomEngine rs(seed), rd(seed);
    std::vector<double> vs, vd;
    for (int pass = 0; pass < 2 * kPasses + 1; ++pass) {
      vs.push_back(TimeBlock(qs.size(), [&](size_t i) {
        (void)s->SampleInto(qs[i].alpha, qs[i].beta, rs, &out);
      }));
      vd.push_back(TimeBlock(qs.size(), [&](size_t i) {
        d.SampleInto(qs[i].alpha, qs[i].beta, rd, &out);
      }));
    }
    sampler_ns = Median(vs);
    dpss_ns = Median(vd);
  }
  {
    Span sp(&tr, "probe.halt");
    NoListener listener;
    dpss::HaltStructure h(g1, &listener);
    for (size_t i = 0; i < in.weights.size(); ++i) {
      h.Insert(i, dpss::Weight::FromU64(in.weights[i]));
    }
    std::vector<BigUInt> wnum, wden;
    for (const QueryParams& q : qs) {
      wnum.push_back(BigUInt::FromU128(q.wnum));
      wden.push_back(BigUInt::FromU128(q.wden));
    }
    dpss::RandomEngine rng(seed);
    halt_ns = MedianBlocks(kPasses, qs.size(), [&](size_t i) {
      h.SampleInto(wnum[i], wden[i], rng, &hout);
    });
    // ns against output size, per query, fitted by least squares.
    double sx = 0, sy = 0, sxx = 0, sxy = 0, n = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (size_t i = 0; i < qs.size(); ++i) {
        const uint64_t t0 = NowNs();
        h.SampleInto(wnum[i], wden[i], rng, &hout);
        const double y = static_cast<double>(NowNs() - t0);
        const double x = static_cast<double>(hout.size());
        sx += x, sy += y, sxx += x * x, sxy += x * y, n += 1;
      }
    }
    const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    m->push_back({"halt.ns_fixed", (sy - slope * sx) / n, "ns"});
    m->push_back({"halt.ns_per_item", slope, "ns"});

    // LookupTable: random configurations of this structure's 4S grid.
    const dpss::LookupTable& lt = h.lookup_table();
    Rng crng(seed);
    std::vector<uint64_t> configs;
    for (int c = 0; c < 64; ++c) {
      uint64_t packed = 0;
      for (int j = 0; j < lt.k_slots(); ++j) {
        packed |= crng.Below(lt.m() + 1) << (j * lt.bits_per_slot());
      }
      lt.BuildRow(packed);
      configs.push_back(packed);
    }
    uint64_t sink = 0;
    m->push_back({"lookup_table.sample_ns",
                  MedianBlocks(9, 1 << 16, [&](size_t i) {
                    sink += lt.Sample(configs[i & 63], rng);
                  }),
                  "ns"});
    if (sink == 1) std::fprintf(stderr, " ");
  }
  m->push_back({"sampler.sample_ns", sampler_ns, "ns"});
  m->push_back({"dpss_sampler.sample_ns", dpss_ns, "ns"});
  m->push_back({"halt.sample_ns", halt_ns, "ns"});
  m->push_back({"sampler.self_ns", sampler_ns - dpss_ns, "ns"});

  // random/: parameters from the workload's buckets and queries. For bucket
  // b with n_b items and a query's W, the walk's coins use p = 2^(b+1)/W.
  Span sp(&tr, "probe.random");
  std::vector<uint64_t> bucket_n(64, 0);
  for (uint64_t w : in.weights) ++bucket_n[63 - __builtin_clzll(w)];
  struct Geo {
    U128 pnum, pden;
    uint64_t n;
  };
  std::vector<Geo> geo, pstar;
  for (const QueryParams& q : qs) {
    for (int b = 0; b < 64; ++b) {
      if (bucket_n[b] == 0) continue;
      const U128 pnum = (U128{1} << (b + 1)) * q.wden;
      if (pnum >= q.wnum) continue;
      geo.push_back({pnum, q.wnum, bucket_n[b]});
      if (pnum * bucket_n[b] <= q.wnum) pstar.push_back({pnum, q.wnum, bucket_n[b]});
    }
  }
  Rng prng(seed);
  std::vector<std::pair<U128, U128>> rational;
  for (int i = 0; i < 4096; ++i) {
    const QueryParams& q = qs[prng.Below(qs.size())];
    const uint64_t w = in.weights[prng.Below(in.weights.size())];
    rational.emplace_back(static_cast<U128>(w) * q.wden, q.wnum);
  }
  dpss::RandomEngine rng(seed);
  uint64_t sink = 0;
  m->push_back({"random.bernoulli_rational_ns",
                MedianBlocks(9, 1 << 15, [&](size_t i) {
                  const auto& r = rational[i % rational.size()];
                  sink += dpss::SampleBernoulliRational(r.first, r.second, rng);
                }),
                "ns"});
  m->push_back({"random.bounded_geo_ns",
                MedianBlocks(9, 1 << 13, [&](size_t i) {
                  const Geo& g = geo[i % geo.size()];
                  sink += dpss::SampleBoundedGeo(g.pnum, g.pden, g.n, rng);
                }),
                "ns"});
  m->push_back({"random.bernoulli_pow_ns",
                MedianBlocks(9, 1 << 13, [&](size_t i) {
                  const Geo& g = geo[i % geo.size()];
                  sink += dpss::SampleBernoulliPow(g.pden - g.pnum, g.pden, g.n, rng);
                }),
                "ns"});
  m->push_back({"random.bernoulli_pstar_ns",
                MedianBlocks(9, 1 << 13, [&](size_t i) {
                  const Geo& g = pstar[i % pstar.size()];
                  sink += dpss::SampleBernoulliPStar(g.pnum, g.pden, g.n, rng);
                }),
                "ns"});
  if (sink == 1) std::fprintf(stderr, " ");
}

// --- update_churn probes -----------------------------------------------------

// One block of each update kind, sized to keep the item count steady:
// inserts then erases of the same items, and SetWeight within and across
// buckets on resident items.
struct ChurnOps {
  std::vector<uint64_t> insert_w;
  std::vector<size_t> set_target;
  std::vector<uint64_t> same_w, cross_w;
};

ChurnOps MakeChurnOps(const ChurnInputs& in, uint64_t seed, size_t k) {
  Rng rng(seed);
  ChurnOps ops;
  for (size_t i = 0; i < k; ++i) {
    ops.insert_w.push_back(
        BucketWeight(rng, static_cast<int>(rng.Below(kSpreadBuckets))));
    const size_t t = rng.Below(in.weights.size());
    const int b = 63 - __builtin_clzll(in.weights[t]);
    int nb = static_cast<int>(rng.Below(kSpreadBuckets - 1));
    if (nb >= b) ++nb;
    ops.set_target.push_back(t);
    ops.same_w.push_back(BucketWeight(rng, b));
    ops.cross_w.push_back(BucketWeight(rng, nb));
  }
  return ops;
}

// Times the four update kinds on one structure through `api`, `rounds`
// times; reports medians as <prefix>.insert_ns etc.
template <typename Api>
void TimeUpdates(const char* prefix, const ChurnOps& ops, int rounds, Api& api,
                 std::vector<Metric>* m, double* allocs_per_update) {
  const size_t k = ops.insert_w.size();
  std::vector<double> ins, era, same, cross;
  uint64_t allocs = 0, counted = 0;
  for (int r = 0; r < rounds; ++r) {
    g_allocs.store(0);
    g_count_allocs.store(true);
    ins.push_back(TimeBlock(k, [&](size_t i) { api.Insert(i, ops.insert_w[i]); }));
    era.push_back(TimeBlock(k, [&](size_t i) { api.Erase(i); }));
    same.push_back(TimeBlock(k, [&](size_t i) {
      api.Set(ops.set_target[i], ops.same_w[i]);
    }));
    cross.push_back(TimeBlock(k, [&](size_t i) {
      api.Set(ops.set_target[i], ops.cross_w[i]);
    }));
    g_count_allocs.store(false);
    allocs += g_allocs.load();
    counted += 4 * k;
    // Restore the resident weights so every round starts alike.
    for (size_t i = 0; i < k; ++i) api.Restore(ops.set_target[i]);
  }
  const std::string p = prefix;
  m->push_back({p + ".insert_ns", Median(ins), "ns"});
  m->push_back({p + ".erase_ns", Median(era), "ns"});
  m->push_back({p + ".setweight_ns", Median(same), "ns"});
  if (api.kRebucket) {
    m->push_back({p + ".setweight_rebucket_ns", Median(cross), "ns"});
  }
  if (allocs_per_update != nullptr) {
    *allocs_per_update = static_cast<double>(allocs) / counted;
  }
}

void ProbeUpdateChurn(const RunConfig& cfg, Tracer& tr, std::vector<Metric>* m) {
  const ChurnInputs in = MakeChurnInputs(cfg.seed);
  const ChurnOps ops = MakeChurnOps(in, cfg.seed * 31 + 9, 2048);
  const uint64_t seed = cfg.seed * 31 + 7;
  constexpr int kRounds = 15;
  int g1 = 0;  // level-1 group width of the DpssSampler twin

  {
    Span sp(&tr, "probe.sampler");
    dpss::SamplerSpec spec;
    spec.seed = seed;
    struct {
      bool kRebucket = true;
      std::unique_ptr<dpss::Sampler> s;
      std::vector<ItemId> ids, fresh;
      const ChurnInputs* in;
      void Insert(size_t i, uint64_t w) { fresh[i] = *s->Insert(w); }
      void Erase(size_t i) { (void)s->Erase(fresh[i]); }
      void Set(size_t t, uint64_t w) { (void)s->SetWeight(ids[t], w); }
      void Restore(size_t t) { (void)s->SetWeight(ids[t], in->weights[t]); }
    } api;
    api.s = dpss::MakeSampler("halt", spec);
    api.s->InsertBatch(in.weights, &api.ids);
    api.fresh.resize(ops.insert_w.size());
    api.in = &in;
    double allocs = 0;
    TimeUpdates("sampler", ops, kRounds, api, m, &allocs);
    m->push_back({"sampler.allocs_per_update", allocs, "count"});
  }
  {
    Span sp(&tr, "probe.dpss_sampler");
    struct {
      bool kRebucket = true;
      std::unique_ptr<dpss::DpssSampler> d;
      std::vector<ItemId> fresh;
      const ChurnInputs* in;
      // The bulk build numbers items 0..n-1 (generation 0).
      void Insert(size_t i, uint64_t w) { fresh[i] = d->Insert(w); }
      void Erase(size_t i) { d->Erase(fresh[i]); }
      void Set(size_t t, uint64_t w) { d->SetWeight(dpss::MakeItemId(t, 0), w); }
      void Restore(size_t t) { d->SetWeight(dpss::MakeItemId(t, 0), in->weights[t]); }
    } api;
    api.d = std::make_unique<dpss::DpssSampler>(in.weights, seed);
    g1 = api.d->level1_log2_capacity();
    api.fresh.resize(ops.insert_w.size());
    api.in = &in;
    TimeUpdates("dpss_sampler", ops, kRounds, api, m, nullptr);
  }
  {
    Span sp(&tr, "probe.bucket_structure");
    // Level-1 bucket structure alone; locations tracked through the
    // relocation listener, as the sampler does.
    struct Locs : dpss::BucketStructure::RelocationListener {
      std::vector<dpss::BucketStructure::Location> loc;
      void OnRelocate(uint64_t h, dpss::BucketStructure::Location l) override {
        loc[h] = l;
      }
    } locs;
    const size_t n = in.weights.size(), k = ops.insert_w.size();
    locs.loc.resize(n + k);
    struct {
      bool kRebucket = false;
      dpss::BucketStructure* b;
      Locs* locs;
      size_t n;
      const ChurnInputs* in;
      void Insert(size_t i, uint64_t w) {
        locs->loc[n + i] = b->Insert(n + i, dpss::Weight::FromU64(w));
      }
      void Erase(size_t i) { b->Erase(locs->loc[n + i]); }
      void Set(size_t t, uint64_t w) {
        // Same-bucket only: cross-bucket moves are not a BucketStructure op.
        if (63 - __builtin_clzll(w) == 63 - __builtin_clzll(in->weights[t])) {
          b->SetWeight(locs->loc[t], dpss::Weight::FromU64(w));
        }
      }
      void Restore(size_t t) {
        b->SetWeight(locs->loc[t], dpss::Weight::FromU64(in->weights[t]));
      }
    } api;
    dpss::BucketStructure bs(dpss::kLevel1Universe, g1, &locs);
    for (size_t i = 0; i < n; ++i) {
      locs.loc[i] = bs.Insert(i, dpss::Weight::FromU64(in.weights[i]));
    }
    api.b = &bs;
    api.locs = &locs;
    api.n = n;
    api.in = &in;
    TimeUpdates("bucket_structure", ops, kRounds, api, m, nullptr);
  }
}

// --- server_durable probes -----------------------------------------------------

// The server layer: the server workload, run short in every traced run.
// Its client-side figures swing by up to 2x between runs on a shared
// 4-vCPU guest, too much for an end-to-end bound (README.md), so they are
// per-layer metrics here. The server's own figures come from STATS around
// the timed phase; the rest from the run's result.
constexpr double kServerProbeSeconds = 3;

bool ServerLayer(const ServerTrace& st, const RunResult& sr,
                 std::vector<Metric>* m) {
  if (!sr.correct) {
    std::fprintf(stderr, "server probe: the server run failed\n");
    return false;
  }
  if (st.stats_before.empty() || st.stats_after.empty()) {
    std::fprintf(stderr, "server probe: no STATS from the server\n");
    return false;
  }
  auto from = [&](const std::vector<Metric>& ms, const char* name,
                  const char* as) {
    for (const Metric& x : ms) {
      if (x.name == name) {
        m->push_back({as, x.value, x.unit});
        return true;
      }
    }
    std::fprintf(stderr, "server probe: no %s\n", name);
    return false;
  };
  if (!from(sr.metrics, "ops_per_s", "server.ops_per_s") ||
      !from(sr.metrics, "mem_bytes_per_item", "server.mem_bytes_per_item") ||
      !from(sr.info, "update_p50_us", "client.update_p50_us") ||
      !from(sr.info, "wal_bytes_per_update", "server.wal_bytes_per_update") ||
      !from(sr.info, "snapshot_bytes_per_item", "server.snapshot_bytes_per_item") ||
      !from(sr.info, "recover_s", "server.recover_s")) {
    return false;
  }
  const double sample_ns = StatsNumber(st.stats_after, "sample", "mean_ns");
  const double setweight_ns = StatsNumber(st.stats_after, "setweight", "mean_ns");
  auto delta = [&](const char* key) {
    return StatsNumber(st.stats_after, "batch", key) -
           StatsNumber(st.stats_before, "batch", key);
  };
  const double batches = delta("batches");
  const double ops_per_batch = delta("batched_ops") / batches;
  m->push_back({"client.sample_us", st.client_sample_mean_us, "us"});
  m->push_back({"server.sample_us", sample_ns / 1e3, "us"});
  m->push_back({"client.transport_us", st.client_sample_mean_us - sample_ns / 1e3, "us"});
  m->push_back({"server.setweight_us", setweight_ns / 1e3, "us"});
  m->push_back({"server.ops_per_batch", ops_per_batch, "count"});
  m->push_back({"server.queries_per_burst",
                delta("burst_queries") / delta("query_bursts"), "count"});
  m->push_back({"server.batches_per_s", batches / st.phase_s, "1/s"});
  return true;
}

// ShardedSampler and DurableSampler in-process on the server workload's
// items; DurableSampler batches hold kDurableBatch SetWeight operations.
constexpr size_t kDurableBatch = 8;

bool ProbeShardedDurable(const RunConfig& cfg, Tracer& tr,
                         std::vector<Metric>* m) {
  const ServerInputs in = MakeServerInputs(cfg.seed);
  const uint64_t seed = cfg.seed * 31 + 7;
  std::vector<QueryParams> qs;
  {
    u128 sum_w = 0;
    for (uint64_t w : in.weights) sum_w += w;
    for (size_t i = 0; i < in.mus.size(); ++i) {
      qs.push_back(MakeQuery(in.mus[i], in.with_beta[i], sum_w));
    }
  }
  Rng rng(seed);
  std::vector<size_t> targets;
  std::vector<uint64_t> new_w;
  for (int i = 0; i < 4096; ++i) {
    targets.push_back(rng.Below(in.weights.size()));
    new_w.push_back(UniformWeight(rng));
  }
  {
    Span sp(&tr, "probe.sharded");
    dpss::SamplerSpec spec;
    spec.seed = seed;
    auto s = dpss::MakeSampler("sharded8:halt", spec);
    std::vector<ItemId> ids, out;
    if (s == nullptr || !s->InsertBatch(in.weights, &ids).ok()) {
      std::fprintf(stderr, "sharded probe: build failed\n");
      return false;
    }
    m->push_back({"sharded.sample_ns", MedianBlocks(5, qs.size(), [&](size_t i) {
                    (void)s->SampleInto(qs[i].alpha, qs[i].beta, &out);
                  }), "ns"});
    m->push_back({"sharded.setweight_ns", MedianBlocks(5, targets.size(), [&](size_t i) {
                    (void)s->SetWeight(ids[targets[i]], new_w[i]);
                  }), "ns"});
  }

  Span sp(&tr, "probe.durable");
  // A directory of this process's own, removed on every path.
  const TempDir dir(cfg.tmp_root + "/durable-probe-" + std::to_string(getpid()));
  dpss::persist::DurableOptions opt;
  opt.backend = "sharded8:halt";
  opt.spec.seed = seed;
  opt.wal_sync_every = 0;  // the probe syncs explicitly, to time it apart
  std::vector<double> open_s, ckpt_s, apply_us, sync_us;
  double wal_per_record = 0;
  auto failed = [](const char* what) {
    std::fprintf(stderr, "durable probe: %s failed\n", what);
    return false;
  };
  {
    auto d = dpss::persist::RecoveryManager::Open(dir.path, opt);
    if (!d.ok()) return failed("open");
    std::vector<ItemId> ids;
    if (!(*d)->InsertBatch(in.weights, &ids).ok() || !(*d)->SyncWal().ok()) {
      return failed("preload");
    }
    const size_t batch = kDurableBatch;
    std::vector<dpss::Op> ops(batch);
    const uint64_t wal0 = (*d)->wal_bytes();
    constexpr int kBatches = 300;
    for (int b = 0; b < kBatches; ++b) {
      for (size_t j = 0; j < batch; ++j) {
        const size_t i = (b * batch + j) % targets.size();
        ops[j] = dpss::Op::SetWeight(ids[targets[i]], new_w[i]);
      }
      const uint64_t t0 = NowNs();
      const bool applied = (*d)->ApplyBatch(ops).ok();
      const uint64_t t1 = NowNs();
      if (!applied || !(*d)->SyncWal().ok()) return failed("batch");
      apply_us.push_back((t1 - t0) / 1e3);
      sync_us.push_back((NowNs() - t1) / 1e3);
    }
    wal_per_record = static_cast<double>((*d)->wal_bytes() - wal0) / kBatches;
    for (int r = 0; r < 3; ++r) {
      const uint64_t t0 = NowNs();
      if (!(*d)->Checkpoint(dpss::persist::CheckpointMode::kFull).ok()) {
        return failed("checkpoint");
      }
      ckpt_s.push_back((NowNs() - t0) * 1e-9);
    }
  }
  for (int r = 0; r < 3; ++r) {
    const uint64_t t0 = NowNs();
    auto d = dpss::persist::RecoveryManager::Open(dir.path, opt);
    open_s.push_back((NowNs() - t0) * 1e-9);
    if (!d.ok() || (*d)->size() != in.weights.size()) return failed("recovery");
  }
  m->push_back({"durable.apply_batch_us", Median(apply_us), "us"});
  m->push_back({"durable.sync_wal_us", Median(sync_us), "us"});
  m->push_back({"durable.checkpoint_s", Median(ckpt_s), "s"});
  m->push_back({"recovery.open_s", Median(open_s), "s"});
  m->push_back({"persist.wal_bytes_per_record", wal_per_record, "B"});
  return true;
}

}  // namespace
}  // namespace dpssbench

int main(int argc, char** argv) {
  using namespace dpssbench;
  std::string workload;
  RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    const char* v = argv[i + 1];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(v);
    } else if (a == "--serverd") {
      cfg.serverd = v;
    } else if (a == "--tmp") {
      cfg.tmp_root = v;
    } else {
      std::fprintf(stderr, "dpssbench_layers: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (cfg.seconds <= 0 || cfg.tmp_root.empty()) {
    std::fprintf(stderr, "dpssbench_layers: --seconds and --tmp are required\n");
    return 2;
  }
  Tracer tracer;
  cfg.tracer = &tracer;
  RunResult r;
  std::vector<Metric> layers;
  ServerTrace st;
  RunResult sr;
  if (workload == "query_mu") {
    r = RunQueryMu(cfg, RegistryHalt);
  } else if (workload == "update_churn") {
    r = RunUpdateChurn(cfg, RegistryHalt);
  } else if (workload == "server_durable") {
    r = RunServerDurable(cfg, &st);
    sr = r;
  } else {
    std::fprintf(stderr, "dpssbench_layers: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  // Every workload reports every per-layer metric, so every traced run
  // probes all the layers, each on the inputs of the workload that loads
  // it. A probe that cannot produce its metrics fails the run.
  ProbeQueryMu(cfg, tracer, &layers);
  ProbeUpdateChurn(cfg, tracer, &layers);
  if (!ProbeShardedDurable(cfg, tracer, &layers)) r.correct = false;
  if (workload != "server_durable") {
    Span sp(&tracer, "probe.server");
    RunConfig server_cfg = cfg;
    server_cfg.seconds = kServerProbeSeconds;
    sr = RunServerDurable(server_cfg, &st);
  }
  if (!ServerLayer(st, sr, &layers)) r.correct = false;
  // The end-to-end figures measured with spans on, for the overhead
  // comparison with the untraced run.
  for (const Metric& e : r.metrics) {
    r.info.push_back({"traced." + e.name, e.value, e.unit});
  }
  if (!tracer.Write(cfg.tmp_root + "/spans-" + workload + ".csv")) {
    std::fprintf(stderr, "dpssbench_layers: cannot write spans\n");
  }
  PrintResult(workload, cfg.seed, r, layers);
  return r.correct ? 0 : 1;
}

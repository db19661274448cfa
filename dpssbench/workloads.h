// The three workloads of the dpss benchmark. Each builds its inputs from the
// seed, sets up, runs a closed loop for the given time, checks the outputs
// against the benchmark's own model and reports end-to-end metrics.

#ifndef DPSSBENCH_WORKLOADS_H_
#define DPSSBENCH_WORKLOADS_H_

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common.h"
#include "core/sampler.h"
#include "server/protocol.h"

namespace dpssbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  std::string serverd;   // path of the dpss-serverd binary
  std::string tmp_root;  // scratch directory for durable state
  Tracer* tracer = nullptr;  // null: tracing off (the end-to-end run)
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;  // end-to-end metrics
  std::vector<Metric> info;     // sample counts and other context
  std::vector<std::string> failed_gates;
};

// Builds the sampler a workload runs on. The end-to-end run passes the
// registry; the self-test passes deliberately wrong wrappers.
using SamplerFactory =
    std::function<std::unique_ptr<dpss::Sampler>(const dpss::SamplerSpec&)>;

std::unique_ptr<dpss::Sampler> RegistryHalt(const dpss::SamplerSpec& spec);

// --- Inputs (shared with the traced run's layer probes) -------------------

// The queries, the mutations and every weight they set come from the seed.
// The item sets the workloads start from come from fixed item-set seeds
// instead: BucketStructure::GrowBucket writes a bucket's first extent offset
// into freed memory whenever that allocation moves the arena, and most sets
// drawn from a fresh seed reach that path while being built (README.md,
// "The arena fault"). Each fixed set was checked to build without reaching
// it; the fault is shown on every update_churn run by RunFaultProbes below.
// update_churn draws its weights as 2^e + U[0, 2^e) with e uniform in
// [0, kSpreadBuckets): about as many items in each of 40 buckets.
// query_mu and server_durable draw them uniform in [1, 3 * 2^18]: on
// sharded8:halt every one of 171 spread sets tried reached the fault while
// being built. Each set has 64 tracked items in its top bucket, so no
// weight reaches the workload's max weight.
//
// Bucket extents double, so a bucket whose count sits at a power of two
// takes twice the memory on about half of the sets. A range of [1, 2^20]
// puts about 2^b of query_mu's 2^20 items in each bucket b, and its memory
// flipped between about 235 and 365 B/item from seed to seed. At 3 * 2^18
// bucket b holds about (4/3) 2^b items, 2/3 of its extent.
inline constexpr uint64_t kUniformTopWeight = uint64_t{3} << 18;
inline constexpr int kSpreadBuckets = 40;
inline constexpr uint64_t kMaxWeight = uint64_t{1} << kSpreadBuckets;
inline constexpr int kUniformTrackedBucket = 23;
inline constexpr uint64_t kUniformMaxWeight = uint64_t{1}
                                              << (kUniformTrackedBucket + 1);
inline constexpr uint64_t kQueryMuItemSeed = 1;
inline constexpr uint64_t kChurnItemSeed = 5;
inline constexpr uint64_t kServerItemSeed = 1;
uint64_t BucketWeight(Rng& rng, int bucket);  // uniform in [2^b, 2^(b+1))
uint64_t SpreadWeight(Rng& rng);  // BucketWeight of a uniform bucket
uint64_t UniformWeight(Rng& rng);  // uniform in [1, kUniformTopWeight]

// query_mu: n = 2^20; 1024 stratified log-uniform mu targets over
// [2^-3, 2^10], every fourth with beta > 0.
struct QueryMuInputs {
  static constexpr uint64_t kN = uint64_t{1} << 20;
  std::vector<uint64_t> weights;
  std::vector<bool> tracked;
  std::vector<double> mus;
  std::vector<bool> with_beta;
};
QueryMuInputs MakeQueryMuInputs(uint64_t seed,
                                uint64_t item_seed = kQueryMuItemSeed);

// The fixed-input probe of the GrowBucket fault, one per update_churn
// round: a fresh halt sampler takes ten fixed weights whose insertion
// reaches the faulty path, then answers a query that must return every
// item. Runs `count` probes in a child process (the fault writes to freed
// memory) and returns how many failed; a child that dies fails them all.
uint64_t RunFaultProbes(uint64_t count);

// update_churn: n = 2^14; rounds of 1000 operations, plus one fault probe.
struct ChurnInputs {
  static constexpr uint64_t kN = uint64_t{1} << 14;
  enum Kind : uint8_t { kQuery, kPair, kSetSame, kSetCross };
  std::vector<uint64_t> weights;
  std::vector<bool> tracked;
  std::vector<Kind> round;  // 100 queries, 150 insert/erase pairs,
                            // 300 same-bucket and 300 cross-bucket SetWeight
  std::vector<double> mus;  // stratified over [2^-3, 2^3]
};
ChurnInputs MakeChurnInputs(uint64_t seed,
                            uint64_t item_seed = kChurnItemSeed);

RunResult RunQueryMu(const RunConfig& cfg, const SamplerFactory& make);
RunResult RunUpdateChurn(const RunConfig& cfg, const SamplerFactory& make);

// server_durable: 2^18 preloaded items; rounds of 40 requests: 36 samples
// with mu stratified over [2^-3, 2^3], 2 SetWeight, 1 insert and 1 erase.
// Every new weight comes from the same range as the item set.
struct ServerInputs {
  static constexpr uint64_t kN = uint64_t{1} << 18;
  enum Kind : uint8_t { kSample, kSetWeight, kInsert, kErase };
  std::vector<uint64_t> weights;
  std::vector<bool> tracked;
  std::vector<Kind> round;
  std::vector<double> mus;
  std::vector<bool> with_beta;
};
ServerInputs MakeServerInputs(uint64_t seed,
                              uint64_t item_seed = kServerItemSeed);

// The server workload's checks, kept apart from the transport so that the
// self-test can feed them planted replies. Callers hold `mu` while the
// client threads run.
struct ServerChecks {
  std::mutex mu;
  Model model;
  Gates gates;
  std::unordered_map<dpss::ItemId, uint64_t> erase_acked_ns;  // id -> ack
  std::unordered_map<dpss::ItemId, uint64_t> insert_sent_ns;  // id -> send
  std::vector<std::pair<dpss::ItemId, uint64_t>> unresolved;  // id, reply
  uint64_t bad_ids = 0;  // inserts that returned a live id

  // One acknowledged reply to query `q`, sent at `sent_ns` and answered at
  // `now_ns`. Every id must be distinct, and live in the model unless an
  // erase of it was acknowledged after the query was sent or an insert in
  // flight may have returned it (settled by Resolve).
  void SampleReply(const QueryParams& q, const std::vector<dpss::ItemId>& ids,
                   uint64_t sent_ns, uint64_t now_ns);
  // After the timed phase: an id returned while unmodelled counts as live
  // only if an insert that returned it was sent before the reply.
  void Resolve();
  // The read-back after the restart: every live item's weight, then every
  // id whose erase was acknowledged, which must be absent (want 0).
  void ReadBack(std::vector<dpss::server::Request>* reads,
                std::vector<uint64_t>* want);
  static bool ReadBackMatches(uint64_t want,
                              const dpss::server::Response& resp);
  // The STATS document's sampler size and total weight against the model.
  bool StatsMatch(const std::string& stats) const;

 private:
  std::vector<dpss::ItemId> sorted_;
};

// What the traced run reads from the server workload: STATS documents
// taken just before and just after the timed phase.
struct ServerTrace {
  std::string stats_before;
  std::string stats_after;
  double phase_s = 0;
  double client_sample_mean_us = 0;
};
RunResult RunServerDurable(const RunConfig& cfg, ServerTrace* trace = nullptr);

// The number after `"key": ` inside the `"section": {` object of a STATS
// document; -1 when absent.
double StatsNumber(const std::string& json, const std::string& section,
                   const std::string& key);

// Removes a directory tree when it goes out of scope.
struct TempDir {
  std::string path;
  explicit TempDir(std::string p) : path(std::move(p)) {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
    std::filesystem::create_directories(path, ec);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

// Resident set size of this process in bytes.
uint64_t SelfRssBytes();

}  // namespace dpssbench

#endif  // DPSSBENCH_WORKLOADS_H_

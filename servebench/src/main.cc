// servebench: closed-loop serving benchmark for cspdb (README.md).
//
//   servebench --workload hot_repeats|cold_mixed|wire_renamed --seed N
//              --seconds S --trace 0|1 [--trace-out FILE]
//              [--commit C] [--source-digest D]
//   servebench --selftest
//
// Untraced runs print the end-to-end metrics; traced runs spend half the
// time untraced and half with spans recorded around direct calls into
// each layer, and print the per-layer metrics plus the tracing overhead.
// The last line of standard output is the result object.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench.h"
#include "csp/solver.h"
#include "datalog/eval.h"
#include "db/containment.h"
#include "exec/thread_pool.h"
#include "gen/generators.h"
#include "net/client.h"
#include "net/server.h"
#include "net/shard.h"
#include "net/wire.h"
#include "service/fingerprint.h"
#include "service/server.h"

namespace servebench {
namespace {

namespace svc = cspdb::service;
using svc::Response;
using svc::StatusCode;

// Closed-loop client threads per workload (well under nproc = 4 with the
// service's own pool threads).
constexpr int kClients = 2;

// Tolerance of the traced fit check on cold_mixed misses: the staged
// fingerprint + engine time of a request must stay within
// kFitFactor * latency_ns + kFitSlackNs, for at least kFitShare of misses.
// The staged calls run on a client thread, the service's on a pool
// worker; on the 4-vCPU development machine the same Datalog fixpoint
// took up to 1.6x longer on one than on the other, hence the factor.
constexpr double kFitFactor = 2.0;
constexpr int64_t kFitSlackNs = 100'000;
constexpr double kFitShare = 0.99;

// Spans written to the trace file at most (all are kept for the metrics).
constexpr std::size_t kMaxWrittenSpans = 200'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  return args->selftest || args->seconds >= 1;
}

// --- measurement primitives -------------------------------------------------

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

// Time the host took from this machine's vCPUs ("steal" in /proc/stat),
// in seconds summed over CPUs; -1 where /proc/stat is unavailable. Noted
// per phase, since it explains runs that are slow for outside reasons.
double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  int64_t fields[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return -1;
  for (int64_t& f : fields) {
    if (!(in >> f)) return -1;
  }
  return static_cast<double>(fields[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// The process's resident set now (/proc/self/statm), in MB.
double RssMb() {
  std::ifstream in("/proc/self/statm");
  int64_t size = 0, resident = 0;
  if (!(in >> size >> resident)) return -1;
  return static_cast<double>(resident * sysconf(_SC_PAGESIZE)) / (1 << 20);
}

// Gives freed heap memory back to the system. Called after set-up and
// after each batch's checks, so that the resident set measured at the end
// of a batch shows what the program held in it, not pages that set-up
// (GenerateRequestStream materialises every request of its stream: about
// 20 MB for 1024 requests) or the benchmark's own checks left behind.
void ReleaseFreedMemory() { malloc_trim(0); }

// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<int64_t> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<int64_t>(values.size());
  int64_t rank = static_cast<int64_t>(q * static_cast<double>(n));
  if (static_cast<double>(rank) < q * static_cast<double>(n)) ++rank;
  rank = std::max<int64_t>(1, std::min(rank, n)) - 1;
  return static_cast<double>(values[static_cast<std::size_t>(rank)]);
}

double P50Us(const std::vector<int64_t>& ns) { return Quantile(ns, 0.5) / 1e3; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// --- spans ------------------------------------------------------------------

enum SpanName : uint8_t {
  kSpanRequest = 0,
  kSpanFingerprintCsp,
  kSpanFingerprintCq,
  kSpanFingerprintDatalog,
  kSpanFingerprintContainment,
  kSpanCacheLookup,
  kSpanCspSolve,
  kSpanDbEval,
  kSpanContainmentCheck,
  kSpanDatalogEval,
  kSpanWireEncodeRequest,
  kSpanWireDecodeRequest,
  kSpanWireEncodeResponse,
  kNumSpanNames,
};

constexpr const char* kSpanNames[kNumSpanNames] = {
    "request",          "fingerprint.csp",      "fingerprint.cq",
    "fingerprint.datalog", "fingerprint.containment", "result_cache.lookup",
    "csp.solve",        "db.eval",              "containment.check",
    "datalog.eval",     "wire.encode_request",  "wire.decode_request",
    "wire.encode_response",
};

// One timed interval. Staged layer spans name the request span that
// caused them through `request` (all spans of a request share it).
struct Span {
  uint8_t name = 0;
  uint8_t client = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t arg = 0;  // nodes / rows / facts / bytes, per span name
};

// --- batches ----------------------------------------------------------------
//
// A phase runs in batches of a fixed number of requests. Each batch's
// requests are drawn before it starts and its answers are checked after
// it ends, both outside the timing; only the closed loop itself is
// timed. The benchmark's own buffers are therefore the same size however
// fast the program is, and client-side work (generating and checking
// requests) stays out of throughput, latency and CPU per request.

// One request of a batch and what came back.
struct Slot {
  const Item* item = nullptr;    // pooled workloads: the request sent
  Family family = Family::kPoolCsp;
  int index = 0;  // the item's index in its pool, or cold_mixed's request number
  std::optional<ServiceRequest> outgoing;  // cold_mixed: the request Submit takes
  uint64_t id = 0;               // unique within the phase (trace spans)
  int client = 0;                // the client thread that sent it
  int64_t start_ns = 0;
  int64_t rtt_ns = 0;
  std::optional<Response> response;  // nullopt: the call itself failed

  bool ok() const {
    return response.has_value() && response->status == StatusCode::kOk;
  }
};

// Everything one client thread observes in one phase.
struct ClientLog {
  int64_t completed = 0;
  int64_t failed = 0;
  std::string error;  // first broken total seen while sending, if any
  std::array<int64_t, kNumFamilies> family_rtt_ns{};
  std::array<int64_t, kNumFamilies> family_count{};
  // Response-reported figures, kept in warm-up and traced phases only.
  bool keep_responses = false;
  std::vector<int64_t> hit_latency_ns, miss_latency_ns, queue_wait_ns,
      transport_ns;
  // Traced phase only.
  std::vector<Span> spans;
  int64_t staged_lookups = 0, staged_hits = 0, inexact = 0;
  int64_t fit_checked = 0, fit_ok = 0;

  void Fail(const std::string& why) {
    if (error.empty()) error = why;
  }
  void Record(const Slot& slot) {
    const auto family = static_cast<int>(slot.family);
    ++completed;
    family_rtt_ns[family] += slot.rtt_ns;
    ++family_count[family];
    if (!keep_responses) return;
    if (slot.response->cache_hit) {
      hit_latency_ns.push_back(slot.response->latency_ns);
    } else if (!slot.response->coalesced) {
      miss_latency_ns.push_back(slot.response->latency_ns);
    }
  }
};

// Timed figures of one batch.
struct BatchStat {
  double rps = 0;
  double p50_us = 0;
  double cpu_us_per_request = 0;
  double steal_s = 0;  // host steal (all vCPUs) during the batch's timed loop
  int requests = 0;
  // The batch's slowest round trips, in us (TailKeep of them), from which
  // the p99 over several batches is taken without keeping every round
  // trip of the phase (which would make peak_rss_mb grow with throughput).
  std::vector<float> tail_us;
};

// Round trips a batch of `batch_size` keeps for the p99: 10% of it, ten
// times its expected share of a pooled p99's tail, plus a margin for
// small batches. PooledP99Us reports when that was not enough.
int TailKeep(int batch_size) { return batch_size / 10 + 16; }

struct Phase {
  std::vector<ClientLog> logs;
  std::vector<BatchStat> batches;
  double wall_s = 0;      // summed over the batches' timed loops
  int64_t draw_ns = 0;    // spent drawing requests (outside the timing)
  int64_t check_ns = 0;   // spent checking answers (set-up excludes it)
  double steal_s = 0;     // host steal over the phase
  double peak_rss_mb = 0; // largest resident set at the end of a batch
  std::string error;      // first wrong answer, if any

  int64_t completed() const { return Sum(&ClientLog::completed); }
  int64_t failed() const { return Sum(&ClientLog::failed); }
  double throughput() const {
    return wall_s > 0 ? static_cast<double>(completed()) / wall_s : 0.0;
  }
  std::string first_error() const {
    if (!error.empty()) return error;
    for (const ClientLog& log : logs) {
      if (!log.error.empty()) return log.error;
    }
    return "";
  }
  std::vector<int64_t> Gather(std::vector<int64_t> ClientLog::*field) const {
    std::vector<int64_t> all;
    for (const ClientLog& log : logs) {
      const std::vector<int64_t>& part = log.*field;
      all.insert(all.end(), part.begin(), part.end());
    }
    return all;
  }
  int64_t Sum(int64_t ClientLog::*field) const {
    int64_t n = 0;
    for (const ClientLog& log : logs) n += log.*field;
    return n;
  }
};

enum class Mode {
  kWarmUp,    // untimed figures; responses kept for the per-layer metrics
  kUntraced,  // the end-to-end metrics
  kTraced,    // staged layer calls and spans
};

// Threads that check a batch's answers while the program is idle.
constexpr int kCheckThreads = 4;

// Runs batches of `batch_size` requests until their timed loops add up
// to `seconds`, or `max_batches` batches ran. Before a batch,
// `draw(&slots)` sets every slot's item (untimed). In the batch kClients
// threads take the slots in order, each sending its next request when
// the previous one is answered: `send(c, &slot, &log)` makes the call
// and fills `response` and `rtt_ns`. After it `check(slot)` returns ""
// or what is wrong with a slot's answer, on kCheckThreads threads
// (untimed).
template <typename Draw, typename Send, typename Check>
Phase RunPhase(Mode mode, double seconds, int max_batches, int batch_size,
               Draw draw, Send send, Check check) {
  Phase phase;
  phase.logs.resize(kClients);
  for (ClientLog& log : phase.logs) log.keep_responses = mode != Mode::kUntraced;
  std::vector<Slot> slots(batch_size);
  std::vector<int64_t> rtt(batch_size);
  uint64_t next_id = 0;
  const double steal0 = StealSeconds();
  const auto budget_ns = static_cast<int64_t>(seconds * 1e9);
  int64_t timed_ns = 0;
  for (int b = 0; b < max_batches && timed_ns < budget_ns; ++b) {
    const int64_t d0 = NowNs();
    draw(&slots);
    phase.draw_ns += NowNs() - d0;
    for (Slot& slot : slots) {
      slot.id = ++next_id;
      slot.response.reset();
    }
    std::atomic<int> next{0};
    const double cpu0 = CpuSeconds();
    const double batch_steal0 = StealSeconds();
    const int64_t t0 = NowNs();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        ClientLog* log = &phase.logs[c];
        for (int i = next.fetch_add(1); i < batch_size; i = next.fetch_add(1)) {
          Slot& slot = slots[i];
          slot.client = c;
          send(c, &slot, log);
          if (slot.ok()) {
            log->Record(slot);
          } else {
            ++log->failed;
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const int64_t batch_ns = NowNs() - t0;
    const double cpu_s = CpuSeconds() - cpu0;
    const double batch_steal_s = StealSeconds() - batch_steal0;
    phase.peak_rss_mb = std::max(phase.peak_rss_mb, RssMb());
    timed_ns += batch_ns;
    for (int i = 0; i < batch_size; ++i) rtt[i] = slots[i].rtt_ns;
    BatchStat stat{batch_size * 1e9 / static_cast<double>(batch_ns),
                   Quantile(rtt, 0.50) / 1e3, cpu_s * 1e6 / batch_size,
                   batch_steal_s, batch_size, {}};
    const int keep = std::min(batch_size, TailKeep(batch_size));
    std::nth_element(rtt.begin(), rtt.begin() + keep, rtt.end(), std::greater<>());
    for (int i = 0; i < keep; ++i) {
      stat.tail_us.push_back(static_cast<float>(static_cast<double>(rtt[i]) / 1e3));
    }
    phase.batches.push_back(std::move(stat));

    const int64_t c0 = NowNs();
    std::atomic<int> next_check{0};
    std::vector<std::string> errors(kCheckThreads);
    std::vector<std::thread> checkers;
    for (int t = 0; t < kCheckThreads; ++t) {
      checkers.emplace_back([&, t] {
        for (int i = next_check.fetch_add(1); i < batch_size;
             i = next_check.fetch_add(1)) {
          if (!slots[i].ok()) continue;  // counted as failed
          std::string why = check(slots[i]);
          if (!why.empty() && errors[t].empty()) errors[t] = std::move(why);
        }
      });
    }
    for (std::thread& t : checkers) t.join();
    for (const std::string& e : errors) {
      if (!e.empty() && phase.error.empty()) phase.error = e;
    }
    ReleaseFreedMemory();
    phase.check_ns += NowNs() - c0;
  }
  phase.wall_s = static_cast<double>(timed_ns) / 1e9;
  phase.steal_s = StealSeconds() - steal0;
  return phase;
}

// Wall time of each set-up step, noted on standard error.
class SetUpSteps {
 public:
  explicit SetUpSteps(int64_t start_ns) : last_ns_(start_ns) {}
  void Mark(const char* step) {
    const int64_t now = NowNs();
    char part[96];
    std::snprintf(part, sizeof(part), "%s%s %.3f s", text_.empty() ? "" : ", ",
                  step, static_cast<double>(now - last_ns_) / 1e9);
    text_ += part;
    last_ns_ = now;
  }
  std::string Note() const { return "set-up steps: " + text_; }

 private:
  int64_t last_ns_;
  std::string text_;
};

// Runs until the time budget ends (timed phases are bounded by time).
constexpr int kUnbounded = 1 << 30;

// A span of the request `slot` itself.
void RequestSpan(const Slot& slot, ClientLog* log) {
  log->spans.push_back({kSpanRequest, static_cast<uint8_t>(slot.client), slot.id,
                        slot.start_ns, slot.start_ns + slot.rtt_ns,
                        static_cast<int64_t>(slot.family)});
}

// --- staged layer calls (traced mode) ----------------------------------------

struct StageTimes {
  int64_t fingerprint_ns = 0;
  int64_t engine_ns = 0;
};

// Calls each layer's public function on `item` directly and records one
// span per call: the fingerprint, a lookup of the service's cache key
// `key` in `cache`, the engine the service would run, and the wire codec
// for the request and `response`.
StageTimes StageLayers(const Item& item, const Response& response,
                       svc::ResultCache* cache, const svc::Fingerprint& key,
                       uint64_t request_id, int client, ClientLog* log) {
  StageTimes times;
  auto span = [&](SpanName name, int64_t start, int64_t end, int64_t arg) {
    log->spans.push_back({static_cast<uint8_t>(name),
                          static_cast<uint8_t>(client), request_id, start, end,
                          arg});
    return end - start;
  };
  bool exact = true;
  switch (svc::KindOf(item.request)) {
    case svc::RequestKind::kSolveCsp: {
      const auto& r = std::get<svc::SolveCspRequest>(item.request);
      int64_t t0 = NowNs();
      const svc::CanonicalCsp canon = svc::CanonicalizeCsp(r.instance);
      times.fingerprint_ns = span(kSpanFingerprintCsp, t0, NowNs(), 0);
      exact = canon.fingerprint.exact;
      t0 = NowNs();
      cspdb::BacktrackingSolver solver(canon.canonical);
      solver.Solve();
      times.engine_ns = span(kSpanCspSolve, t0, NowNs(), solver.stats().nodes);
      break;
    }
    case svc::RequestKind::kEvalCq: {
      const auto& r = std::get<svc::EvalCqRequest>(item.request);
      int64_t t0 = NowNs();
      const svc::Fingerprint fp = svc::CombineFingerprints(
          1, {svc::FingerprintQuery(r.query),
              svc::FingerprintStructure(r.database)});
      times.fingerprint_ns = span(kSpanFingerprintCq, t0, NowNs(), 0);
      exact = fp.exact;
      t0 = NowNs();
      const cspdb::DbRelation rows = cspdb::Evaluate(r.query, r.database);
      times.engine_ns = span(kSpanDbEval, t0, NowNs(),
                             static_cast<int64_t>(rows.size()));
      break;
    }
    case svc::RequestKind::kDatalogFixpoint: {
      const auto& r = std::get<svc::DatalogFixpointRequest>(item.request);
      int64_t t0 = NowNs();
      const svc::Fingerprint fp = svc::CombineFingerprints(
          2, {svc::FingerprintProgram(r.program),
              svc::FingerprintStructure(r.edb)});
      times.fingerprint_ns = span(kSpanFingerprintDatalog, t0, NowNs(), 0);
      exact = fp.exact;
      t0 = NowNs();
      const cspdb::DatalogResult result =
          cspdb::EvaluateSemiNaive(r.program, r.edb);
      int64_t facts = 0;
      for (const auto& [predicate, set] : result.idb) {
        facts += static_cast<int64_t>(set.size());
      }
      times.engine_ns = span(kSpanDatalogEval, t0, NowNs(), facts);
      break;
    }
    case svc::RequestKind::kCheckContainment: {
      const auto& r = std::get<svc::CheckContainmentRequest>(item.request);
      int64_t t0 = NowNs();
      const svc::Fingerprint fp = svc::CombineFingerprints(
          3, {svc::FingerprintQuery(r.q1), svc::FingerprintQuery(r.q2)});
      times.fingerprint_ns = span(kSpanFingerprintContainment, t0, NowNs(), 0);
      exact = fp.exact;
      t0 = NowNs();
      const bool contained = cspdb::IsContainedIn(r.q1, r.q2);
      times.engine_ns =
          span(kSpanContainmentCheck, t0, NowNs(), contained ? 1 : 0);
      break;
    }
  }
  if (!exact) ++log->inexact;

  int64_t t0 = NowNs();
  const bool hit = cache->Lookup(key, svc::KindOf(item.request), t0) != nullptr;
  span(kSpanCacheLookup, t0, NowNs(), hit ? 1 : 0);
  ++log->staged_lookups;
  if (hit) ++log->staged_hits;

  std::vector<uint8_t> payload;
  t0 = NowNs();
  cspdb::net::EncodeRequestPayload(item.request, &payload);
  span(kSpanWireEncodeRequest, t0, NowNs(),
       static_cast<int64_t>(payload.size()));
  std::string error;
  t0 = NowNs();
  const bool decoded = cspdb::net::DecodeRequestPayload(
                           payload.data(), payload.size(), &error)
                           .has_value();
  span(kSpanWireDecodeRequest, t0, NowNs(),
       static_cast<int64_t>(payload.size()));
  if (!decoded) log->Fail("wire: request payload does not decode: " + error);
  std::vector<uint8_t> encoded;
  t0 = NowNs();
  cspdb::net::EncodeResponsePayload(response, &encoded);
  span(kSpanWireEncodeResponse, t0, NowNs(),
       static_cast<int64_t>(encoded.size()));
  return times;
}

// The service's own cache key of `request`, read through Probe on a
// service whose cache is empty (Probe reports the key and counts nothing
// on a miss).
svc::Fingerprint ServiceKey(svc::CspdbService* empty_service,
                            const ServiceRequest& request) {
  svc::Fingerprint key;
  empty_service->Probe(request, &key);
  return key;
}

// --- result -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::string error;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable summary lines (stderr)

  void Fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

// The end-to-end figures are taken over this share of a phase's batches:
// those with the least host steal. On a shared host the hypervisor stops
// the benchmark's vCPUs for whole scheduler slices, and a batch's p99
// follows the steal during it (correlation 0.8-0.9 per batch on the
// development machine); that steal varies from second to second and from
// run to run, so the quietest batches of a run repeat across runs while
// a median over all of them does not.
constexpr double kQuietShare = 0.25;

// The quietest kQuietShare of `batches` by host steal. Ties (steal is
// counted in 10 ms ticks, and a quiet host gives many zeros) go to every
// fourth batch first, so the chosen batches spread over the whole phase.
std::vector<const BatchStat*> QuietBatches(const std::vector<BatchStat>& batches) {
  std::vector<std::size_t> order(batches.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::make_tuple(batches[a].steal_s, a % 4, a) <
           std::make_tuple(batches[b].steal_s, b % 4, b);
  });
  const auto keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(kQuietShare * static_cast<double>(order.size())));
  std::vector<const BatchStat*> quiet;
  for (std::size_t i = 0; i < keep && i < order.size(); ++i) {
    quiet.push_back(&batches[order[i]]);
  }
  return quiet;
}

// Nearest-rank p99 of all round trips of `batches`, from their kept
// tails. `*exact` is false if some batch may have had more round trips
// above it than it kept; the figure can then be low.
double PooledP99Us(const std::vector<const BatchStat*>& batches, bool* exact) {
  int64_t n = 0;
  std::vector<float> tails;
  for (const BatchStat* b : batches) {
    n += b->requests;
    tails.insert(tails.end(), b->tail_us.begin(), b->tail_us.end());
  }
  if (tails.empty()) return 0.0;
  // The p99 is the `above`-th largest round trip.
  const auto rank = static_cast<int64_t>(std::ceil(0.99 * static_cast<double>(n)));
  const auto above = std::min(static_cast<std::size_t>(n - rank + 1), tails.size());
  std::nth_element(tails.begin(), tails.begin() + static_cast<std::ptrdiff_t>(above - 1),
                   tails.end(), std::greater<>());
  const float p99 = tails[above - 1];
  *exact = true;
  for (const BatchStat* b : batches) {
    const bool kept_all = b->tail_us.size() == static_cast<std::size_t>(b->requests);
    if (!kept_all && *std::min_element(b->tail_us.begin(), b->tail_us.end()) > p99) {
      *exact = false;
    }
  }
  return p99;
}

// End-to-end metrics of an untraced phase: per-batch throughput, p50 and
// CPU per request, each the median over the phase's quietest batches
// (QuietBatches), and the p99 over all round trips of those batches.
// Every batch's answers are checked and counted; the choice only decides
// which timings are reported.
void AddEndToEnd(const Phase& phase, double setup_s, Result* result) {
  const std::vector<const BatchStat*> quiet = QuietBatches(phase.batches);
  std::vector<double> rps, p50, cpu, steal;
  int64_t quiet_requests = 0;
  for (const BatchStat* b : quiet) {
    rps.push_back(b->rps);
    p50.push_back(b->p50_us);
    cpu.push_back(b->cpu_us_per_request);
    steal.push_back(b->steal_s);
    quiet_requests += b->requests;
  }
  std::vector<const BatchStat*> all;
  std::vector<double> all_rps, all_steal;
  for (const BatchStat& b : phase.batches) {
    all.push_back(&b);
    all_rps.push_back(b.rps);
    all_steal.push_back(b.steal_s);
  }
  bool exact = true, all_exact = true;
  const double p99 = PooledP99Us(quiet, &exact);
  const double all_p99 = PooledP99Us(all, &all_exact);
  if (!exact) {
    result->notes.push_back("WARNING: latency_p99_us may read low: a reported "
                            "batch kept fewer slow round trips than it had above "
                            "the p99 (raise TailKeep)");
  }
  const auto [lo, hi] = std::minmax_element(all_rps.begin(), all_rps.end());
  result->notes.push_back(
      std::to_string(all_rps.size()) + " batches of " +
      std::to_string(phase.completed() / std::max<int64_t>(1, phase.batches.size())) +
      " requests; per-batch throughput (1/s) min " +
      std::to_string(static_cast<int64_t>(*lo)) + ", median " +
      std::to_string(static_cast<int64_t>(Median(all_rps))) + ", max " +
      std::to_string(static_cast<int64_t>(*hi)));
  result->notes.push_back(
      "reported: the " + std::to_string(quiet.size()) + " batches (" +
      std::to_string(quiet_requests) + " requests) with the least host steal, "
      "median steal " + std::to_string(Median(steal)) + " CPU-s a batch there, " +
      std::to_string(Median(all_steal)) + " over all batches; p99 " +
      std::to_string(p99) + " us there, " +
      (all_exact ? std::to_string(all_p99) + " us" : std::string("not kept")) +
      " over all batches");
  result->notes.push_back(
      "outside the timed loops: drawing requests " +
      std::to_string(static_cast<double>(phase.draw_ns) / 1e9) +
      " s, checking answers " +
      std::to_string(static_cast<double>(phase.check_ns) / 1e9) +
      " s; timed loops " + std::to_string(phase.wall_s) + " s");
  result->notes.push_back("host steal during the timed phase: " +
                          std::to_string(phase.steal_s) + " CPU-s");
  result->metrics.push_back({"throughput_rps", Median(rps), "1/s"});
  result->metrics.push_back({"latency_p50_us", Median(p50), "us"});
  result->metrics.push_back({"latency_p99_us", p99, "us"});
  result->metrics.push_back({"cpu_us_per_request", Median(cpu), "us"});
  result->metrics.push_back({"setup_s", setup_s, "s"});
  result->metrics.push_back({"peak_rss_mb", phase.peak_rss_mb, "MB"});
}

// Service-side counters of one phase, as deltas.
struct Counters {
  svc::ServiceStats service;
  svc::CacheStats cache;
  cspdb::net::RouterStats router;
};

Counters Delta(const Counters& a, const Counters& b) {
  Counters d;
  d.service.requests = b.service.requests - a.service.requests;
  d.service.cache_hits = b.service.cache_hits - a.service.cache_hits;
  d.service.coalesced = b.service.coalesced - a.service.coalesced;
  d.service.engine_invocations =
      b.service.engine_invocations - a.service.engine_invocations;
  d.cache.hits = b.cache.hits - a.cache.hits;
  d.cache.misses = b.cache.misses - a.cache.misses;
  d.cache.evictions = b.cache.evictions - a.cache.evictions;
  d.cache.insertions = b.cache.insertions - a.cache.insertions;
  d.cache.bytes = b.cache.bytes;
  d.router.local_hits = b.router.local_hits - a.router.local_hits;
  d.router.remote_hits = b.router.remote_hits - a.router.remote_hits;
  d.router.remote_compute = b.router.remote_compute - a.router.remote_compute;
  d.router.local_compute = b.router.local_compute - a.router.local_compute;
  d.router.peer_failures = b.router.peer_failures - a.router.peer_failures;
  return d;
}

Counters Add(const Counters& a, const Counters& b) {
  Counters s = a;
  s.service.requests += b.service.requests;
  s.service.cache_hits += b.service.cache_hits;
  s.service.coalesced += b.service.coalesced;
  s.service.engine_invocations += b.service.engine_invocations;
  s.cache.hits += b.cache.hits;
  s.cache.misses += b.cache.misses;
  s.cache.evictions += b.cache.evictions;
  s.cache.insertions += b.cache.insertions;
  s.cache.bytes += b.cache.bytes;
  s.router.local_hits += b.router.local_hits;
  s.router.remote_hits += b.router.remote_hits;
  s.router.remote_compute += b.router.remote_compute;
  s.router.local_compute += b.router.local_compute;
  s.router.peer_failures += b.router.peer_failures;
  return s;
}

Counters Snapshot(svc::CspdbService& service,
                  const cspdb::net::ShardRouter* router = nullptr) {
  Counters c;
  c.service = service.stats();
  c.cache = service.cache().stats();
  if (router != nullptr) c.router = router->stats();
  return c;
}

// Per-layer metrics of a traced phase (`untraced` gives the overhead
// base; `all` supplies the response latencies of every phase, warm-up
// included, and `more_misses` service latencies of misses outside them).
void AddPerLayer(const Phase& untraced, const Phase& traced,
                 const std::vector<const Phase*>& all,
                 const std::vector<int64_t>& more_misses, const Counters& delta,
                 Result* result) {
  std::array<std::vector<int64_t>, kNumSpanNames> durations;
  std::array<std::vector<int64_t>, kNumSpanNames> args;
  for (const ClientLog& log : traced.logs) {
    for (const Span& s : log.spans) {
      durations[s.name].push_back(s.end_ns - s.start_ns);
      args[s.name].push_back(s.arg);
    }
  }
  auto p50_us = [&](SpanName name) { return P50Us(durations[name]); };
  auto p50_arg = [&](SpanName name) { return Quantile(args[name], 0.5); };
  std::vector<int64_t> hits, misses = more_misses;
  for (const Phase* phase : all) {
    const std::vector<int64_t> h = phase->Gather(&ClientLog::hit_latency_ns);
    const std::vector<int64_t> m = phase->Gather(&ClientLog::miss_latency_ns);
    hits.insert(hits.end(), h.begin(), h.end());
    misses.insert(misses.end(), m.begin(), m.end());
  }
  const int64_t staged_lookups = traced.Sum(&ClientLog::staged_lookups);
  const int64_t staged_hits = traced.Sum(&ClientLog::staged_hits);
  const int64_t service_hits = delta.cache.hits - staged_hits;
  const int64_t service_lookups =
      delta.cache.hits + delta.cache.misses - staged_lookups;
  const int64_t fit_checked = traced.Sum(&ClientLog::fit_checked);
  const int64_t fit_ok = traced.Sum(&ClientLog::fit_ok);
  const double untraced_rps = untraced.throughput();
  const double traced_rps = traced.throughput();
  auto count = [](int64_t v) { return static_cast<double>(v); };

  std::vector<Metric>& m = result->metrics;
  m.push_back({"fingerprint.csp_us", p50_us(kSpanFingerprintCsp), "us"});
  m.push_back({"fingerprint.cq_us", p50_us(kSpanFingerprintCq), "us"});
  m.push_back({"fingerprint.datalog_us", p50_us(kSpanFingerprintDatalog), "us"});
  m.push_back({"fingerprint.containment_us",
               p50_us(kSpanFingerprintContainment), "us"});
  m.push_back({"fingerprint.inexact", count(traced.Sum(&ClientLog::inexact)),
               "count"});
  m.push_back({"service.hit_us", P50Us(hits), "us"});
  m.push_back({"service.miss_us", P50Us(misses), "us"});
  m.push_back({"service.engine_runs", count(delta.service.engine_invocations),
               "count"});
  m.push_back({"result_cache.lookup_us", p50_us(kSpanCacheLookup), "us"});
  m.push_back({"result_cache.hit_ratio",
               service_lookups > 0 ? count(service_hits) / count(service_lookups)
                                   : 0.0,
               "ratio"});
  m.push_back({"result_cache.evictions", count(delta.cache.evictions), "count"});
  m.push_back({"result_cache.bytes", count(static_cast<int64_t>(delta.cache.bytes)),
               "bytes"});
  m.push_back({"single_flight.coalesced", count(delta.service.coalesced),
               "count"});
  m.push_back({"exec.queue_wait_us",
               P50Us(traced.Gather(&ClientLog::queue_wait_ns)), "us"});
  m.push_back({"csp.solve_us", p50_us(kSpanCspSolve), "us"});
  m.push_back({"csp.nodes", p50_arg(kSpanCspSolve), "count"});
  m.push_back({"db.eval_us", p50_us(kSpanDbEval), "us"});
  m.push_back({"db.rows", p50_arg(kSpanDbEval), "count"});
  m.push_back({"containment.check_us", p50_us(kSpanContainmentCheck), "us"});
  m.push_back({"datalog.eval_us", p50_us(kSpanDatalogEval), "us"});
  m.push_back({"datalog.facts", p50_arg(kSpanDatalogEval), "count"});
  m.push_back({"wire.decode_request_us", p50_us(kSpanWireDecodeRequest), "us"});
  m.push_back({"wire.encode_response_us", p50_us(kSpanWireEncodeResponse), "us"});
  m.push_back({"wire.request_bytes", p50_arg(kSpanWireEncodeRequest), "bytes"});
  m.push_back({"net.transport_us",
               P50Us(traced.Gather(&ClientLog::transport_ns)), "us"});
  m.push_back({"router.local_hits", count(delta.router.local_hits), "count"});
  m.push_back({"router.remote_hits", count(delta.router.remote_hits), "count"});
  m.push_back({"router.peer_failures", count(delta.router.peer_failures),
               "count"});
  m.push_back({"trace.overhead_pct",
               traced_rps > 0 ? (untraced_rps / traced_rps - 1.0) * 100.0 : 0.0,
               "pct"});
  m.push_back({"trace.stage_fit_share",
               fit_checked > 0 ? count(fit_ok) / count(fit_checked) : 1.0,
               "ratio"});
  if (fit_checked > 0 && count(fit_ok) < kFitShare * count(fit_checked)) {
    result->Fail("traced: staged fingerprint + engine time exceeded the "
                 "service latency on " +
                 std::to_string(fit_checked - fit_ok) + " of " +
                 std::to_string(fit_checked) + " misses");
  }
}

void WriteTrace(const std::string& path, const Phase& traced) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "servebench: cannot write trace %s\n", path.c_str());
    return;
  }
  int64_t origin = INT64_MAX;
  for (const ClientLog& log : traced.logs) {
    for (const Span& s : log.spans) origin = std::min(origin, s.start_ns);
  }
  out << "{\"traceEvents\":[\n";
  std::size_t written = 0;
  for (const ClientLog& log : traced.logs) {
    for (const Span& s : log.spans) {
      if (written == kMaxWrittenSpans) break;
      char line[320];
      std::snprintf(
          line, sizeof(line),
          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%" PRIu64
          ",\"parent\":\"%s\",\"arg\":%" PRId64 "}}",
          written == 0 ? "" : ",\n", kSpanNames[s.name], s.client + 1,
          static_cast<double>(s.start_ns - origin) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.request,
          s.name == kSpanRequest ? "" : "request", s.arg);
      out << line;
      ++written;
    }
  }
  out << "\n]}\n";
}

void AddFamilyNotes(const Phase& phase, Result* result) {
  std::array<int64_t, kNumFamilies> rtt{};
  std::array<int64_t, kNumFamilies> n{};
  int64_t total = 0;
  for (const ClientLog& log : phase.logs) {
    for (int f = 0; f < kNumFamilies; ++f) {
      rtt[f] += log.family_rtt_ns[f];
      n[f] += log.family_count[f];
      total += log.family_rtt_ns[f];
    }
  }
  for (int f = 0; f < kNumFamilies; ++f) {
    if (n[f] == 0) continue;
    char line[200];
    std::snprintf(line, sizeof(line),
                  "family %-16s requests %8" PRId64
                  "  mean latency %9.1f us  share of client time %5.1f%%",
                  FamilyName(static_cast<Family>(f)), n[f],
                  static_cast<double>(rtt[f]) / static_cast<double>(n[f]) / 1e3,
                  total > 0 ? 100.0 * static_cast<double>(rtt[f]) /
                                  static_cast<double>(total)
                            : 0.0);
    result->notes.push_back(line);
  }
}

// Splits the run into an untraced phase (the end-to-end metrics) or, in
// traced mode, an untraced and a traced half.
struct PhasePlan {
  double untraced_s;
  double traced_s;
};

PhasePlan Plan(const Args& args) {
  if (!args.trace) return {static_cast<double>(args.seconds), 0.0};
  return {args.seconds / 2.0, args.seconds / 2.0};
}

// Pool size of the pooled workloads: the one bench_service's replay and
// cspdb_serve's default use. Everything else (kind mix 0.4/0.3/0.2/0.1,
// Zipf exponent 1.1, instance sizes) is WorkloadOptions' default.
constexpr int kPoolSize = 12;

// The pooled workloads replay kTenants independent streams of the
// repository's generator at once, interleaved request by request. Each
// tenant has its own pools and Zipf head, so a run's make-up averages
// over kTenants draws instead of hanging on the few bases one seed puts
// at the head of the Zipf order.
constexpr int kTenants = 8;
constexpr int kTenantStreamLength = 512;

PooledStream TenantStreams(uint64_t seed) {
  PooledStream all;
  std::vector<std::vector<int>> streams;
  for (int t = 0; t < kTenants; ++t) {
    svc::WorkloadOptions options;
    options.seed = MixSeed(seed, t);
    options.num_requests = kTenantStreamLength;
    options.pool_size = kPoolSize;
    PooledStream one = PoolStream(options);
    const auto offset = static_cast<int>(all.pool.size());
    for (int& i : one.stream) i += offset;
    for (Item& item : one.pool) all.pool.push_back(std::move(item));
    streams.push_back(std::move(one.stream));
  }
  for (int i = 0; i < kTenantStreamLength; ++i) {
    for (const std::vector<int>& stream : streams) all.stream.push_back(stream[i]);
  }
  return all;
}

// ---------------------------------------------------------------------------
// hot_repeats: byte-identical Zipf repeats over pools already cached.
// ---------------------------------------------------------------------------

constexpr int kHotBatch = 4096;
constexpr int kHotWarmBatches = 4;

Result RunHotRepeats(const Args& args, int64_t process_start_ns) {
  Result result;
  SetUpSteps steps(process_start_ns);
  const PooledStream pooled = TenantStreams(MixSeed(args.seed, 101));
  const std::vector<Item>& pool = pooled.pool;
  steps.Mark("streams");

  cspdb::exec::ThreadPool workers(1);
  svc::ServiceOptions options;
  options.pool = &workers;
  svc::CspdbService service(options);

  // Fill pass: one miss per base, whose answers are checked (off the
  // set-up clock) and kept as each base's reference.
  std::vector<int64_t> fill_miss_ns;
  std::vector<uint64_t> reference(pool.size());
  std::vector<bool> sat(pool.size(), false);
  int64_t verify_ns = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Response r = service.Handle(pool[i].request);
    fill_miss_ns.push_back(r.latency_ns);
    const int64_t v0 = NowNs();
    std::string why;
    if (r.status != StatusCode::kOk) {
      result.Fail("hot_repeats: fill request not OK");
    } else if (!CheckAnswer(pool[i].family, pool[i].request, r.answer, &why)) {
      result.Fail("hot_repeats: " + why);
    }
    reference[i] = AnswerDigest(r.answer);
    if (const auto* csp = std::get_if<svc::CspAnswer>(&r.answer)) {
      sat[i] = csp->solution.has_value();
    }
    verify_ns += NowNs() - v0;
  }

  // A service with an empty cache answers Probe with the key and no side
  // effects; traced mode reads the keys it looks up through it.
  svc::CspdbService key_service(options);
  std::size_t cursor = 0;
  auto draw = [&](std::vector<Slot>* slots) {
    for (Slot& slot : *slots) {
      slot.index = pooled.stream[cursor++ % pooled.stream.size()];
      slot.item = &pool[slot.index];
      slot.family = slot.item->family;
    }
  };
  auto send = [&](bool traced) {
    return [&, traced](int c, Slot* slot, ClientLog* log) {
      slot->start_ns = NowNs();
      slot->response = service.Handle(slot->item->request);
      slot->rtt_ns = NowNs() - slot->start_ns;
      if (traced && slot->ok()) {
        RequestSpan(*slot, log);
        StageLayers(*slot->item, *slot->response, &service.cache(),
                    ServiceKey(&key_service, slot->item->request), slot->id, c,
                    log);
      }
    };
  };
  auto check = [&](const Slot& slot) -> std::string {
    const Response& r = *slot.response;
    if (!r.cache_hit) return "hot_repeats: a repeat missed the cache";
    if (AnswerDigest(r.answer) != reference[slot.index]) {
      return "hot_repeats: repeat answer differs from its checked first answer";
    }
    if (sat[slot.index] &&
        !CspSolutionSatisfies(
            std::get<svc::SolveCspRequest>(slot.item->request).instance,
            *std::get<svc::CspAnswer>(r.answer).solution)) {
      return "hot_repeats: CSP solution violates a constraint";
    }
    return "";
  };

  steps.Mark("fill (checks included)");
  const Phase warm = RunPhase(Mode::kWarmUp, 1e9, kHotWarmBatches, kHotBatch,
                              draw, send(false), check);
  steps.Mark("warm-up (checks included)");
  result.notes.push_back(steps.Note());
  if (!warm.first_error().empty()) result.Fail(warm.first_error());
  const double setup_s = static_cast<double>(NowNs() - process_start_ns -
                                             verify_ns - warm.check_ns) /
                         1e9;

  // Every timed request must be a hit: the service's hit count over a
  // phase equals the client's count of completed requests.
  auto check_hits = [&](const Phase& phase, const Counters& d) {
    if (d.service.cache_hits != phase.completed()) {
      result.Fail("hot_repeats: service cache hits (" +
                  std::to_string(d.service.cache_hits) +
                  ") differ from completed requests (" +
                  std::to_string(phase.completed()) + ")");
    }
    if (!phase.first_error().empty()) result.Fail(phase.first_error());
    result.attempted += phase.completed() + phase.failed();
    result.failed += phase.failed();
  };
  ReleaseFreedMemory();
  const PhasePlan plan = Plan(args);
  const Counters before = Snapshot(service);
  const Phase untraced = RunPhase(Mode::kUntraced, plan.untraced_s, kUnbounded,
                                  kHotBatch, draw, send(false), check);
  const Counters mid = Snapshot(service);
  check_hits(untraced, Delta(before, mid));
  AddFamilyNotes(untraced, &result);
  result.notes.push_back("distinct bases " + std::to_string(pool.size()));

  if (!args.trace) {
    AddEndToEnd(untraced, setup_s, &result);
    return result;
  }
  const Phase traced = RunPhase(Mode::kTraced, plan.traced_s, kUnbounded,
                                kHotBatch, draw, send(true), check);
  const Counters d2 = Delta(mid, Snapshot(service));
  check_hits(traced, d2);
  AddPerLayer(untraced, traced, {&warm, &untraced, &traced}, fill_miss_ns, d2,
              &result);
  WriteTrace(args.trace_out, traced);
  return result;
}

// ---------------------------------------------------------------------------
// cold_mixed: every request distinct, through Submit, all families mixed.
// ---------------------------------------------------------------------------

constexpr std::array<Family, 7> kColdCycle = {
    Family::kRandomCsp, Family::kPathCq,    Family::kTcDatalog,
    Family::kContainment, Family::kTreewidthCsp, Family::kStarCq,
    Family::kTwoColDatalog};
constexpr int kColdWorkers = 2;
constexpr std::size_t kColdCacheBytes = 1u << 20;
constexpr int kColdBatch = 7 * 32;
constexpr int kColdWarmBatches = 4;

// Request j of the run: a pure function of (seed, j), so a batch holds
// only the requests in flight and its answers are checked against
// regenerated copies; families cycle.
Item ColdItem(uint64_t seed, int64_t j) {
  cspdb::Rng rng(MixSeed(MixSeed(seed, 200), static_cast<uint64_t>(j)));
  return MakeItem(kColdCycle[j % kColdCycle.size()], &rng);
}

Result RunColdMixed(const Args& args, int64_t process_start_ns) {
  Result result;
  cspdb::exec::ThreadPool workers(kColdWorkers);
  svc::ServiceOptions options;
  options.pool = &workers;
  options.cache.max_bytes = kColdCacheBytes;
  svc::CspdbService service(options);
  svc::CspdbService key_service(options);

  int64_t next_j = 0;
  std::atomic<int64_t> answer_bytes{0};  // engine answer bytes produced
  auto draw = [&](std::vector<Slot>* slots) {
    for (Slot& slot : *slots) {
      slot.index = static_cast<int>(next_j++);
      Item item = ColdItem(args.seed, slot.index);
      slot.family = item.family;
      slot.outgoing = std::move(item.request);
    }
  };
  auto send = [&](bool traced) {
    return [&, traced](int c, Slot* slot, ClientLog* log) {
      slot->start_ns = NowNs();
      std::future<Response> future = service.Submit(std::move(*slot->outgoing));
      slot->response = future.get();
      slot->rtt_ns = NowNs() - slot->start_ns;
      if (!slot->ok()) return;
      const Response& r = *slot->response;
      answer_bytes.fetch_add(static_cast<int64_t>(svc::AnswerApproxBytes(r.answer)),
                             std::memory_order_relaxed);
      if (log->keep_responses) log->queue_wait_ns.push_back(r.queue_wait_ns);
      if (!traced) return;
      RequestSpan(*slot, log);
      const Item item = ColdItem(args.seed, slot->index);
      const StageTimes staged =
          StageLayers(item, r, &service.cache(),
                      ServiceKey(&key_service, item.request), slot->id, c, log);
      if (!r.cache_hit && !r.coalesced) {
        ++log->fit_checked;
        const double limit =
            kFitFactor * static_cast<double>(r.latency_ns) + kFitSlackNs;
        if (static_cast<double>(staged.fingerprint_ns + staged.engine_ns) <= limit) {
          ++log->fit_ok;
        }
      }
    };
  };
  auto check = [&](const Slot& slot) -> std::string {
    const Item item = ColdItem(args.seed, slot.index);
    std::string why;
    if (CheckAnswer(item.family, item.request, slot.response->answer, &why)) {
      return "";
    }
    return "cold_mixed: " + why;
  };

  SetUpSteps steps(process_start_ns);
  const Phase warm = RunPhase(Mode::kWarmUp, 1e9, kColdWarmBatches, kColdBatch,
                              draw, send(false), check);
  steps.Mark("service start and warm-up (checks included)");
  result.notes.push_back(steps.Note());
  if (!warm.first_error().empty()) result.Fail(warm.first_error());
  const double setup_s =
      static_cast<double>(NowNs() - process_start_ns - warm.check_ns) / 1e9;

  ReleaseFreedMemory();
  const PhasePlan plan = Plan(args);
  const Counters before = Snapshot(service);
  const Phase untraced = RunPhase(Mode::kUntraced, plan.untraced_s, kUnbounded,
                                  kColdBatch, draw, send(false), check);
  const Counters mid = Snapshot(service);
  std::optional<Phase> traced;
  if (args.trace) {
    traced = RunPhase(Mode::kTraced, plan.traced_s, kUnbounded, kColdBatch, draw,
                      send(true), check);
  }
  const Counters after = Snapshot(service);
  auto account = [&](const Phase& phase) {
    if (!phase.first_error().empty()) result.Fail(phase.first_error());
    result.attempted += phase.completed() + phase.failed();
    result.failed += phase.failed();
  };
  account(untraced);
  if (traced.has_value()) account(*traced);
  AddFamilyNotes(untraced, &result);
  result.notes.push_back(
      "answer bytes produced " + std::to_string(answer_bytes.load()) +
      " against a cache budget of " + std::to_string(kColdCacheBytes) +
      "; engine runs " +
      std::to_string(Delta(before, after).service.engine_invocations));

  if (!args.trace) {
    AddEndToEnd(untraced, setup_s, &result);
    return result;
  }
  AddPerLayer(untraced, *traced, {&warm, &untraced, &*traced}, {},
              Delta(mid, after), &result);
  WriteTrace(args.trace_out, *traced);
  return result;
}

// ---------------------------------------------------------------------------
// wire_renamed: two loopback nodes; isomorphic relabellings of cached bases.
// ---------------------------------------------------------------------------

constexpr int kWireVariants = 4;
constexpr int kWireBatch = 512;
constexpr int kWireWarmBatches = 4;
constexpr int kWireNodeWorkers = 2;
// Pinned listen ports: ring member ids are "host:port", so fixed ports
// give every run the same key ownership.
constexpr std::array<int, 2> kWirePorts = {39411, 39412};
constexpr int64_t kWireCallTimeoutMs = 10'000;

struct WireNode {
  explicit WireNode(int workers) : pool(workers) {
    svc::ServiceOptions options;
    options.pool = &pool;
    service = std::make_unique<svc::CspdbService>(options);
  }
  cspdb::exec::ThreadPool pool;
  std::unique_ptr<svc::CspdbService> service;
  std::unique_ptr<cspdb::net::ShardRouter> router;
  std::unique_ptr<cspdb::net::NetServer> server;
};

Result RunWireRenamed(const Args& args, int64_t process_start_ns) {
  Result result;
  SetUpSteps steps(process_start_ns);
  const PooledStream pooled = TenantStreams(MixSeed(args.seed, 303));
  const std::vector<Item>& bases = pooled.pool;
  cspdb::Rng rng(MixSeed(args.seed, 304));
  // variants[b * kWireVariants + v] relabels bases[b].
  std::vector<Item> variants;
  for (const Item& base : bases) {
    for (int v = 0; v < kWireVariants; ++v) {
      variants.push_back({base.family, Relabel(base.request, &rng)});
    }
  }
  std::vector<int> stream;
  for (int b : pooled.stream) {
    stream.push_back(b * kWireVariants + rng.UniformInt(0, kWireVariants - 1));
  }

  steps.Mark("streams and relabellings");
  // Single-node in-process reference answers, checked by the oracles
  // (verification: off the set-up clock).
  int64_t verify_ns = 0;
  std::vector<std::vector<uint8_t>> reference(variants.size());
  std::vector<svc::Fingerprint> keys(variants.size());
  {
    const int64_t v0 = NowNs();
    cspdb::exec::ThreadPool ref_pool(1);
    svc::ServiceOptions options;
    options.pool = &ref_pool;
    svc::CspdbService ref(options);
    svc::CspdbService key_service(options);
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const Response r = ref.Handle(variants[i].request);
      std::string why;
      if (r.status != StatusCode::kOk) {
        result.Fail("wire_renamed: reference request not OK");
      } else if (!CheckAnswer(variants[i].family, variants[i].request, r.answer,
                              &why)) {
        result.Fail("wire_renamed: " + why);
      }
      reference[i] = cspdb::net::AnswerBytes(r);
      keys[i] = ServiceKey(&key_service, variants[i].request);
      const std::size_t b = i / kWireVariants;
      if (keys[i] != ServiceKey(&key_service, bases[b].request)) {
        result.Fail(std::string("wire_renamed: a relabelled ") +
                    FamilyName(variants[i].family) +
                    " request fingerprints differently from its base");
      }
      // SAT/UNSAT agrees across the variants of one base.
      if (const auto* csp = std::get_if<svc::CspAnswer>(&r.answer)) {
        const Response base_variant = ref.Handle(variants[b * kWireVariants].request);
        const auto* first = std::get_if<svc::CspAnswer>(&base_variant.answer);
        if (first == nullptr ||
            first->solution.has_value() != csp->solution.has_value()) {
          result.Fail("wire_renamed: SAT/UNSAT differs across variants");
        }
      }
    }
    verify_ns = NowNs() - v0;
  }

  steps.Mark("reference answers (excluded)");
  std::vector<cspdb::net::PeerId> members;
  std::vector<std::string> addresses;
  for (int port : kWirePorts) {
    addresses.push_back("127.0.0.1:" + std::to_string(port));
    members.push_back({addresses.back()});
  }
  std::vector<std::unique_ptr<WireNode>> nodes;
  for (int i = 0; i < 2; ++i) {
    auto node = std::make_unique<WireNode>(kWireNodeWorkers);
    node->router = std::make_unique<cspdb::net::ShardRouter>(
        node->service.get(), addresses[i], members);
    cspdb::net::ServerOptions server_options;
    server_options.listen_address = addresses[i];
    server_options.pool = &node->pool;
    node->server = std::make_unique<cspdb::net::NetServer>(node->service.get(),
                                                           server_options);
    node->server->set_router(node->router.get());
    std::string error;
    bool started = false;
    for (int attempt = 0; attempt < 20 && !started; ++attempt) {
      started = node->server->Start(&error);
      if (!started) std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
    if (!started) {
      result.Fail("wire_renamed: cannot listen on " + addresses[i] + ": " + error);
      return result;
    }
    nodes.push_back(std::move(node));
  }
  // Client c holds one connection, to node c.
  std::vector<std::unique_ptr<cspdb::net::Connection>> conns;
  for (int c = 0; c < kClients; ++c) {
    std::string error;
    conns.push_back(cspdb::net::Connection::Dial(addresses[c], 2000, &error));
    if (conns.back() == nullptr) {
      result.Fail("wire_renamed: dial failed: " + error);
      return result;
    }
  }
  // Owner of each variant (all variants of a base share the owner).
  std::vector<int> owner(variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    owner[i] = nodes[0]->router->OwnerOf(keys[i]) == addresses[0] ? 0 : 1;
  }

  steps.Mark("cluster start");
  // Placement: every base through node 0, which computes it on its owner.
  std::atomic<uint64_t> call_id{1};
  for (const Item& base : bases) {
    std::string error;
    const std::optional<Response> r = conns[0]->Call(
        base.request, call_id++, 0, kWireCallTimeoutMs, &error);
    if (!r.has_value() || r->status != StatusCode::kOk) {
      result.Fail("wire_renamed: placement call failed: " + error);
      return result;
    }
  }

  std::size_t cursor = 0;
  std::array<int64_t, kClients> expected_local{};
  std::array<int64_t, kClients> expected_remote{};
  auto draw = [&](std::vector<Slot>* slots) {
    for (Slot& slot : *slots) {
      slot.index = stream[cursor++ % stream.size()];
      slot.item = &variants[slot.index];
      slot.family = slot.item->family;
    }
  };
  auto send = [&](bool traced) {
    return [&, traced](int c, Slot* slot, ClientLog* log) {
      std::string error;
      const uint64_t id = call_id++;
      slot->start_ns = NowNs();
      slot->response = conns[c]->Call(slot->item->request, id, 0,
                                       kWireCallTimeoutMs, &error);
      slot->rtt_ns = NowNs() - slot->start_ns;
      if (!slot->ok()) {
        log->Fail("wire_renamed: call failed: " + error);
        return;
      }
      const Response& r = *slot->response;
      const bool remote = owner[slot->index] != c;
      ++(remote ? expected_remote[c] : expected_local[c]);
      if (log->keep_responses) {
        if (remote) log->queue_wait_ns.push_back(r.queue_wait_ns);
        log->transport_ns.push_back(slot->rtt_ns - r.latency_ns - r.queue_wait_ns);
      }
      if (!traced) return;
      RequestSpan(*slot, log);
      StageLayers(*slot->item, r, &nodes[owner[slot->index]]->service->cache(),
                  keys[slot->index], slot->id, c, log);
    };
  };
  auto check = [&](const Slot& slot) -> std::string {
    const Response& r = *slot.response;
    if (slot.rtt_ns < r.latency_ns + r.queue_wait_ns) {
      return "wire_renamed: client RTT below the server-reported latency";
    }
    if (!r.cache_hit || r.served_remotely != (owner[slot.index] != slot.client)) {
      return "wire_renamed: a relabelled repeat was not a hit on its owner";
    }
    if (cspdb::net::AnswerBytes(r) != reference[slot.index]) {
      return "wire_renamed: answer bytes differ from the single-node answer";
    }
    return "";
  };
  auto snapshot = [&] {
    Counters sum;
    for (auto& node : nodes) {
      sum = Add(sum, Snapshot(*node->service, node->router.get()));
    }
    return sum;
  };
  steps.Mark("placement");
  const Phase warm = RunPhase(Mode::kWarmUp, 1e9, kWireWarmBatches, kWireBatch,
                              draw, send(false), check);
  steps.Mark("warm-up (checks included)");
  result.notes.push_back(steps.Note());
  if (!warm.first_error().empty()) result.Fail(warm.first_error());
  const double setup_s = static_cast<double>(NowNs() - process_start_ns -
                                             verify_ns - warm.check_ns) /
                         1e9;

  // Checks one phase against the router's totals: dispositions equal the
  // client's responses, no peer failed, and the local/remote split is the
  // one ring ownership predicts.
  auto check_phase = [&](const Phase& phase, const Counters& d) {
    int64_t exp_local = 0, exp_remote = 0;
    for (int c = 0; c < kClients; ++c) {
      exp_local += expected_local[c];
      exp_remote += expected_remote[c];
    }
    expected_local = {};
    expected_remote = {};
    const int64_t routed = d.router.local_hits + d.router.remote_hits +
                           d.router.remote_compute + d.router.local_compute;
    if (routed != phase.completed()) {
      result.Fail("wire_renamed: router dispositions (" + std::to_string(routed) +
                  ") differ from client responses (" +
                  std::to_string(phase.completed()) + ")");
    }
    if (d.router.peer_failures != 0) {
      result.Fail("wire_renamed: " + std::to_string(d.router.peer_failures) +
                  " peer failures");
    }
    if (d.router.local_hits != exp_local || d.router.remote_hits != exp_remote) {
      result.Fail("wire_renamed: local/remote split differs from ownership");
    }
    if (!phase.first_error().empty()) result.Fail(phase.first_error());
    result.attempted += phase.completed() + phase.failed();
    result.failed += phase.failed();
  };

  ReleaseFreedMemory();
  const PhasePlan plan = Plan(args);
  expected_local = {};
  expected_remote = {};
  const Counters before = snapshot();
  const Phase untraced = RunPhase(Mode::kUntraced, plan.untraced_s, kUnbounded,
                                  kWireBatch, draw, send(false), check);
  const Counters mid = snapshot();
  check_phase(untraced, Delta(before, mid));
  result.notes.push_back(
      "distinct bases " + std::to_string(bases.size()) + ", local hits " +
      std::to_string(Delta(before, mid).router.local_hits) + ", remote hits " +
      std::to_string(Delta(before, mid).router.remote_hits));

  if (!args.trace) {
    AddEndToEnd(untraced, setup_s, &result);
    return result;
  }
  const Phase traced = RunPhase(Mode::kTraced, plan.traced_s, kUnbounded,
                                kWireBatch, draw, send(true), check);
  const Counters d2 = Delta(mid, snapshot());
  check_phase(traced, d2);
  AddPerLayer(untraced, traced, {&untraced, &traced}, {}, d2, &result);
  WriteTrace(args.trace_out, traced);
  return result;
}

// ---------------------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(ch);
  }
  return out;
}

void PrintStamp(const Args& args) {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) < 0) load[0] = -1;
#ifdef CSPDB_ENABLE_OBS
  const char* obs = "ON";
#else
  const char* obs = "OFF";
#endif
#ifdef CSPDB_ENABLE_SIMD
  const char* simd = "ON";
#else
  const char* simd = "OFF";
#endif
#ifdef NDEBUG
  const char* ndebug = "defined";
#else
  const char* ndebug = "undefined";
#endif
  std::printf(
      "stamp {\"cmake_build_type\":\"%s\",\"ndebug\":\"%s\","
      "\"cspdb_obs\":\"%s\",\"cspdb_simd\":\"%s\",\"compiler\":\"%s %s\","
      "\"nproc\":%ld,\"loadavg_1m\":%.2f,\"git_commit\":\"%s\","
      "\"source_digest\":\"%s\",\"workload\":\"%s\",\"seed\":%" PRIu64
      ",\"seconds\":%d,\"trace\":%d}\n",
      SERVEBENCH_BUILD_TYPE, ndebug, obs, simd, SERVEBENCH_COMPILER_ID,
      __VERSION__, sysconf(_SC_NPROCESSORS_ONLN), load[0],
      JsonEscape(args.commit).c_str(), JsonEscape(args.source_digest).c_str(),
      JsonEscape(args.workload).c_str(), args.seed, args.seconds,
      args.trace ? 1 : 0);
  std::fflush(stdout);
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  const int64_t process_start_ns = NowNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n       servebench --selftest\n");
    return 2;
  }
  if (args.selftest) return RunSelfTest();
  PrintStamp(args);

  Result result;
  if (args.workload == "hot_repeats") {
    result = RunHotRepeats(args, process_start_ns);
  } else if (args.workload == "cold_mixed") {
    result = RunColdMixed(args, process_start_ns);
  } else if (args.workload == "wire_renamed") {
    result = RunWireRenamed(args, process_start_ns);
  } else {
    std::fprintf(stderr, "servebench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "servebench: %s\n", note.c_str());
  }
  if (!result.correct) {
    std::fprintf(stderr, "servebench: CHECK FAILED: %s\n", result.error.c_str());
  }
  if (result.attempted < 1) {
    std::fprintf(stderr, "servebench: no request completed\n");
    return 1;
  }
  std::string metrics;
  for (const Metric& m : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {%s}}\n",
              result.correct ? "true" : "false", result.attempted, result.failed,
              metrics.c_str());
  return 0;
}

// blas_bench: the repository's end-to-end benchmark.
//
// Runs four seeded workloads through the public front doors — a
// QueryService over one in-memory document, over a demand-paged static
// collection and over a LiveCollection — and prints, per workload, one JSON
// object on stdout (end-to-end metrics, per-layer metrics, correctness
// checks) plus a readable table on stderr. Every answer is checked: the
// program exits 1 when any request fails or any answer differs from naive
// DOM evaluation.
//
//   blas_bench --workload=<name|all> --seed=<n> [--duration_s=30]
//              [--trace=<file>] [--tmp_dir=<dir>] [--self-test]
//
// See blas_bench/README.md for the workloads, the metrics and how to run,
// trace and compare.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "blas/blas.h"
#include "blas/collection.h"
#include "common/rng.h"
#include "exec/optimizer.h"
#include "gen/generator.h"
#include "gen/queries.h"
#include "ingest/live_collection.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "service/query_service.h"
#include "xml/dom.h"
#include "xml/xml_writer.h"
#include "xpath/naive_eval.h"
#include "xpath/parser.h"

#ifndef BLAS_BENCH_BUILD_TYPE
#define BLAS_BENCH_BUILD_TYPE "unknown"
#endif

namespace blas {
namespace bench {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------- constants ---

/// live_churn's writer: replaces per second, open loop.
constexpr double kWriteRate = 5.0;
/// Shards of the collection workloads and the replicate factor of the
/// single-document corpus.
constexpr int kShards = 8;
constexpr int kDocReplicate = 8;
/// One FrameBudget shared by every paged_scan shard: ~1/24 of the corpus.
constexpr size_t kPagedBudget = size_t{4} << 20;
constexpr size_t kLiveBudget = size_t{32} << 20;
constexpr uint64_t kBoundedLimit = 10;
/// Key spaces larger than this are oracle-checked on a seeded sample.
constexpr size_t kOracleSample = 200;
/// Finished traces the service keeps in a traced run. The ring holds the
/// most recent ones, so a traced half longer than kTraceRing requests
/// reports on its last kTraceRing.
constexpr size_t kTraceRing = size_t{1} << 17;
constexpr int64_t kSliceNs = 1'000'000'000;
/// Untimed load before the window, so the plan cache and pools fill.
constexpr int64_t kWarmupNs = 3'000'000'000;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t t) {
  std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(t)));
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + salt);
  return rng.Next();
}

/// Setup, usage and I/O failures: Main reports them and exits 2 after the
/// stack (services, temp dir) has unwound.
[[noreturn]] void Die(const std::string& what) {
  throw std::runtime_error(what);
}

void Check(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(static_cast<size_t>(std::max(n, 0)), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += Format("\\u%04x", c);
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

/// Nearest-rank quantile of raw samples (no bucketing, so values keep all
/// their digits). 0 when empty.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double SecondsSince(int64_t t) {
  return static_cast<double>(NowNs() - t) / 1e9;
}

// ----------------------------------------------------------------- flags ---

struct Flags {
  std::string workload = "all";
  uint64_t seed = 1;
  double duration_s = 30;
  std::string trace_path;
  std::string tmp_dir = ".";
  bool self_test = false;
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&](std::string_view name) -> std::optional<std::string> {
      if (arg.substr(0, name.size()) != name) return std::nullopt;
      return std::string(arg.substr(name.size()));
    };
    if (auto v = value("--workload=")) {
      f.workload = *v;
    } else if (auto v = value("--seed=")) {
      f.seed = std::strtoull(v->c_str(), nullptr, 10);
    } else if (auto v = value("--duration_s=")) {
      f.duration_s = std::atof(v->c_str());
    } else if (auto v = value("--trace=")) {
      f.trace_path = *v;
    } else if (auto v = value("--tmp_dir=")) {
      f.tmp_dir = *v;
    } else if (arg == "--self-test") {
      f.self_test = true;
    } else {
      Die("unknown argument " + std::string(arg));
    }
  }
  if (f.duration_s <= 0) Die("--duration_s must be > 0");
  return f;
}

// -------------------------------------------------------------- workloads ---

enum class Shape { kDocument, kPagedCollection, kLiveCollection };

struct Spec {
  const char* name;
  Shape shape;
  /// Closed-loop query clients: each sends its next request when the
  /// previous one completes.
  int clients;
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr Spec kSpecs[] = {
    {"xmark_join", Shape::kDocument, 4},
    {"point_lookup", Shape::kDocument, 4},
    {"paged_scan", Shape::kPagedCollection, 4},
    {"live_churn", Shape::kLiveCollection, 3},
};

/// One distinct request: the unit of plan caching, oracle checking and
/// the exact-counter pass.
struct Key {
  std::string xpath;
  QueryOptions options;
  std::string label;
};

Key MakeKey(std::string xpath, Translator translator, Engine engine,
            uint64_t limit, Projection projection) {
  Key key;
  key.xpath = std::move(xpath);
  key.options.translator = translator;
  key.options.engine = engine;
  key.options.limit = limit;
  key.options.projection = projection;
  key.label = Format("%s|%s|%s|limit=%" PRIu64 "|%s", key.xpath.c_str(),
                     TranslatorName(translator), EngineName(engine), limit,
                     ProjectionName(projection));
  return key;
}

/// The fig-10 auction queries plus the fig-15 XMark set.
std::vector<std::string> PaperQueries() {
  std::vector<std::string> out;
  for (const BenchQuery& q : Figure10Queries('A')) out.push_back(q.xpath);
  for (const BenchQuery& q : XMarkBenchmarkQueries()) out.push_back(q.xpath);
  return out;
}

std::string AuctionXml(uint64_t seed, int replicate) {
  XmlTextSink sink;
  GenOptions gen;
  gen.seed = seed;
  gen.replicate = replicate;
  GenerateAuction(gen, &sink);
  return sink.TakeText();
}

/// A value of attribute `prefix` (e.g. `<seller person="`) inside the
/// first `<section>` element of `xml`, picked at a seeded position, so
/// value-predicate queries always select something.
std::string PickAttribute(const std::string& xml, std::string_view section,
                          std::string_view prefix, Rng* rng) {
  size_t from = xml.find(std::string("<") + std::string(section) + ">");
  size_t to = xml.find(std::string("</") + std::string(section) + ">");
  if (from == std::string::npos || to == std::string::npos) Die("no section");
  size_t at = xml.find(prefix, from + rng->Below(to - from));
  if (at == std::string::npos || at >= to) at = xml.find(prefix, from);
  at += prefix.size();
  return xml.substr(at, xml.find('"', at) - at);
}

std::string ShardName(int i) { return "shard" + std::to_string(i); }

uint32_t ShardIndex(std::string_view name) {
  return static_cast<uint32_t>(std::atoi(std::string(name.substr(5)).c_str()));
}

// --------------------------------------------------------------- answers ---

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t HashMatch(uint64_t h, uint32_t start, std::string_view content) {
  h = Fnv(h, &start, sizeof(start));
  h = Fnv(h, content.data(), content.size());
  return Fnv(h, "\0", 1);
}

/// One document's part of one answer: match count and a hash over the
/// (start, projected content) sequence.
struct DocAnswer {
  uint32_t doc = 0;
  uint32_t count = 0;
  uint64_t hash = kFnvBasis;
  auto operator<=>(const DocAnswer&) const = default;
};

/// Per key, the distinct answers seen and how many responses gave each.
using AnswerMap =
    std::map<uint32_t, std::map<std::vector<DocAnswer>, uint64_t>>;

/// One query request as the benchmark saw it. Times are steady-clock ns.
struct Response {
  uint32_t key = 0;
  uint64_t serial = 0;
  bool traced = false;
  bool ok = false;
  int64_t sent = 0;       // Submit called
  int64_t submitted = 0;  // Submit returned
  int64_t first = -1;     // first match callback
  int64_t last = -1;      // last match callback
  int64_t done = 0;       // future observed ready
  int64_t max_gap = 0;    // largest gap between consecutive callbacks
  int64_t trace_origin = -1;  // steady-clock time of the program trace's 0
  std::vector<DocAnswer> docs;

  int64_t end() const { return last >= 0 ? last : done; }
};

/// Streaming callback body: stamps delivery times and folds the match into
/// its document's hash. Runs on a service worker.
void RecordMatch(Response* r, uint32_t doc, const Match& m) {
  const int64_t now = NowNs();
  if (r->first < 0) {
    r->first = now;
    if (r->traced) {
      // Ties the program's trace (collected later from the service's ring)
      // to this request, and places it on the benchmark's clock.
      if (obs::TraceContext* ctx = obs::TraceContext::Current()) {
        const uint64_t elapsed = ctx->ElapsedNanos();
        r->trace_origin = now - static_cast<int64_t>(elapsed);
        obs::TraceSpan marker;
        marker.name = "first_match";
        marker.note = std::to_string(r->serial);
        marker.start_ns = elapsed;
        ctx->AddSpan(std::move(marker));
      }
    }
  } else {
    r->max_gap = std::max(r->max_gap, now - r->last);
  }
  r->last = now;
  if (r->docs.empty() || r->docs.back().doc != doc) {
    r->docs.push_back(DocAnswer{doc, 0, kFnvBasis});
  }
  DocAnswer& d = r->docs.back();
  ++d.count;
  d.hash = HashMatch(d.hash, m.start, m.content);
}

// ---------------------------------------------------------------- windows ---

/// Samples of the requests that completed inside a window, cut into 1 s
/// slices. Throughput and latency are reported as the median over slices
/// of each slice's value: a host stall inside one slice moves one of ~20
/// values instead of the whole run's tail. A default Window has no slices
/// and ignores everything.
struct Window {
  int64_t from = 0;
  std::vector<std::vector<double>> latency_ms, first_ms;  // per slice
  std::vector<double> completed;                          // per slice
  std::vector<double> gap_us;  // largest callback gap per request

  Window() = default;
  Window(int64_t from_ns, int64_t to_ns) : from(from_ns) {
    const auto slices = static_cast<size_t>(
        std::max<int64_t>(1, (to_ns - from_ns) / kSliceNs));
    latency_ms.resize(slices);
    first_ms.resize(slices);
    completed.assign(slices, 0);
  }

  void Add(const Response& r) {
    if (r.done < from) return;
    const auto s = static_cast<size_t>((r.done - from) / kSliceNs);
    if (s >= completed.size()) return;
    ++completed[s];
    latency_ms[s].push_back(static_cast<double>(r.end() - r.sent) / 1e6);
    if (r.first >= 0) {
      first_ms[s].push_back(static_cast<double>(r.first - r.sent) / 1e6);
    }
    if (r.first >= 0 && r.last > r.first) {
      gap_us.push_back(static_cast<double>(r.max_gap) / 1e3);
    }
  }

  void Merge(const Window& o) {
    for (size_t s = 0; s < completed.size(); ++s) {
      completed[s] += o.completed[s];
      latency_ms[s].insert(latency_ms[s].end(), o.latency_ms[s].begin(),
                           o.latency_ms[s].end());
      first_ms[s].insert(first_ms[s].end(), o.first_ms[s].begin(),
                         o.first_ms[s].end());
    }
    gap_us.insert(gap_us.end(), o.gap_us.begin(), o.gap_us.end());
  }
};

/// The median over slices of each slice's q-quantile.
double SliceMedian(const std::vector<std::vector<double>>& slices, double q) {
  std::vector<double> per_slice;
  for (const std::vector<double>& s : slices) {
    if (!s.empty()) per_slice.push_back(Quantile(s, q));
  }
  return Quantile(per_slice, 0.5);
}

size_t SampleCount(const std::vector<std::vector<double>>& slices) {
  size_t n = 0;
  for (const std::vector<double>& s : slices) n += s.size();
  return n;
}

/// What one load thread recorded: per-slice samples (a few bytes per
/// request) and one entry per distinct answer, not the responses
/// themselves, so the benchmark's own memory hardly grows with throughput
/// and the RSS it reports is the system's.
struct ClientLog {
  Window untraced, traced;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  AnswerMap answers;
  std::vector<Response> traced_responses;  // --trace only
};

// ----------------------------------------------------------------- writes ---

struct WriteRecord {
  int shard = 0;
  bool to_b = false;  // replaced with generation B (else A)
  int64_t due = 0;
  int64_t acked = 0;
  bool ok = false;
};

/// In-order queue of write acknowledgements between the writer, which
/// submits on schedule, and the thread that waits for them.
class Acks {
 public:
  void Push(size_t index, std::future<Status> future) {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.emplace_back(index, std::move(future));
    cv_.notify_one();
  }
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_one();
  }
  /// Calls `done(index, status)` for every pushed future, in push order,
  /// until Close() and the queue is empty.
  template <typename Fn>
  void Drain(Fn&& done) {
    for (;;) {
      std::pair<size_t, std::future<Status>> item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      done(item.first, item.second.get());
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<size_t, std::future<Status>>> queue_;
  bool closed_ = false;
};

/// Samples the process RSS from /proc/self/statm once per second.
class RssSampler {
 public:
  RssSampler() : thread_([this] { Loop(); }) {}
  ~RssSampler() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  double peak_mb() {
    Sample();
    std::lock_guard<std::mutex> lock(mu_);
    return peak_mb_;
  }

 private:
  void Sample() {
    long pages = 0;
    if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
      long size = 0;
      if (std::fscanf(f, "%ld %ld", &size, &pages) != 2) pages = 0;
      std::fclose(f);
    }
    const double mb = static_cast<double>(pages) *
                      static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
    std::lock_guard<std::mutex> lock(mu_);
    peak_mb_ = std::max(peak_mb_, mb);
  }
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      lock.unlock();
      Sample();
      lock.lock();
      cv_.wait_for(lock, std::chrono::seconds(1), [&] { return stop_; });
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  double peak_mb_ = 0;
  std::thread thread_;  // last: starts after the state it uses
};

// ------------------------------------------------------------- reporting ---

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;  // 0 = exact / derived
};

/// Everything one workload run reports.
struct Report {
  std::vector<Metric> metrics;
  std::vector<Metric> layers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  size_t oracle_keys = 0;
  uint64_t responses_checked = 0;
  std::vector<std::string> problems;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += Format("%s%s:{\"value\":%.10g,\"unit\":%s", i ? "," : "",
                  JsonString(m.name).c_str(), m.value,
                  JsonString(m.unit).c_str());
    if (m.samples > 0) out += Format(",\"samples\":%zu", m.samples);
    out += "}";
  }
  return out + "}";
}

// ----------------------------------------------------------------- oracle ---

/// Naive-evaluation ground truth for one document generation.
struct OracleDoc {
  DomTree dom;
  std::map<std::string, std::vector<const DomNode*>> answers;  // by xpath
};

std::string ProjectNode(const DomNode& node, Projection projection) {
  switch (projection) {
    case Projection::kDLabel:
      return "";
    case Projection::kTag:
      return node.tag;
    case Projection::kPath:
      return DomTree::SourcePath(&node);
    case Projection::kValue:
      return node.text;
    case Projection::kSubtree:
      return node.is_attribute() ? node.tag.substr(1) + "=\"" +
                                       EscapeAttribute(node.text) + "\""
                                 : WriteXml(node);
  }
  return "";
}

uint64_t ExpectedHash(const std::vector<const DomNode*>& nodes, size_t count,
                      Projection projection) {
  uint64_t h = kFnvBasis;
  for (size_t i = 0; i < count; ++i) {
    h = HashMatch(h, nodes[i]->start, ProjectNode(*nodes[i], projection));
  }
  return h;
}

// ------------------------------------------------------------------ bench ---

class Bench {
 public:
  Bench(const Flags& flags, const Spec& spec, const std::string& tmp,
        std::FILE* trace_out)
      : flags_(flags), spec_(spec), tmp_(tmp), trace_out_(trace_out) {}

  Report Run();

 private:
  bool collection() const { return spec_.shape != Shape::kDocument; }
  size_t doc_count() const { return collection() ? kShards : 1; }

  void Generate();
  void PickOracleKeys();
  double SetupOnce(const std::string& dir);
  void TearDown();
  std::unique_ptr<QueryService> MakeService(const ServiceOptions& options);
  double IndexBytesPerXmlByte();

  std::future<Result<StreamSummary>> Submit(QueryService* service,
                                            Response* r);
  void Client(int index, ClientLog* log);
  void Writer();
  void RunLoad();

  void ComputeWindowMetrics();
  void WriteTraces();
  void DropCaches();
  void RunExactPass();
  void CheckAnswers();

  const Flags& flags_;
  const Spec& spec_;
  const std::string tmp_;
  std::FILE* trace_out_;
  Report report_;

  // Inputs, generated untimed from the seed.
  std::vector<std::string> gen_a_;  // one text per document
  std::vector<std::string> gen_b_;  // live_churn's second generation
  std::vector<Key> keys_;
  std::vector<uint32_t> oracle_keys_;  // sorted

  // Serving state.
  std::unique_ptr<BlasSystem> system_;
  std::unique_ptr<BlasCollection> collection_;
  std::unique_ptr<LiveCollection> live_;
  std::unique_ptr<QueryService> service_;
  std::vector<std::string> paged_files_;
  std::map<std::string, std::vector<double>> setup_parts_;  // per setup rep

  // Load timeline (steady-clock ns).
  int64_t load_start_ = 0;
  int64_t window_start_ = 0;
  int64_t window_end_ = 0;   // end of the untraced measurement window
  int64_t traced_from_ = 0;  // INT64_MAX when untraced
  int64_t load_end_ = 0;
  std::atomic<uint64_t> next_serial_{1};

  // What the load recorded, merged over clients.
  ClientLog load_;
  std::vector<WriteRecord> writes_;
  AnswerMap exact_answers_;
  ServiceStats stats_begin_, stats_end_;
  obs::MetricsSnapshot registry_begin_, registry_end_;
  double rss_peak_mb_ = 0;
};

void Bench::Generate() {
  Rng rng(Mix(flags_.seed, 7));
  const std::vector<std::string> paper = PaperQueries();
  switch (spec_.shape) {
    case Shape::kDocument:
      gen_a_.push_back(AuctionXml(Mix(flags_.seed, 1), kDocReplicate));
      break;
    case Shape::kPagedCollection:
    case Shape::kLiveCollection:
      for (int i = 0; i < kShards; ++i) {
        gen_a_.push_back(AuctionXml(Mix(flags_.seed, 100 + i), 1));
        if (spec_.shape == Shape::kLiveCollection) {
          gen_b_.push_back(AuctionXml(Mix(flags_.seed, 200 + i), 1));
        }
      }
      break;
  }
  const std::string_view name = spec_.name;
  if (name == "xmark_join") {
    std::vector<std::string> queries = paper;
    const std::string& xml = gen_a_[0];
    queries.push_back("//open_auction[seller/@person=\"" +
                      PickAttribute(xml, "open_auctions",
                                    "<seller person=\"", &rng) +
                      "\"]/current");
    queries.push_back("/site/people/person[@id=\"" +
                      PickAttribute(xml, "people", "<person id=\"", &rng) +
                      "\"]/name");
    queries.push_back("//closed_auction[price>\"" +
                      std::to_string(rng.Between(700, 880)) +
                      "\"]/buyer/@person");
    for (const std::string& q : queries) {
      for (Translator t : {Translator::kDLabel, Translator::kSplit,
                           Translator::kPushUp, Translator::kUnfold}) {
        for (Engine e : {Engine::kRelational, Engine::kTwig, Engine::kAuto}) {
          keys_.push_back(MakeKey(q, t, e, 0, Projection::kDLabel));
        }
      }
    }
  } else if (name == "point_lookup") {
    // Every literal of three value-predicate templates, so a uniformly
    // drawn request carries a fresh literal: 1890 distinct queries
    // against a 256-entry plan cache.
    std::vector<std::string> xpaths;
    for (int n = 0; n < 300; ++n) {
      xpaths.push_back(Format(
          "//open_auction[seller/@person=\"person%d\"]/current", n));
    }
    for (int n = 0; n < 700; ++n) {
      xpaths.push_back(
          Format("/site/people/person[@id=\"person%d\"]/name", n));
    }
    for (int p = 10; p < 900; ++p) {
      xpaths.push_back(
          Format("//closed_auction[price>\"%d\"]/buyer/@person", p));
    }
    for (const std::string& x : xpaths) {
      for (Projection p : {Projection::kValue, Projection::kSubtree}) {
        keys_.push_back(
            MakeKey(x, Translator::kPushUp, Engine::kAuto, kBoundedLimit, p));
      }
    }
  } else if (name == "paged_scan") {
    for (const std::string& q : paper) {
      for (Translator t : {Translator::kPushUp, Translator::kDLabel}) {
        keys_.push_back(MakeKey(q, t, Engine::kAuto, 0, Projection::kDLabel));
      }
    }
  } else if (name == "live_churn") {
    for (const std::string& q : paper) {
      for (uint64_t limit : {uint64_t{0}, kBoundedLimit}) {
        keys_.push_back(MakeKey(q, Translator::kPushUp, Engine::kAuto, limit,
                                Projection::kDLabel));
      }
    }
  }
}

/// Every key, or a seeded sample when there are more than kOracleSample.
/// The same seed always picks the same keys, so the exact pass over them
/// repeats exactly.
void Bench::PickOracleKeys() {
  for (uint32_t k = 0; k < keys_.size(); ++k) oracle_keys_.push_back(k);
  if (oracle_keys_.size() <= kOracleSample) return;
  Rng rng(Mix(flags_.seed, 13));
  for (size_t i = 0; i < kOracleSample; ++i) {
    std::swap(oracle_keys_[i],
              oracle_keys_[i + rng.Below(oracle_keys_.size() - i)]);
  }
  oracle_keys_.resize(kOracleSample);
  std::sort(oracle_keys_.begin(), oracle_keys_.end());
}

std::unique_ptr<QueryService> Bench::MakeService(
    const ServiceOptions& options) {
  switch (spec_.shape) {
    case Shape::kDocument:
      return std::make_unique<QueryService>(system_.get(), options);
    case Shape::kPagedCollection:
      return std::make_unique<QueryService>(collection_.get(), options);
    case Shape::kLiveCollection:
      return std::make_unique<QueryService>(live_.get(), options);
  }
  return nullptr;
}

void Bench::TearDown() {
  service_.reset();
  live_.reset();
  collection_.reset();
  system_.reset();
}

/// Builds the serving state from the generated text; returns its wall
/// time. The timed part is what a user waits for before the first query.
double Bench::SetupOnce(const std::string& dir) {
  fs::create_directories(dir);
  ServiceOptions options;
  options.trace_ring_capacity = flags_.trace_path.empty() ? 32 : kTraceRing;
  const int64_t t0 = NowNs();
  // Setup's parts, where the front door exposes them (storage layer).
  double build_s = 0, save_s = 0, open_s = 0;
  switch (spec_.shape) {
    case Shape::kDocument: {
      Result<BlasSystem> sys = BlasSystem::FromXml(gen_a_[0]);
      Check(sys.status(), "FromXml");
      system_ = std::make_unique<BlasSystem>(std::move(sys).value());
      build_s = SecondsSince(t0);
      break;
    }
    case Shape::kPagedCollection: {
      StorageOptions storage;
      storage.shared_budget = std::make_shared<FrameBudget>(kPagedBudget);
      collection_ = std::make_unique<BlasCollection>();
      paged_files_.clear();
      for (int i = 0; i < kShards; ++i) {
        const std::string path = dir + "/" + ShardName(i) + ".blasidx";
        paged_files_.push_back(path);
        {
          int64_t t = NowNs();
          Result<BlasSystem> sys = BlasSystem::FromXml(gen_a_[i]);
          Check(sys.status(), "FromXml");
          build_s += SecondsSince(t);
          t = NowNs();
          Check(sys->SavePagedIndex(path), "SavePagedIndex");
          save_s += SecondsSince(t);
        }
        const int64_t t = NowNs();
        Check(collection_->AddPagedIndexFile(ShardName(i), path, storage),
              "AddPagedIndexFile");
        open_s += SecondsSince(t);
      }
      setup_parts_["storage.save_paged_s"].push_back(save_s);
      setup_parts_["storage.open_paged_ms"].push_back(open_s * 1e3);
      break;
    }
    case Shape::kLiveCollection: {
      LiveOptions live;
      live.storage.memory_budget = kLiveBudget;
      live.checkpoint_every = 64;
      Result<std::unique_ptr<LiveCollection>> opened =
          LiveCollection::Open(dir + "/live", live);
      Check(opened.status(), "LiveCollection::Open");
      live_ = std::move(opened).value();
      for (int i = 0; i < kShards; ++i) {
        Check(live_->AddDocument(ShardName(i), gen_a_[i]), "AddDocument");
      }
      break;
    }
  }
  service_ = MakeService(options);
  if (build_s > 0) setup_parts_["storage.index_build_s"].push_back(build_s);
  return SecondsSince(t0);
}

/// BLASIDX2 bytes per XML byte of the served corpus.
double Bench::IndexBytesPerXmlByte() {
  uint64_t index_bytes = 0;
  uint64_t xml_bytes = 0;
  for (const std::string& text : gen_a_) xml_bytes += text.size();
  switch (spec_.shape) {
    case Shape::kDocument: {
      const std::string path = tmp_ + "/size_probe.blasidx";
      Check(system_->SavePagedIndex(path), "SavePagedIndex");
      index_bytes = fs::file_size(path);
      fs::remove(path);
      break;
    }
    case Shape::kPagedCollection:
      for (const std::string& path : paged_files_) {
        index_bytes += fs::file_size(path);
      }
      break;
    case Shape::kLiveCollection: {
      std::shared_ptr<const CollectionState> state = live_->Snapshot();
      for (const auto& [name, file] : state->files) {
        index_bytes += fs::file_size(live_->dir() + "/" + file);
      }
      break;
    }
  }
  return static_cast<double>(index_bytes) / static_cast<double>(xml_bytes);
}

std::future<Result<StreamSummary>> Bench::Submit(QueryService* service,
                                                 Response* r) {
  const Key& key = keys_[r->key];
  QueryRequest request{key.xpath, key.options};
  request.options.trace = r->traced;
  r->serial = next_serial_.fetch_add(1, std::memory_order_relaxed);
  if (!collection()) {
    return service->Submit(std::move(request), [r](const Match& m) {
      RecordMatch(r, 0, m);
      return true;
    });
  }
  return service->SubmitCollection(
      std::move(request), [r](const CollectionMatch& m) {
        RecordMatch(r, ShardIndex(m.document), m.match);
        return true;
      });
}

/// One closed-loop client: draws keys uniformly, waits for each answer and
/// folds it into its log.
void Bench::Client(int index, ClientLog* log) {
  Rng rng(Mix(flags_.seed, 1000 + static_cast<uint64_t>(index)));
  while (NowNs() < load_end_) {
    Response r;
    r.key = static_cast<uint32_t>(rng.Below(keys_.size()));
    r.sent = NowNs();
    r.traced = r.sent >= traced_from_;
    std::future<Result<StreamSummary>> f = Submit(service_.get(), &r);
    r.submitted = NowNs();
    r.ok = f.get().ok();
    r.done = NowNs();
    ++log->attempted;
    if (!r.ok) {
      ++log->failed;
      continue;
    }
    ++log->answers[r.key][r.docs];
    log->untraced.Add(r);
    log->traced.Add(r);
    if (r.traced && r.trace_origin >= 0) {
      log->traced_responses.push_back(std::move(r));
    }
  }
}

/// live_churn's writer: replaces shard k % 8 every 1/kWriteRate seconds,
/// flipping each shard between its generation A and B.
void Bench::Writer() {
  Acks acks;
  std::thread collector([&] {
    acks.Drain([&](size_t i, Status s) {
      writes_[i].acked = NowNs();
      writes_[i].ok = s.ok();
    });
  });
  for (size_t k = 0; k < writes_.size(); ++k) {
    WriteRecord& w = writes_[k];
    w.shard = static_cast<int>(k % kShards);
    w.to_b = (k / kShards) % 2 == 0;
    w.due = load_start_ + static_cast<int64_t>(static_cast<double>(k) * 1e9 /
                                               kWriteRate);
    SleepUntilNs(w.due);
    const std::string& xml = w.to_b ? gen_b_[w.shard] : gen_a_[w.shard];
    acks.Push(k, service_->SubmitReplaceDocument(ShardName(w.shard), xml));
  }
  acks.Close();
  collector.join();
}

void Bench::RunLoad() {
  const bool traced = !flags_.trace_path.empty();
  const int64_t window = static_cast<int64_t>(flags_.duration_s * 1e9);
  // A traced run splits the window: untraced first half (the end-to-end
  // numbers), traced second half (spans and the tracing overhead).
  const int64_t untraced = traced ? window / 2 : window;
  load_start_ = NowNs() + 10'000'000;
  window_start_ = load_start_ + kWarmupNs;
  window_end_ = window_start_ + untraced;
  load_end_ = window_start_ + window;
  traced_from_ = traced ? window_end_ : INT64_MAX;

  load_.untraced = Window(window_start_, window_end_);
  if (traced) load_.traced = Window(traced_from_, load_end_);
  std::vector<ClientLog> logs(spec_.clients, load_);
  std::vector<std::thread> threads;
  for (int i = 0; i < spec_.clients; ++i) {
    threads.emplace_back([this, i, &logs] { Client(i, &logs[i]); });
  }
  if (spec_.shape == Shape::kLiveCollection) {
    writes_.resize(static_cast<size_t>(
        std::ceil(static_cast<double>(load_end_ - load_start_) / 1e9 *
                  kWriteRate)));
    threads.emplace_back([this] { Writer(); });
  }
  SleepUntilNs(window_start_);
  stats_begin_ = service_->stats();
  registry_begin_ = obs::DefaultRegistry().Snapshot();
  {
    // RSS over the untraced window only, like the stats and registry
    // deltas: a traced half grows the trace ring and the traced responses.
    RssSampler rss;
    SleepUntilNs(window_end_);
    rss_peak_mb_ = rss.peak_mb();
  }
  stats_end_ = service_->stats();
  registry_end_ = obs::DefaultRegistry().Snapshot();
  for (std::thread& t : threads) t.join();
  service_->DrainIngest();

  for (ClientLog& log : logs) {
    load_.untraced.Merge(log.untraced);
    load_.traced.Merge(log.traced);
    load_.attempted += log.attempted;
    load_.failed += log.failed;
    for (auto& [key, distinct] : log.answers) {
      for (auto& [docs, n] : distinct) load_.answers[key][docs] += n;
    }
    for (Response& r : log.traced_responses) {
      load_.traced_responses.push_back(std::move(r));
    }
  }
}

void Bench::ComputeWindowMetrics() {
  const Window& w = load_.untraced;
  auto add = [](std::vector<Metric>* out, std::string name, double value,
                std::string unit, size_t samples) {
    out->push_back({std::move(name), value, std::move(unit), samples});
  };
  auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  const ServiceStats& a = stats_begin_;
  const ServiceStats& b = stats_end_;
  const uint64_t completed = b.completed - a.completed;
  const size_t latency_n = SampleCount(w.latency_ms);
  const size_t first_n = SampleCount(w.first_ms);
  std::vector<Metric>& m = report_.metrics;
  add(&m, "qps", Quantile(w.completed, 0.5), "1/s", latency_n);
  add(&m, "latency_p50_ms", SliceMedian(w.latency_ms, 0.5), "ms", latency_n);
  add(&m, "latency_p99_ms", SliceMedian(w.latency_ms, 0.99), "ms", latency_n);
  add(&m, "first_match_p50_ms", SliceMedian(w.first_ms, 0.5), "ms", first_n);
  add(&m, "first_match_p99_ms", SliceMedian(w.first_ms, 0.99), "ms", first_n);
  // The paper's cost measures per served query, from the service's
  // ExecStats roll-up over the window: they do not depend on the host's
  // speed, which the timings above do.
  add(&m, "elements_per_query",
      ratio(b.exec.elements - a.exec.elements, completed), "elements/query",
      completed);
  add(&m, "pages_per_query",
      ratio(b.exec.page_fetches - a.exec.page_fetches, completed),
      "pages/query", completed);
  add(&m, "rss_peak_mb", rss_peak_mb_, "MB", 0);
  std::vector<double> publish_ms;
  for (const WriteRecord& wr : writes_) {
    if (wr.ok && wr.due >= window_start_ && wr.due < window_end_) {
      publish_ms.push_back(static_cast<double>(wr.acked - wr.due) / 1e6);
    }
  }
  if (live_ != nullptr) {
    add(&m, "publish_p50_ms", Quantile(publish_ms, 0.5), "ms",
        publish_ms.size());
    add(&m, "publish_p90_ms", Quantile(publish_ms, 0.9), "ms",
        publish_ms.size());
  }

  // Per-layer numbers over the same (untraced) window.
  std::vector<Metric>& l = report_.layers;
  const uint64_t hits = b.plan_cache_hits - a.plan_cache_hits;
  const uint64_t misses = b.plan_cache_misses - a.plan_cache_misses;
  add(&l, "service.plan_cache_hit_ratio", ratio(hits, hits + misses), "ratio",
      hits + misses);
  const uint64_t dhits = b.doc_plan_hits - a.doc_plan_hits;
  const uint64_t dmisses = b.doc_plan_misses - a.doc_plan_misses;
  add(&l, "service.doc_plan_hit_ratio", ratio(dhits, dhits + dmisses),
      "ratio", dhits + dmisses);
  const uint64_t executed = b.docs_executed - a.docs_executed;
  const uint64_t cancelled = b.docs_cancelled - a.docs_cancelled;
  add(&l, "blas.docs_cancelled_ratio", ratio(cancelled, executed + cancelled),
      "ratio", executed + cancelled);
  add(&l, "blas.delay_p99_us", Quantile(w.gap_us, 0.99), "us",
      w.gap_us.size());
  const uint64_t fetches = b.exec.page_fetches - a.exec.page_fetches;
  add(&l, "storage.miss_ratio",
      ratio(b.exec.page_misses - a.exec.page_misses, fetches), "ratio",
      fetches);
  add(&l, "storage.io_reads_per_query",
      ratio(b.exec.io_reads - a.exec.io_reads, completed), "reads/query",
      completed);
  obs::MetricsSnapshot delta = registry_end_.Subtract(registry_begin_);
  add(&l, "storage.evictions_per_query",
      ratio(delta.counters["blas_storage_evictions_total"], completed),
      "evictions/query", completed);
  // Registry histograms are bucketed (~12% resolution); they stay out of
  // BENCHMARK.json, which takes only raw-sample timings.
  const obs::HistogramSnapshot& pread =
      delta.histograms["blas_storage_pread_ns"];
  add(&l, "storage.pread_us_p99", static_cast<double>(pread.p99()) / 1e3, "us",
      pread.count);
  if (live_ != nullptr) {
    const obs::HistogramSnapshot& publish =
        delta.histograms["blas_ingest_publish_ns"];
    const obs::HistogramSnapshot& append =
        delta.histograms["blas_ingest_manifest_append_ns"];
    add(&l, "ingest.publish_ms_p50", static_cast<double>(publish.p50()) / 1e6,
        "ms", publish.count);
    add(&l, "ingest.manifest_append_ms_p50",
        static_cast<double>(append.p50()) / 1e6, "ms", append.count);
    // Acknowledgement minus publish: parse, label and SavePagedIndex.
    add(&l, "ingest.prepare_ms_p50",
        Quantile(publish_ms, 0.5) - static_cast<double>(publish.p50()) / 1e6,
        "ms", publish_ms.size());
  }
  LiveCollection::Stats live_stats;
  if (live_ != nullptr) live_stats = live_->stats();
  add(&l, "ingest.files_reclaimed",
      static_cast<double>(live_stats.files_reclaimed), "count", 0);
  add(&l, "ingest.manifest_bytes",
      static_cast<double>(live_stats.manifest_bytes), "bytes", 0);

  if (traced_from_ != INT64_MAX) {
    // Tracing overhead: median latency of the traced half against the
    // untraced half (in the closed loops, latency is what sets qps).
    const Window& t = load_.traced;
    add(&l, "obs.trace_overhead_pct",
        (SliceMedian(t.latency_ms, 0.5) / SliceMedian(w.latency_ms, 0.5) -
         1.0) * 100.0,
        "%", SampleCount(t.latency_ms));
  }
}

/// Writes one JSON line per traced request: the benchmark's own spans
/// (request, submit, wait) with the program's span tree, taken from the
/// service's trace ring, nested under a `query` span. Times are ns from
/// the request's submit.
void Bench::WriteTraces() {
  if (trace_out_ == nullptr) return;
  std::map<uint64_t, const Response*> by_serial;
  for (const Response& r : load_.traced_responses) by_serial[r.serial] = &r;
  auto span = [](const char* name, std::string_view note, int level,
                 int64_t start, int64_t dur) {
    return Format("[%s,%s,%d,%" PRId64 ",%" PRId64 "]",
                  JsonString(name).c_str(), JsonString(note).c_str(), level,
                  start, std::max<int64_t>(dur, 0));
  };
  size_t written = 0;
  for (const std::shared_ptr<const obs::Trace>& trace :
       service_->recent_traces()) {
    const Response* r = nullptr;
    for (const obs::TraceSpan& s : trace->spans) {
      if (s.name != "first_match") continue;
      auto it = by_serial.find(std::strtoull(s.note.c_str(), nullptr, 10));
      if (it != by_serial.end()) r = it->second;
    }
    if (r == nullptr) continue;
    const int64_t t0 = r->sent;
    const int64_t origin = r->trace_origin - t0;
    const int64_t query_end = origin + static_cast<int64_t>(trace->total_ns);
    const int64_t end = std::max(r->end() - t0, query_end);
    const int64_t submitted = r->submitted - t0;
    std::string spans = span("request", "", 0, 0, end);
    spans += "," + span("submit", "", 1, 0, submitted);
    spans += "," + span("wait", "", 1, submitted, end - submitted);
    spans += "," + span("query", trace->label, 2, origin,
                        static_cast<int64_t>(trace->total_ns));
    for (const obs::TraceSpan& s : trace->spans) {
      if (s.name == "first_match") continue;
      spans += "," + span(s.name.c_str(), s.note, 3 + s.depth,
                          origin + static_cast<int64_t>(s.start_ns),
                          static_cast<int64_t>(s.duration_ns));
    }
    std::fprintf(trace_out_,
                 "{\"workload\":%s,\"kind\":\"query\",\"id\":%" PRIu64
                 ",\"key\":%s,\"spans\":[%s]}\n",
                 JsonString(spec_.name).c_str(), r->serial,
                 JsonString(keys_[r->key].label).c_str(), spans.c_str());
    ++written;
  }
  for (const WriteRecord& w : writes_) {
    if (!w.ok || w.due < traced_from_) continue;
    std::fprintf(trace_out_,
                 "{\"workload\":%s,\"kind\":\"write\",\"id\":0,\"key\":%s,"
                 "\"spans\":[%s]}\n",
                 JsonString(spec_.name).c_str(),
                 JsonString(ShardName(w.shard)).c_str(),
                 span("replace", w.to_b ? "B" : "A", 0, 0, w.acked - w.due)
                     .c_str());
  }
  std::fflush(trace_out_);
  report_.layers.push_back(
      {"obs.traced_requests", static_cast<double>(written), "count", 0});
}

void Bench::DropCaches() {
  switch (spec_.shape) {
    case Shape::kDocument:
      system_->store().DropCache();
      break;
    case Shape::kPagedCollection:
      for (const std::string& name : collection_->names()) {
        collection_->Find(name)->store().DropCache();
      }
      break;
    case Shape::kLiveCollection: {
      std::shared_ptr<const CollectionState> state = live_->Snapshot();
      for (const std::string& name : state->collection.names()) {
        state->collection.Find(name)->store().DropCache();
      }
      break;
    }
  }
}

/// One single-threaded, cold-cache pass over every key: the exact counters
/// (identical on every run with the same seed), the reference answer of
/// every key outside the oracle sample, and the raw parse / translate /
/// optimize timings of the front half of the pipeline.
void Bench::RunExactPass() {
  if (live_ != nullptr) {
    // Back to generation A everywhere, so the pass sees one fixed corpus.
    for (int i = 0; i < kShards; ++i) {
      Check(service_->SubmitReplaceDocument(ShardName(i), gen_a_[i]).get(),
            "restore generation A");
    }
  }
  service_.reset();
  ServiceOptions options;
  options.worker_threads = 1;
  options.plan_cache_capacity = 0;
  service_ = MakeService(options);

  std::vector<const BlasSystem*> members;
  std::shared_ptr<const CollectionState> state;
  if (system_ != nullptr) members.push_back(system_.get());
  if (collection_ != nullptr) {
    for (const std::string& n : collection_->names()) {
      members.push_back(collection_->Find(n));
    }
  }
  if (live_ != nullptr) {
    state = live_->Snapshot();
    for (const std::string& n : state->collection.names()) {
      members.push_back(state->collection.Find(n));
    }
  }

  // The service's front half, called directly: parse once per key, then
  // per document translate and optimize (engine choice + streamability,
  // what the plan cache stores alongside a plan).
  ExecStats total;
  std::vector<double> parse_us, translate_us, optimize_us;
  auto us_since = [](int64_t t) {
    return static_cast<double>(NowNs() - t) / 1e3;
  };
  for (uint32_t key = 0; key < keys_.size(); ++key) {
    const Key& k = keys_[key];
    int64_t t = NowNs();
    Result<Query> query = ParseXPath(k.xpath);
    parse_us.push_back(us_since(t));
    Check(query.status(), "parse " + k.xpath);
    for (const BlasSystem* member : members) {
      t = NowNs();
      Result<ExecPlan> plan = member->Plan(*query, k.options.translator);
      translate_us.push_back(us_since(t));
      Check(plan.status(), "translate " + k.xpath);
      t = NowNs();
      const CostModel model(&member->summary(), &member->dict());
      (void)ChooseEngine(*plan, model);
      (void)member->AnalyzeStreamability(*plan);
      optimize_us.push_back(us_since(t));
    }

    DropCaches();
    Response r;
    r.key = key;
    Result<StreamSummary> summary = Submit(service_.get(), &r).get();
    ++report_.attempted;
    if (!summary.ok()) {
      ++report_.failed;
      continue;
    }
    ++exact_answers_[key][r.docs];
    total += summary->stats;
  }
  std::vector<Metric>& l = report_.layers;
  l.push_back({"xpath.parse_us_p50", Quantile(parse_us, 0.5), "us",
               parse_us.size()});
  l.push_back({"translate.translate_us_p50", Quantile(translate_us, 0.5), "us",
               translate_us.size()});
  l.push_back({"exec.optimize_us_p50", Quantile(optimize_us, 0.5), "us",
               optimize_us.size()});
  auto exact = [&](const char* name, uint64_t v) {
    l.push_back({name, static_cast<double>(v), "count", 0});
  };
  exact("exec.d_joins", total.d_joins);
  exact("exec.intermediate_rows", total.intermediate_rows);
  exact("blas.output_rows", total.output_rows);
  exact("storage.elements", total.elements);
  exact("storage.page_fetches", total.page_fetches);
  exact("storage.page_misses", total.page_misses);
  exact("storage.io_reads", total.io_reads);
}

/// Checks every recorded answer. Oracle keys are compared with naive DOM
/// evaluation (bounded answers against the oracle's prefix, projected
/// content against the DOM, live answers per document against generation
/// A or B); every other key must give the exact pass's answer on every
/// response.
void Bench::CheckAnswers() {
  // Ground truth per document generation.
  std::vector<std::vector<std::unique_ptr<OracleDoc>>> oracle(doc_count());
  for (size_t d = 0; d < doc_count(); ++d) {
    std::vector<const std::string*> texts = {&gen_a_[d]};
    if (!gen_b_.empty()) texts.push_back(&gen_b_[d]);
    for (const std::string* text : texts) {
      Result<DomTree> dom = ParseDom(*text);
      Check(dom.status(), "ParseDom");
      auto doc = std::make_unique<OracleDoc>();
      doc->dom = std::move(dom).value();
      oracle[d].push_back(std::move(doc));
    }
  }
  for (uint32_t key : oracle_keys_) {
    const std::string& xpath = keys_[key].xpath;
    Result<Query> query = ParseXPath(xpath);
    Check(query.status(), "parse " + xpath);
    for (auto& variants : oracle) {
      for (auto& doc : variants) {
        if (doc->answers.count(xpath) == 0) {
          doc->answers[xpath] = NaiveEval(*query, doc->dom);
        }
      }
    }
  }

  std::map<std::tuple<uint32_t, size_t, size_t, uint32_t>, uint64_t> hashes;
  auto expected = [&](uint32_t key, size_t doc, size_t variant,
                      uint32_t count) {
    auto [it, fresh] =
        hashes.emplace(std::make_tuple(key, doc, variant, count), 0);
    if (fresh) {
      it->second = ExpectedHash(
          oracle[doc][variant]->answers[keys_[key].xpath], count,
          keys_[key].options.projection);
    }
    return it->second;
  };
  auto matches_oracle = [&](uint32_t key, const std::vector<DocAnswer>& docs) {
    const uint64_t limit = keys_[key].options.limit;
    uint64_t total = 0;
    for (const DocAnswer& d : docs) total += d.count;
    if (limit > 0 && total > limit) return false;
    const bool truncated = limit > 0 && total == limit;
    size_t at = 0;
    for (uint32_t doc = 0; doc < doc_count(); ++doc) {
      DocAnswer got{doc, 0, kFnvBasis};
      if (at < docs.size() && docs[at].doc == doc) got = docs[at++];
      // Only the document where a bounded answer ran out of budget (and
      // the ones after it) may hold a prefix of their full answer.
      const bool prefix_ok =
          truncated && (docs.empty() || doc >= docs.back().doc);
      bool ok = false;
      for (size_t v = 0; v < oracle[doc].size() && !ok; ++v) {
        const size_t full = oracle[doc][v]->answers[keys_[key].xpath].size();
        ok = (got.count == full || (prefix_ok && got.count < full)) &&
             got.hash == expected(key, doc, v, got.count);
      }
      if (!ok) return false;
    }
    return at == docs.size();
  };

  auto check = [&](const AnswerMap& answers, const char* phase) {
    for (const auto& [key, distinct] : answers) {
      const bool oracle_key = std::binary_search(
          oracle_keys_.begin(), oracle_keys_.end(), key);
      // A key outside the sample must repeat the exact pass's answer.
      const std::vector<DocAnswer>* reference = nullptr;
      if (auto it = exact_answers_.find(key);
          !oracle_key && it != exact_answers_.end() && it->second.size() == 1) {
        reference = &it->second.begin()->first;
      }
      for (const auto& [docs, n] : distinct) {
        report_.responses_checked += n;
        const bool ok = oracle_key ? matches_oracle(key, docs)
                                   : reference != nullptr && docs == *reference;
        if (ok) continue;
        report_.wrong += n;
        if (report_.problems.size() < 5) {
          report_.problems.push_back(
              Format("%s answer differs from the %s: %s", phase,
                     oracle_key ? "oracle" : "exact pass",
                     keys_[key].label.c_str()));
        }
      }
    }
  };
  check(load_.answers, "load");
  check(exact_answers_, "exact-pass");
  report_.attempted += load_.attempted;
  report_.failed += load_.failed;
  for (const WriteRecord& w : writes_) {
    ++report_.attempted;
    if (!w.ok) ++report_.failed;
  }
  report_.oracle_keys = oracle_keys_.size();
}

Report Bench::Run() {
  const int64_t gen_start = NowNs();
  Generate();
  PickOracleKeys();
  const double gen_s = SecondsSince(gen_start);

  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    TearDown();
    setup_s.push_back(SetupOnce(tmp_ + "/setup" + std::to_string(rep)));
  }
  malloc_trim(0);
  report_.metrics.push_back(
      {"setup_s", Quantile(setup_s, 0.5), "s", setup_s.size()});
  for (const auto& [name, values] : setup_parts_) {
    report_.layers.push_back({name, Quantile(values, 0.5),
                              name.substr(name.rfind('_') + 1),
                              values.size()});
  }
  report_.metrics.push_back({"index_bytes_per_xml_byte",
                             IndexBytesPerXmlByte(), "ratio", 0});

  RunLoad();
  ComputeWindowMetrics();
  WriteTraces();
  RunExactPass();

  if (flags_.self_test) {
    // Proves the checker is not vacuous: one corrupted answer must fail.
    for (auto& [key, distinct] : load_.answers) {
      if (!std::binary_search(oracle_keys_.begin(), oracle_keys_.end(), key) ||
          distinct.begin()->first.empty()) {
        continue;
      }
      auto node = distinct.extract(distinct.begin());
      node.key()[0].hash ^= 1;
      distinct.insert(std::move(node));
      break;
    }
  }
  CheckAnswers();
  TearDown();
  report_.metrics.push_back(
      {"error_ratio",
       static_cast<double>(report_.failed + report_.wrong) /
           static_cast<double>(std::max<uint64_t>(report_.attempted, 1)),
       "ratio", report_.attempted});

  std::fprintf(stderr, "  (inputs generated in %.2f s, untimed)\n", gen_s);
  return report_;
}

// ------------------------------------------------------------------- main ---

std::string MachineJson() {
#ifdef __clang__
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  return Format("{\"nproc\":%u,\"compiler\":%s,\"build_type\":%s}",
                std::thread::hardware_concurrency(),
                JsonString(compiler).c_str(),
                JsonString(BLAS_BENCH_BUILD_TYPE).c_str());
}

void PrintTable(const char* workload, const Report& report) {
  std::fprintf(stderr, "== %s\n", workload);
  auto rows = [](const char* title, const std::vector<Metric>& metrics) {
    std::fprintf(stderr, "  %s\n", title);
    for (const Metric& m : metrics) {
      std::fprintf(stderr, "    %-32s %14.6g %-16s", m.name.c_str(), m.value,
                   m.unit.c_str());
      if (m.samples > 0) std::fprintf(stderr, " n=%zu", m.samples);
      std::fprintf(stderr, "\n");
    }
  };
  rows("end to end", report.metrics);
  rows("layers", report.layers);
  std::fprintf(stderr,
               "  checks: attempted=%" PRIu64 " failed=%" PRIu64
               " wrong=%" PRIu64 " oracle_keys=%zu\n",
               report.attempted, report.failed, report.wrong,
               report.oracle_keys);
  for (const std::string& p : report.problems) {
    std::fprintf(stderr, "  WRONG: %s\n", p.c_str());
  }
}

/// Removes the run's scratch directory (paged and live files) on every
/// exit path out of Run.
struct TempDir {
  explicit TempDir(std::string p) : path(std::move(p)) {}
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  const std::string path;
};

int Run(const Flags& flags) {
  if (std::getenv("BLAS_STORAGE_BACKEND") != nullptr) {
    Die("BLAS_STORAGE_BACKEND is set; unset it so every run (and both sides "
        "of a comparison) uses the default storage backend");
  }
  std::vector<const Spec*> specs;
  for (const Spec& spec : kSpecs) {
    if (flags.workload == "all" || flags.workload == spec.name) {
      specs.push_back(&spec);
    }
  }
  if (specs.empty()) Die("unknown workload " + flags.workload);

  std::string pattern = flags.tmp_dir + "/blas_bench_tmp.XXXXXX";
  if (mkdtemp(pattern.data()) == nullptr) {
    Die("mkdtemp " + pattern + ": " + std::strerror(errno));
  }
  const TempDir tmp(pattern);

  std::unique_ptr<std::FILE, int (*)(std::FILE*)> trace_file(nullptr,
                                                             &std::fclose);
  if (!flags.trace_path.empty()) {
    trace_file.reset(std::fopen(flags.trace_path.c_str(), "w"));
    if (trace_file == nullptr) Die("cannot write " + flags.trace_path);
  }

  bool all_ok = true;
  for (const Spec* spec : specs) {
    const std::string dir = tmp.path + "/" + spec->name;
    fs::create_directories(dir);
    Report report = Bench(flags, *spec, dir, trace_file.get()).Run();
    fs::remove_all(dir);
    const bool ok = report.failed == 0 && report.wrong == 0;
    all_ok = all_ok && ok;
    PrintTable(spec->name, report);
    std::printf(
        "{\"workload\":%s,\"seed\":%" PRIu64
        ",\"machine\":%s,\"config\":{\"duration_s\":%g,\"clients\":%d,"
        "\"traced\":%s},\"metrics\":%s,"
        "\"layers\":%s,\"checks\":{\"ok\":%s,\"attempted\":%" PRIu64
        ",\"failed\":%" PRIu64 ",\"wrong\":%" PRIu64
        ",\"oracle_keys\":%zu,\"responses_checked\":%" PRIu64
        ",\"self_test\":%s}}\n",
        JsonString(spec->name).c_str(), flags.seed, MachineJson().c_str(),
        flags.duration_s, spec->clients,
        trace_file != nullptr ? "true" : "false",
        MetricsJson(report.metrics).c_str(), MetricsJson(report.layers).c_str(),
        ok ? "true" : "false", report.attempted, report.failed, report.wrong,
        report.oracle_keys, report.responses_checked,
        flags.self_test ? "true" : "false");
    std::fflush(stdout);
  }
  return all_ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  try {
    return Run(ParseFlags(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "blas_bench: %s\n", e.what());
    return 2;
  }
}

}  // namespace
}  // namespace bench
}  // namespace blas

int main(int argc, char** argv) { return blas::bench::Main(argc, argv); }

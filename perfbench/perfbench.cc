// The repository benchmark (README.md beside this file explains the
// workloads, the metrics and the layer map).
//
// One process runs one seeded workload through the public serving path:
// the client holds each query as text, calls ParseTslQuery, then
// QueryServer::Submit, then future.get(); catalog edits go through
// Mediator::Make and QueryServer::ReplaceMediator. Every answer is checked,
// outside all timers, against Evaluate over the source catalog. Each read
// is preceded by a fixed reference task, and the bounded latency figure is
// the read's time over the reference's: the host's speed drifts by tens of
// percent within minutes, and the ratio cancels most of that drift.
//
// With --trace 1 the same request stream is first served untraced, then
// replayed through a replica of the server's request path built from the
// same public functions, with a span around each call. The layer metrics
// are the spans' self times; the spans are written out as Chrome
// trace_event JSON when the run ends.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "catalog/diff.h"
#include "common/string_util.h"
#include "eval/evaluator.h"
#include "maint/invalidate.h"
#include "mediator/mediator.h"
#include "obs/metrics.h"
#include "oem/database.h"
#include "runtime/thread_pool.h"
#include "service/canonical.h"
#include "service/plan_cache.h"
#include "service/server.h"
#include "tsl/parser.h"

namespace tslrw::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the first call; every span shares this origin.
int64_t NowNs() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Workloads and their generated inputs.

/// Per-arm views over labels l0..l{kArmLabels-1}, one catch-all view, and
/// filler single-label views: 100 capability views in all.
constexpr int kArmLabels = 5;
constexpr int kCatchAll = kArmLabels;
constexpr int kFillerViews = 94;
constexpr int kViews = kArmLabels + 1 + kFillerViews;
/// Every read query pins exactly this many arms to a constant.
constexpr int kConstantArms = 2;
constexpr size_t kPlanCacheCapacity = 256;
/// Fresh set-ups timed per end-to-end run; setup_s is their median.
constexpr int kSetups = 8;

struct Workload {
  const char* name;
  int roots;           ///< records in the source database
  int extra_children;  ///< filler-label children per record
  int pool;            ///< canonical read queries; 0 = every read is new
  /// Arm counts, one digit each, cycled over the pool's queries (or over
  /// the reads when every read is new). A read's cost is set mostly by its
  /// arm count, so a run's latencies fall into one mode per arm count. The
  /// mix puts the median read in the middle of one mode: were it on the
  /// boundary between two (say half the reads had k <= 3), the median would
  /// jump between the two modes from run to run.
  const char* arm_cycle;
  int edit_every;  ///< reads between catalog edits; 0 = no edits
  /// Size of the reference task run before each read (see ReferenceTask).
  int reference_keys;

  int ArmsAt(size_t index) const {
    const size_t length = std::char_traits<char>::length(arm_cycle);
    return arm_cycle[index % length] - '0';
  }
};

constexpr Workload kWorkloads[] = {
    {"warm_repeat", 16, 0, 24, "234455", 0, 400},
    {"cold_unique", 16, 0, 0, "455", 0, 4000},
    {"edit_churn", 48, 4, 8, "2334", 50, 400},
};

std::string ViewName(int index) {
  if (index < kArmLabels) return StrCat("A", index);
  if (index == kCatchAll) return "D";
  return StrCat("F", index - kCatchAll - 1);
}

/// The rule of view \p index; \p edited flips its head label, a real
/// semantic change that keeps every query answerable.
std::string ViewText(int index, bool edited) {
  if (index < kArmLabels) {
    return StrCat("<a", index, "(P') ", edited ? "ea" : "oa", index, " {<wa",
                  index, "(X') m U'>}> :- <P' rec {<X' l", index, " U'>}>@db");
  }
  if (index == kCatchAll) {
    return StrCat("<d(P') ", edited ? "erec" : "rec",
                  " {<X' Y' Z'>}> :- <P' rec {<X' Y' Z'>}>@db");
  }
  const int j = index - kCatchAll - 1;
  return StrCat("<v", j, "(P') ", edited ? "e" : "o", j, " {<w", j,
                "(X') k U'>}> :- <P' rec {<X' m", j, " U'>}>@db");
}

TslQuery MustParse(const std::string& text, const std::string& name) {
  Result<TslQuery> parsed = ParseTslQuery(text, name);
  if (!parsed.ok()) {
    Die(StrCat("generated rule failed to parse: ", parsed.status().ToString(),
               "\n  ", text));
  }
  return std::move(parsed).value();
}

/// Both variants of every view, parsed.
struct ViewCatalog {
  std::vector<Capability> original;
  std::vector<Capability> edited;
};

ViewCatalog MakeViewCatalog() {
  ViewCatalog views;
  for (int i = 0; i < kViews; ++i) {
    views.original.push_back({MustParse(ViewText(i, false), ViewName(i)), {}});
    views.edited.push_back({MustParse(ViewText(i, true), ViewName(i)), {}});
  }
  return views;
}

std::vector<SourceDescription> Sources(const ViewCatalog& views,
                                       const std::vector<bool>& edited) {
  std::vector<Capability> caps;
  caps.reserve(kViews);
  for (size_t i = 0; i < static_cast<size_t>(kViews); ++i) {
    caps.push_back(edited[i] ? views.edited[i] : views.original[i]);
  }
  return {SourceDescription{"db", std::move(caps)}};
}

void Check(const Status& status) {
  if (!status.ok()) Die(StrCat("source data: ", status.ToString()));
}

/// The source database. Records come in blocks of 16: the arm values of
/// l0..l3 run through all 16 combinations of {v0, v1} and l4 holds their
/// parity, so any two arms take each pair of values in exactly a quarter
/// of the records. Every read query pins two arms, so every answer has
/// exactly roots/4 records, whatever the seed. The seed permutes the
/// records, flips value polarities, and picks the filler-label children
/// that only the catch-all view republishes (they give its fetches their
/// weight).
SourceCatalog MakeSourceData(const Workload& workload, uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  std::vector<unsigned> combos;
  for (int r = 0; r < workload.roots; ++r) {
    combos.push_back(static_cast<unsigned>(r % 16));
  }
  std::shuffle(combos.begin(), combos.end(), rng);
  const unsigned flip = static_cast<unsigned>(rng() % 32);
  OemDatabase db("db");
  for (int r = 0; r < workload.roots; ++r) {
    const unsigned combo = combos[static_cast<size_t>(r)];
    const unsigned parity = (combo ^ (combo >> 1) ^ (combo >> 2) ^
                             (combo >> 3)) & 1u;
    const unsigned bits = (combo | (parity << 4)) ^ flip;
    const Oid root = Term::MakeAtom(StrCat("r", r));
    Check(db.PutSet(root, "rec"));
    for (int i = 0; i < kArmLabels; ++i) {
      const Oid child = Term::MakeAtom(StrCat("r", r, "l", i));
      Check(db.PutAtomic(child, StrCat("l", i),
                         StrCat("v", (bits >> i) & 1u)));
      Check(db.AddEdge(root, child));
    }
    for (int c = 0; c < workload.extra_children; ++c) {
      const Oid child = Term::MakeAtom(StrCat("r", r, "m", c));
      Check(db.PutAtomic(child, StrCat("m", rng() % kFillerViews),
                         StrCat("v", rng() % 4)));
      Check(db.AddEdge(root, child));
    }
    Check(db.AddRoot(root));
  }
  SourceCatalog catalog;
  catalog.Put(std::move(db));
  return catalog;
}

/// One canonical star query: arm labels, and per arm a value index or -1
/// for a variable.
struct QuerySpec {
  std::vector<int> labels;
  std::vector<int> values;
  std::string head = "yes";
};

QuerySpec RandomSpec(int arms, std::mt19937_64& rng) {
  std::vector<int> labels(kArmLabels);
  for (int i = 0; i < kArmLabels; ++i) labels[static_cast<size_t>(i)] = i;
  std::shuffle(labels.begin(), labels.end(), rng);
  labels.resize(static_cast<size_t>(arms));
  std::sort(labels.begin(), labels.end());
  QuerySpec spec;
  spec.labels = labels;
  spec.values.assign(labels.size(), -1);
  std::vector<size_t> order(labels.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  for (size_t i = 0; i < static_cast<size_t>(kConstantArms); ++i) {
    spec.values[order[i]] = static_cast<int>(rng() % 2);
  }
  return spec;
}

/// An α-renamed spelling of \p spec: fresh variable names and a shuffled
/// condition order. Every spelling canonicalizes to the same cache key.
std::string Spell(const QuerySpec& spec, std::mt19937_64& rng) {
  static constexpr char kLetters[] = "ABCDEGHJKMNPQRSTWXYZ";
  int next = 0;
  auto fresh = [&] {
    return StrCat(std::string(1, kLetters[rng() % 20]), rng() % 900 + 100,
                  "n", next++);
  };
  const std::string root = fresh();
  std::vector<std::string> conditions;
  for (size_t i = 0; i < spec.labels.size(); ++i) {
    const std::string value = spec.values[i] < 0
                                  ? fresh()
                                  : StrCat("v", spec.values[i]);
    conditions.push_back(StrCat("<", root, " rec {<", fresh(), " l",
                                spec.labels[i], " ", value, ">}>@db"));
  }
  std::shuffle(conditions.begin(), conditions.end(), rng);
  return StrCat("<f(", root, ") out ", spec.head, "> :- ",
                Join(conditions, " AND "));
}

/// The read pool. Its shape is the same for every seed: query q has
/// ArmsAt(q) arms, takes the next label subset of that size (every
/// third in lexicographic order, so the labels spread) and pins the next
/// pair of its arms. The seed draws only the pinned values, which by the
/// data's design always select a quarter of the records, so the pool costs
/// the same whatever the seed.
std::vector<QuerySpec> MakePool(const Workload& workload, uint64_t seed) {
  std::mt19937_64 rng(seed * 0xD1B54A32D192ED03ULL + 2);
  std::vector<size_t> taken(kArmLabels + 1, 0);
  std::vector<QuerySpec> pool;
  for (int q = 0; q < workload.pool; ++q) {
    const int arms = workload.ArmsAt(static_cast<size_t>(q));
    std::vector<std::vector<int>> subsets;
    for (unsigned mask = 0; mask < (1u << kArmLabels); ++mask) {
      std::vector<int> labels;
      for (int i = 0; i < kArmLabels; ++i) {
        if ((mask >> i) & 1u) labels.push_back(i);
      }
      if (static_cast<int>(labels.size()) == arms) subsets.push_back(labels);
    }
    std::sort(subsets.begin(), subsets.end());
    std::vector<std::pair<size_t, size_t>> pins;
    for (size_t i = 0; i < static_cast<size_t>(arms); ++i) {
      for (size_t j = i + 1; j < static_cast<size_t>(arms); ++j) {
        pins.emplace_back(i, j);
      }
    }
    // 3 is coprime with every subset count (10, 10, 5, 1), so the first
    // subsets.size() picks are distinct; after that the pinned pair moves.
    const size_t n = taken[static_cast<size_t>(arms)]++;
    QuerySpec spec;
    spec.labels = subsets[(3 * n) % subsets.size()];
    spec.values.assign(spec.labels.size(), -1);
    const std::pair<size_t, size_t> pin =
        pins[(n / subsets.size()) % pins.size()];
    spec.values[pin.first] = static_cast<int>(rng() % 2);
    spec.values[pin.second] = static_cast<int>(rng() % 2);
    pool.push_back(std::move(spec));
  }
  return pool;
}

/// One client operation.
struct Op {
  bool edit = false;
  int view = -1;        ///< edit: the catalog index whose variant flips
  int canonical = -1;   ///< read: pool index, or -1 for a never-seen query
  std::string text;     ///< read: the request as the client sends it
};

/// The deterministic operation stream of one (workload, seed): the same
/// position always yields the same operation.
class OpStream {
 public:
  OpStream(const Workload& workload, uint64_t seed)
      : workload_(workload),
        pool_(MakePool(workload, seed)),
        rng_(seed * 0xA24BAED4963EE407ULL + 3),
        mix_offset_(rng_() % (kArmLabels + 1)),
        filler_offset_(rng_() % kFillerViews) {}

  const std::vector<QuerySpec>& pool() const { return pool_; }

  Op Next() {
    if (workload_.edit_every > 0 && reads_ > 0 &&
        reads_ % static_cast<size_t>(workload_.edit_every) == 0 &&
        !edit_due_done_) {
      edit_due_done_ = true;
      return NextEdit();
    }
    edit_due_done_ = false;
    ++reads_;
    Op op;
    if (pool_.empty()) {
      // A never-seen query; its head constant is unique to this request.
      QuerySpec spec = RandomSpec(workload_.ArmsAt(reads_), rng_);
      spec.head = StrCat("t", reads_, "x", rng_() % 100000);
      op.text = Spell(spec, rng_);
    } else {
      op.canonical = static_cast<int>(rng_() % pool_.size());
      op.text = Spell(pool_[static_cast<size_t>(op.canonical)], rng_);
    }
    return op;
  }

  /// Edits cycle through the catalog: three of every four change a filler
  /// view the read mix never consults, the fourth changes a per-arm view
  /// or the catch-all, which invalidates the cached plans that used it.
  Op NextEdit() {
    const size_t e = edits_++;
    Op op;
    op.edit = true;
    if (e % 4 == 3) {
      op.view = static_cast<int>((mix_offset_ + e / 4) % (kArmLabels + 1));
    } else {
      op.view = kCatchAll + 1 +
                static_cast<int>((filler_offset_ + e - e / 4) % kFillerViews);
    }
    return op;
  }

 private:
  const Workload& workload_;
  std::vector<QuerySpec> pool_;
  std::mt19937_64 rng_;
  size_t mix_offset_;
  size_t filler_offset_;
  size_t reads_ = 0;
  size_t edits_ = 0;
  bool edit_due_done_ = false;
};

// ---------------------------------------------------------------------------
// Correctness oracle: the reference evaluator over the source catalog,
// independent of the rewriter, memoised per canonical query.

class Oracle {
 public:
  explicit Oracle(const SourceCatalog& catalog) : catalog_(catalog) {}

  /// Empty string = the answer is the reference answer.
  std::string Check(const TslQuery& query, int canonical,
                    const OemDatabase& answer) {
    const OemDatabase* expected = nullptr;
    OemDatabase fresh;
    auto memo = memo_.find(canonical);
    if (canonical >= 0 && memo != memo_.end()) {
      expected = &memo->second;
    } else {
      Result<OemDatabase> evaluated = Evaluate(query, catalog_);
      if (!evaluated.ok()) {
        return StrCat("reference evaluation failed: ",
                      evaluated.status().ToString());
      }
      fresh = std::move(evaluated).value();
      expected = canonical >= 0
                     ? &memo_.emplace(canonical, std::move(fresh)).first->second
                     : &fresh;
    }
    if (!answer.Equals(*expected)) {
      return StrCat("answer differs from Evaluate: ", answer.roots().size(),
                    " roots served, ", expected->roots().size(), " expected");
    }
    return "";
  }

 private:
  const SourceCatalog& catalog_;
  std::map<int, OemDatabase> memo_;
};

// ---------------------------------------------------------------------------
// Statistics helpers.

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Host-speed control: CPU placement and the reference task.

std::vector<int> AllowedCpus(cpu_set_t* allowed) {
  CPU_ZERO(allowed);
  if (sched_getaffinity(0, sizeof(*allowed), allowed) != 0) {
    Die("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Sets the CPU mask of every thread of the process.
void SetMask(const cpu_set_t& mask) {
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) Die("cannot list /proc/self/task");
  while (const dirent* entry = readdir(tasks)) {
    if (entry->d_name[0] == '.') continue;
    const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    // ESRCH: the thread ended after it was listed.
    if (sched_setaffinity(tid, sizeof(mask), &mask) != 0 && errno != ESRCH) {
      Die("sched_setaffinity failed");
    }
  }
  closedir(tasks);
}

cpu_set_t OneCpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return one;
}

/// While it lives, keeps every thread of the process (the client, the
/// server's worker, this object's own timer thread) together on one
/// allowed CPU, moving them all to the next CPU every \p turn; restores
/// the full mask when it goes. A vCPU's speed depends on what runs on the
/// other hyperthread of its host core: the same set-up took 0.19 s on a
/// vCPU whose sibling was idle and 0.29 s on the others, and which vCPUs
/// are fast changes within seconds. An unpinned thread tends to stay on
/// one vCPU, so a timing would follow that vCPU's luck; rotating gives
/// every timing the same share of each vCPU. Sharing one CPU also makes
/// the client-to-worker handoff a context switch on that CPU rather than
/// a wake-up of an idle vCPU, whose cost is set by the host's scheduler,
/// not by the program.
class CpuRotation {
 public:
  explicit CpuRotation(std::chrono::milliseconds turn)
      : turn_(turn), cpus_(AllowedCpus(&allowed_)) {
    SetMask(OneCpu(cpus_[0]));
    timer_ = std::thread([this] { Rotate(); });
  }
  ~CpuRotation() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_one();
    timer_.join();
    SetMask(allowed_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  void Rotate() {
    std::unique_lock<std::mutex> lock(mu_);
    size_t next = 0;
    while (!wake_.wait_for(lock, turn_, [this] { return stop_; })) {
      SetMask(OneCpu(cpus_[++next % cpus_.size()]));
    }
  }

  const std::chrono::milliseconds turn_;
  cpu_set_t allowed_;
  const std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread timer_;
};

/// How long the threads stay on one CPU: while serving, long enough that
/// a read and the reference task before it nearly always share a CPU;
/// while timing set-ups, short enough that each set-up (0.1-0.3 s) visits
/// every CPU.
constexpr std::chrono::milliseconds kServeTurn{100};
constexpr std::chrono::milliseconds kSetUpTurn{20};

/// A fixed piece of work, independent of the library and of the seed, run
/// just before every read: build a map of short string keys to one-element
/// vectors, probe every key, copy the map. Like the program it allocates
/// small heap nodes and chases pointers through them, so the host's
/// momentary speed moves both alike. Its size follows the working set of
/// the workload's reads: 400 keys (200-300 us on the VM of the README's
/// Findings) for the small-data reads, 4000 keys (about 3.3 ms) for the
/// plan searches of cold_unique, whose drift the small task followed less
/// closely. It uses the process heap on purpose; an arena of its own
/// tracked the program's drift less closely too.
class ReferenceTask {
 public:
  explicit ReferenceTask(int keys) {
    std::mt19937_64 rng(7);
    for (int i = 0; i < keys; ++i) {
      keys_.push_back(StrCat("key", rng() % 100000, "x", i));
    }
  }

  /// Runs the task once; returns its duration in microseconds.
  double RunUs() {
    const int64_t start = NowNs();
    std::map<std::string, std::vector<int>> map;
    for (size_t i = 0; i < keys_.size(); ++i) {
      map[keys_[i]].push_back(static_cast<int>(i));
    }
    size_t sum = 0;
    for (const std::string& key : keys_) sum += map.find(key)->second.size();
    const std::map<std::string, std::vector<int>> copy = map;
    sink_ = sink_ + sum + copy.size();
    return static_cast<double>(NowNs() - start) / 1e3;
  }

 private:
  std::vector<std::string> keys_;
  volatile size_t sink_ = 0;  ///< keeps the work from being optimised away
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
  /// False: printed in the table only, not part of the JSON result.
  bool in_result = true;
};

// ---------------------------------------------------------------------------
// Arguments.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Fixed operation count instead of a time budget (the determinism test).
  size_t requests = 0;
  std::string trace_out;   ///< where the traced run writes its spans
  std::string counts_out;  ///< per-operation counts, one line each
  std::string git_sha = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die(StrCat("missing value for ", flag));
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--requests") {
        args.requests = std::stoull(value);
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else if (flag == "--counts-out") {
        args.counts_out = value;
      } else if (flag == "--git-sha") {
        args.git_sha = value;
      } else {
        Die(StrCat("unknown flag ", flag));
      }
    } catch (const std::exception&) {
      Die(StrCat("bad value for ", flag, ": ", value));
    }
  }
  if (!have_workload) Die("--workload is required");
  if (args.requests == 0 && !(args.seconds > 0)) {
    Die("--seconds must be positive");
  }
  return args;
}

const Workload& FindWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return workload;
  }
  Die(StrCat("unknown workload ", name));
}

// ---------------------------------------------------------------------------
// The end-to-end run: the public serving path, untraced.

ServerOptions BenchServerOptions() {
  ServerOptions options;
  options.threads = 1;
  options.rewrite_parallelism = 1;
  options.plan_cache_capacity = kPlanCacheCapacity;
  return options;
}

Mediator MustMake(std::vector<SourceDescription> sources) {
  Result<Mediator> mediator = Mediator::Make(std::move(sources));
  if (!mediator.ok()) {
    Die(StrCat("Mediator::Make: ", mediator.status().ToString()));
  }
  return std::move(mediator).value();
}

/// Everything one served run holds: the catalog state, the source data and
/// the server in front of them.
struct Deployment {
  ViewCatalog views;
  std::vector<bool> edited = std::vector<bool>(kViews, false);
  SourceCatalog data;
  std::unique_ptr<QueryServer> server;
};

/// One spelling of each pool query, sent once to fill the plan cache.
std::vector<std::string> WarmupTexts(const std::vector<QuerySpec>& pool,
                                     uint64_t seed) {
  std::mt19937_64 rng(seed * 0x2545F4914F6CDD1DULL + 4);
  std::vector<std::string> texts;
  for (const QuerySpec& spec : pool) texts.push_back(Spell(spec, rng));
  return texts;
}

/// The timed set-up: generate the views and the source data, build the
/// mediator and the server, and fill the plan cache with the read pool.
std::unique_ptr<Deployment> SetUp(const Workload& workload, uint64_t seed,
                                  const std::vector<std::string>& warmup) {
  auto deployment = std::make_unique<Deployment>();
  deployment->views = MakeViewCatalog();
  deployment->data = MakeSourceData(workload, seed);
  deployment->server = std::make_unique<QueryServer>(
      MustMake(Sources(deployment->views, deployment->edited)),
      deployment->data, BenchServerOptions());
  for (const std::string& text : warmup) {
    auto submitted = deployment->server->Submit(MustParse(text, "Q"));
    if (!submitted.ok()) Die("warm-up request was refused");
    Result<ServeResponse> response = submitted->get();
    if (!response.ok()) Die(StrCat("warm-up: ", response.status().ToString()));
  }
  return deployment;
}

/// What the client observed, operation by operation.
struct RunRecord {
  std::vector<double> read_us;
  /// Per read: the reference task's time just before it, and the read's
  /// time over it.
  std::vector<double> reference_us;
  std::vector<double> read_per_reference;
  std::vector<double> edit_ms;
  /// Summed operation times (closed loop, one client); together they are
  /// the run's time budget.
  double read_busy_s = 0.0;
  double edit_busy_s = 0.0;
  size_t ops = 0;
  size_t reads = 0;
  size_t nonempty = 0;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;
  /// Per read: answer digest and plan-cache hit, for the traced replay.
  std::vector<uint64_t> digests;
  std::vector<bool> hits;
  /// Per edit: plan-cache entries examined and invalidated.
  std::vector<std::pair<size_t, size_t>> edit_counts;
  std::vector<std::string> counts;
};

uint64_t Digest(const OemDatabase& db) {
  return std::hash<std::string>{}(db.ToString());
}

void Fail(RunRecord* record, std::string error) {
  ++record->failed;
  if (record->errors.size() < 5) record->errors.push_back(std::move(error));
}

/// One catalog edit through Mediator::Make and QueryServer::ReplaceMediator.
void ServeEdit(Deployment& deployment, const Op& op, RunRecord* record,
               bool keep_counts) {
  deployment.edited[static_cast<size_t>(op.view)] =
      !deployment.edited[static_cast<size_t>(op.view)];
  std::vector<SourceDescription> sources =
      Sources(deployment.views, deployment.edited);
  ++record->attempted;
  const int64_t start = NowNs();
  Result<Mediator> mediator = Mediator::Make(std::move(sources));
  if (!mediator.ok()) {
    Fail(record, StrCat("edit: ", mediator.status().ToString()));
    return;
  }
  const MaintenanceReport report =
      deployment.server->ReplaceMediator(std::move(mediator).value());
  const double ms = static_cast<double>(NowNs() - start) / 1e6;
  record->edit_ms.push_back(ms);
  record->edit_busy_s += ms / 1e3;
  if (keep_counts) {
    record->counts.push_back(StrCat("edit view=", op.view,
                                    " examined=", report.entries_examined,
                                    " invalidated=",
                                    report.entries_invalidated));
  }
  record->edit_counts.emplace_back(report.entries_examined,
                                   report.entries_invalidated);
}

/// One read: query text in, checked answer out.
void ServeRead(Deployment& deployment, const Op& op, Oracle& oracle,
               ReferenceTask& reference, RunRecord* record, bool keep_digests,
               bool keep_counts) {
  ++record->attempted;
  ++record->reads;
  const double reference_us = reference.RunUs();
  const int64_t start = NowNs();
  Result<TslQuery> query = ParseTslQuery(op.text, "Q");
  Result<ServeResponse> response = Status::Internal("not served");
  if (query.ok()) {
    auto submitted = deployment.server->Submit(*query);
    if (submitted.ok()) {
      response = submitted->get();
    } else {
      response = submitted.status();
    }
  }
  const double us = static_cast<double>(NowNs() - start) / 1e3;
  record->read_us.push_back(us);
  record->reference_us.push_back(reference_us);
  record->read_per_reference.push_back(us / reference_us);
  record->read_busy_s += us / 1e6;
  if (!query.ok()) return Fail(record, query.status().ToString());
  if (!response.ok()) return Fail(record, response.status().ToString());
  const DegradedAnswer& answer = response->answer;
  if (!answer.complete()) return Fail(record, "answer is not complete");
  const std::string mismatch =
      oracle.Check(*query, op.canonical, answer.result);
  if (!mismatch.empty()) return Fail(record, mismatch);
  if (!answer.result.roots().empty()) ++record->nonempty;
  if (keep_digests) {
    record->digests.push_back(Digest(answer.result));
    record->hits.push_back(response->plan_cache_hit);
  }
  if (keep_counts) {
    record->counts.push_back(StrCat(
        "read hit=", response->plan_cache_hit ? 1 : 0,
        " candidates=", response->plan_search.candidates_tested,
        " fetches=", answer.report.fetches.size(),
        " roots=", answer.result.roots().size(),
        " evictions=", deployment.server->stats().plan_cache.evictions));
  }
}

/// Serves the stream until its operations have taken \p seconds of client
/// time (or until the fixed request count is reached).
RunRecord ServeStream(const Workload& workload, Deployment& deployment,
                      OpStream& stream, const Args& args, double seconds,
                      bool keep_digests) {
  RunRecord record;
  Oracle oracle(deployment.data);
  ReferenceTask reference(workload.reference_keys);
  const CpuRotation rotation(kServeTurn);
  const bool keep_counts = !args.counts_out.empty();
  const int64_t wall_start = NowNs();
  // A guard against an oracle much slower than the program under test.
  const double wall_cap_s = 4.0 * seconds + 30.0;
  while (args.requests > 0
             ? record.ops < args.requests
             : (record.read_busy_s + record.edit_busy_s < seconds &&
                static_cast<double>(NowNs() - wall_start) / 1e9 <
                    wall_cap_s)) {
    const Op op = stream.Next();
    if (op.edit) {
      ServeEdit(deployment, op, &record, keep_counts);
    } else {
      ServeRead(deployment, op, oracle, reference, &record, keep_digests,
                keep_counts);
    }
    ++record.ops;
  }
  return record;
}

// ---------------------------------------------------------------------------
// The traced replay: the server's request path rebuilt from its public
// pieces, each call wrapped in a span.

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  ///< index into the span list, -1 for a root
  size_t op = 0;    ///< the operation the span belongs to
};

class SpanLog {
 public:
  int Add(std::string name, int64_t start, int64_t end, int parent,
          size_t op) {
    spans_.push_back({std::move(name), start, end, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int span, int64_t end) {
    spans_[static_cast<size_t>(span)].end_ns = end;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration minus the part of it covered by child spans.
  std::vector<int64_t> SelfTimes() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        self[static_cast<size_t>(span.parent)] -= span.end_ns - span.start_ns;
      }
    }
    return self;
  }

  /// Chrome trace_event JSON (load in chrome://tracing or Perfetto).
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      char buffer[256];
      std::snprintf(buffer, sizeof(buffer),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"op\":%zu}}",
                    i == 0 ? "" : ",\n", span.name.c_str(),
                    static_cast<double>(span.start_ns) / 1e3,
                    static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                    span.parent, span.op);
      out << buffer;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

/// Times every wrapper call: the source-fetch layer seen from outside.
class TimingWrapper : public Wrapper {
 public:
  struct Call {
    int64_t start_ns;
    int64_t end_ns;
  };

  Result<WrapperResult> Fetch(const Capability& capability,
                              const SourceCatalog& catalog) override {
    const int64_t start = NowNs();
    Result<WrapperResult> result = base_.Fetch(capability, catalog);
    calls_.push_back({start, NowNs()});
    if (result.ok()) objects_ += result->data.size();
    return result;
  }

  const std::vector<Call>& calls() const { return calls_; }
  size_t objects() const { return objects_; }

 private:
  CatalogWrapper base_;
  std::vector<Call> calls_;
  size_t objects_ = 0;
};

/// What the worker side of one traced request measured.
struct TaskTimes {
  int64_t start = 0;
  int64_t canonical_end = 0;
  int64_t plan_start = -1;
  int64_t plan_end = -1;
  int64_t lookup_end = 0;
  int64_t execute_start = 0;
  int64_t execute_end = 0;
  int64_t end = 0;
  std::vector<TimingWrapper::Call> fetches;
  size_t fetch_objects = 0;
  PlanSearchStats search;
  Result<DegradedAnswer> answer = Status::Internal("not run");
};

/// Layer totals accumulated by the replay.
struct LayerTotals {
  size_t stream_reads = 0;
  size_t stream_hits = 0;
  size_t plan_calls = 0;
  size_t candidates_tested = 0;
  size_t equiv_cache_hits = 0;
  size_t chase_cache_hits = 0;
  size_t fetches = 0;
  size_t fetch_objects = 0;
  size_t answer_roots = 0;
  size_t edits = 0;
  size_t examined = 0;
  size_t invalidated = 0;
  size_t replans_after_edits = 0;
  std::vector<double> traced_read_us;
};

/// A replica of QueryServer::Answer and QueryServer::ReplaceMediator, built
/// from the same public functions in the same order, with a 1-worker pool
/// standing in for the server's.
class TracedServer {
 public:
  TracedServer(const ViewCatalog& views, const SourceCatalog& data,
               SpanLog* log, LayerTotals* totals, MetricRegistry* metrics)
      : views_(views),
        data_(data),
        log_(log),
        totals_(totals),
        metrics_(metrics),
        cache_(PlanCache::Options{kPlanCacheCapacity, 8}),
        pool_(ThreadPool::Options{1, 128, false, nullptr}) {}

  const PlanCache& cache() const { return cache_; }

  /// Builds the first mediator (timed like every later one).
  void Start(size_t op) {
    mediator_ = std::make_shared<const Mediator>(TimedMake(op, -1));
  }

  /// The traced read; returns the answer for the caller's checks.
  Result<DegradedAnswer> Read(const std::string& text, size_t op, bool stream,
                              bool* hit) {
    const int64_t start = NowNs();
    Result<TslQuery> query = ParseTslQuery(text, "Q");
    const int64_t parsed = NowNs();
    if (!query.ok()) return query.status();
    TaskTimes task;
    std::promise<void> done;
    std::future<void> ready = done.get_future();
    const std::shared_ptr<const Mediator> mediator = mediator_;
    const uint64_t generation = generation_;
    const int64_t submit = NowNs();
    Status admitted = pool_.TrySubmit([&, mediator, generation] {
      task.start = NowNs();
      const PlanCacheKey key = MakePlanCacheKey(*query);
      task.canonical_end = NowNs();
      Result<PlanCache::PlanSetPtr> plans = cache_.LookupOrCompute(
          key, generation, [&]() -> Result<MediatorPlanSet> {
            task.plan_start = NowNs();
            Result<MediatorPlanSet> planned = mediator->Plan(
                key.canonical, /*rewrite_parallelism=*/1, nullptr, metrics_);
            task.plan_end = NowNs();
            return planned;
          });
      task.lookup_end = NowNs();
      if (!plans.ok()) {
        task.answer = plans.status();
      } else {
        task.search = (*plans)->search;
        VirtualClock clock;
        TimingWrapper wrapper;
        ExecutionPolicy policy;
        policy.rewrite_parallelism = 1;
        policy.clock = &clock;
        policy.metrics = metrics_;
        policy.resilience = &resilience_;
        policy.wrapper = &wrapper;
        task.execute_start = NowNs();
        task.answer = mediator->AnswerWithPlans(*query, **plans, data_, policy);
        task.execute_end = NowNs();
        task.fetches = wrapper.calls();
        task.fetch_objects = wrapper.objects();
      }
      task.end = NowNs();
      done.set_value();
    });
    if (!admitted.ok()) return admitted;
    ready.wait();
    const int64_t end = NowNs();

    const int request = log_->Add("request", start, end, -1, op);
    log_->Add("tsl.parse", start, parsed, request, op);
    log_->Add("runtime.handoff", submit, task.start, request, op);
    log_->Add("service.canonical", task.start, task.canonical_end, request,
              op);
    const int lookup = log_->Add("service.plan_cache.lookup",
                                 task.canonical_end, task.lookup_end, request,
                                 op);
    const bool miss = task.plan_start >= 0;
    if (miss) {
      log_->Add("mediator.plan", task.plan_start, task.plan_end, lookup, op);
      ++totals_->plan_calls;
      totals_->candidates_tested += task.search.candidates_tested;
      totals_->equiv_cache_hits += task.search.equiv_cache_hits;
      totals_->chase_cache_hits += task.search.chase_cache_hits;
    }
    const int execute = log_->Add("mediator.execute", task.execute_start,
                                  task.execute_end, request, op);
    for (const TimingWrapper::Call& call : task.fetches) {
      log_->Add("mediator.fetch", call.start_ns, call.end_ns, execute, op);
    }
    log_->Add("runtime.handoff", task.end, end, request, op);
    *hit = !miss;
    if (stream) {
      stream_requests_.push_back(request);
      totals_->traced_read_us.push_back(static_cast<double>(end - start) /
                                        1e3);
      ++totals_->stream_reads;
      if (!miss) ++totals_->stream_hits;
      totals_->fetches += task.fetches.size();
      totals_->fetch_objects += task.fetch_objects;
      if (task.answer.ok()) {
        totals_->answer_roots += task.answer->result.roots().size();
      }
    }
    return std::move(task.answer);
  }

  /// The traced edit: Mediator::Make, then ComputeCatalogDelta, then the
  /// plan-cache maintenance QueryServer::ReplaceMediator runs. Returns the
  /// plan-cache entries examined and invalidated.
  std::pair<size_t, size_t> Edit(int view, size_t op) {
    edited_[static_cast<size_t>(view)] = !edited_[static_cast<size_t>(view)];
    const int64_t start = NowNs();
    const int edit = log_->Add("edit", start, start, -1, op);
    Mediator next = TimedMake(op, edit);
    const int64_t delta_start = NowNs();
    const CatalogDelta delta =
        ComputeCatalogDelta(mediator_->sources(), mediator_->constraints(),
                            next.sources(), next.constraints());
    const int64_t replace_start = NowNs();
    log_->Add("catalog.delta", delta_start, replace_start, edit, op);

    const size_t examined = cache_.size();
    size_t invalidated = 0;
    auto published = std::make_shared<const Mediator>(std::move(next));
    const InvalidationDecider decider(delta, published->sources(),
                                      published->constraints());
    if (decider.full_flush()) {
      invalidated = examined;
      cache_.Flush();
    } else if (!decider.no_op()) {
      cache_.BeginGeneration();
      invalidated = cache_.InvalidateMatching(
          [&decider](const std::string&, const MediatorPlanSet& plans) {
            return decider.ShouldInvalidate(plans.footprint);
          });
    }
    generation_ = cache_.generation();
    mediator_ = std::move(published);
    const int64_t end = NowNs();
    log_->Add("maint.replace", replace_start, end, edit, op);
    log_->End(edit, end);
    ++totals_->edits;
    totals_->examined += examined;
    totals_->invalidated += invalidated;
    return {examined, invalidated};
  }

  /// Stream requests, for the reconciliation check.
  const std::vector<int>& stream_requests() const { return stream_requests_; }

 private:
  /// Mediator::Make under a span; Analyzer::AnalyzeRules, which Make runs
  /// inside, is timed by a second, separate call on the same views.
  Mediator TimedMake(size_t op, int parent) {
    std::vector<SourceDescription> sources = Sources(views_, edited_);
    std::vector<TslQuery> rules;
    AnalyzerOptions analyzer;
    for (const Capability& cap : sources.front().capabilities) {
      rules.push_back(cap.view);
      analyzer.constraint_exempt_sources.insert(cap.view.name);
    }
    const int64_t start = NowNs();
    Mediator mediator = MustMake(std::move(sources));
    const int64_t made = NowNs();
    log_->Add("mediator.make", start, made, parent, op);
    const AnalysisReport report = Analyzer(analyzer).AnalyzeRules(rules);
    const int64_t analyzed = NowNs();
    if (report.has_errors()) Die("views failed analysis");
    log_->Add("analysis.analyze_rules", made, analyzed, -1, op);
    return mediator;
  }

  const ViewCatalog& views_;
  const SourceCatalog& data_;
  SpanLog* log_;
  LayerTotals* totals_;
  MetricRegistry* metrics_;
  std::vector<bool> edited_ = std::vector<bool>(kViews, false);
  std::shared_ptr<const Mediator> mediator_;
  PlanCache cache_;
  uint64_t generation_ = 0;
  ResilienceRegistry resilience_;
  std::vector<int> stream_requests_;
  /// Last member: joined first, while everything its task uses is alive.
  ThreadPool pool_;
};

// ---------------------------------------------------------------------------
// Reporting.

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

void Report(const Args& args, const std::vector<Metric>& metrics,
            const RunRecord& record, bool correct,
            const std::vector<std::string>& errors) {
  std::printf("workload=%s seed=%llu trace=%d ops=%zu reads=%zu "
              "nonempty=%zu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              record.ops, record.reads, record.nonempty);
  for (const Metric& metric : metrics) {
    std::printf("  %-34s %14.4f %-6s (%zu samples)%s\n", metric.name.c_str(),
                metric.value, metric.unit.c_str(), metric.samples,
                metric.in_result ? "" : " [table only]");
  }
  for (const std::string& error : errors) {
    std::printf("  error: %s\n", error.c_str());
  }
  std::printf(
      "{\"context\": {\"nproc\": %u, \"build_type\": %s, \"compiler\": %s, "
      "\"git_sha\": %s, \"workload\": %s, \"seed\": %llu}}\n",
      std::thread::hardware_concurrency(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_COMPILER).c_str(), JsonString(args.git_sha).c_str(),
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed));
  std::string json = StrCat("{\"correct\": ", correct ? "true" : "false",
                            ", \"attempted\": ", record.attempted,
                            ", \"failed\": ", record.failed,
                            ", \"metrics\": {");
  const char* separator = "";
  for (const Metric& metric : metrics) {
    if (!metric.in_result) continue;
    json += StrCat(separator, JsonString(metric.name),
                   ": {\"value\": ", JsonNumber(metric.value),
                   ", \"unit\": ", JsonString(metric.unit), "}");
    separator = ", ";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void WriteCounts(const std::string& path,
                 const std::vector<std::string>& lines) {
  if (path.empty()) return;
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << "\n";
  if (!out) Die(StrCat("cannot write ", path));
}

/// The checks every run makes on what it served.
bool Verify(const RunRecord& record, std::vector<std::string>* errors) {
  errors->insert(errors->end(), record.errors.begin(), record.errors.end());
  bool correct = record.failed == 0 && record.attempted > 0;
  // The oracle would be vacuous if most answers were empty.
  if (record.reads == 0 || 2 * record.nonempty < record.reads) {
    errors->push_back(StrCat("only ", record.nonempty, " of ", record.reads,
                             " reads returned a non-empty answer"));
    correct = false;
  }
  return correct;
}

/// Figures of the served run that are printed with every run but bounded
/// nowhere, because the host's drifting speed moves them between runs by
/// more than the largest bound allowed: the read latency in microseconds,
/// the reference task's own time, the tail latency, the closed-loop
/// throughput (one over the mean latency, so tail-dominated) and the edit
/// latency. Traced runs report them with \p prefix.
std::vector<Metric> UnboundedServedMetrics(const RunRecord& record,
                                           const std::string& prefix) {
  const size_t ops = record.read_us.size() + record.edit_ms.size();
  const double ops_s = record.read_busy_s + record.edit_busy_s;
  return {
      {prefix + "latency_p50_us", Percentile(record.read_us, 0.5), "us",
       record.read_us.size()},
      {prefix + "reference_p50_us", Median(record.reference_us), "us",
       record.reference_us.size()},
      {prefix + "latency_p99_us", Percentile(record.read_us, 0.99), "us",
       record.read_us.size()},
      {prefix + "throughput_rps", static_cast<double>(ops) / ops_s, "1/s",
       ops},
      {prefix + "edit_p50_ms", Median(record.edit_ms), "ms",
       record.edit_ms.size()},
  };
}

int RunEndToEnd(const Args& args, const Workload& workload) {
  OpStream stream(workload, args.seed);
  const std::vector<std::string> warmup =
      WarmupTexts(stream.pool(), args.seed);
  // Fresh set-ups, timed under a fast CPU rotation; the deployment that
  // serves the run is then set up once more, untimed.
  std::vector<double> setup_s;
  {
    const CpuRotation rotation(kSetUpTurn);
    for (int s = 0; s < kSetups; ++s) {
      const int64_t start = NowNs();
      const std::unique_ptr<Deployment> timed =
          SetUp(workload, args.seed, warmup);
      setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    }
  }
  const std::unique_ptr<Deployment> deployment =
      SetUp(workload, args.seed, warmup);
  RunRecord record = ServeStream(workload, *deployment, stream, args,
                                 args.seconds, /*keep_digests=*/false);
  std::vector<std::string> errors;
  const bool correct = Verify(record, &errors);
  std::vector<Metric> metrics = {
      {"latency_p50_ref", Percentile(record.read_per_reference, 0.5), "ref",
       record.read_per_reference.size()},
      {"success_ratio",
       static_cast<double>(record.attempted - record.failed) /
           static_cast<double>(record.attempted),
       "ratio", record.attempted},
      {"setup_s", Median(setup_s), "s", setup_s.size()},
      {"peak_rss_mb", PeakRssMb(), "MiB", 1},
  };
  for (Metric metric : UnboundedServedMetrics(record, "")) {
    metric.in_result = false;
    metrics.push_back(std::move(metric));
  }
  WriteCounts(args.counts_out, record.counts);
  Report(args, metrics, record, correct, errors);
  return 0;
}

int RunTraced(const Args& args, const Workload& workload) {
  // First the untraced baseline, keeping each answer's digest; then the
  // same operations replayed with spans.
  OpStream stream(workload, args.seed);
  const std::vector<std::string> warmup =
      WarmupTexts(stream.pool(), args.seed);
  std::unique_ptr<Deployment> deployment =
      SetUp(workload, args.seed, warmup);
  RunRecord record = ServeStream(workload, *deployment, stream, args,
                                 args.seconds, /*keep_digests=*/true);
  // One closing edit after the stream, replayed too, so that every traced
  // run times edit latency and the maintenance layers at least once:
  // warm_repeat and cold_unique have no edits of their own.
  ServeEdit(*deployment, stream.NextEdit(), &record,
            !args.counts_out.empty());
  deployment.reset();
  std::vector<std::string> errors;
  bool correct = Verify(record, &errors);

  OpStream replay(workload, args.seed);
  const ViewCatalog views = MakeViewCatalog();
  const SourceCatalog data = MakeSourceData(workload, args.seed);
  SpanLog log;
  LayerTotals totals;
  MetricRegistry registry;
  std::vector<std::string> counts = record.counts;
  {
    TracedServer traced(views, data, &log, &totals, &registry);
    ReferenceTask reference(workload.reference_keys);
    const CpuRotation rotation(kServeTurn);
    traced.Start(0);
    bool hit = false;
    for (const std::string& text : warmup) {
      if (!traced.Read(text, 0, /*stream=*/false, &hit).ok()) {
        Die("traced warm-up failed");
      }
    }
    Histogram* assignment_histogram =
        registry.GetHistogram("eval.assignments");
    const uint64_t assignments_before = assignment_histogram->sum();
    size_t read = 0;
    bool edited = false;
    size_t edit = 0;
    auto replay_edit = [&](const Op& op, size_t index) {
      const std::pair<size_t, size_t> seen = traced.Edit(op.view, index);
      if (!args.counts_out.empty()) {
        counts.push_back(StrCat("traced edit view=", op.view,
                                " examined=", seen.first,
                                " invalidated=", seen.second));
      }
      if (edit >= record.edit_counts.size() ||
          record.edit_counts[edit] != seen) {
        correct = false;
        errors.push_back(StrCat("traced edit ", edit,
                                " maintained the cache differently from "
                                "the end-to-end run"));
      }
      ++edit;
    };
    for (size_t i = 0; i < record.ops; ++i) {
      const Op op = replay.Next();
      if (op.edit) {
        replay_edit(op, i + 1);
        edited = true;
        continue;
      }
      // As in the served run, so that the two runs' latencies compare.
      reference.RunUs();
      Result<DegradedAnswer> answer = traced.Read(op.text, i + 1, true, &hit);
      // A pool query planned again after an edit: the edit invalidated it.
      if (!hit && edited && op.canonical >= 0) ++totals.replans_after_edits;
      const bool matches = answer.ok() && read < record.digests.size() &&
                           Digest(answer->result) == record.digests[read] &&
                           hit == record.hits[read];
      if (!matches) {
        correct = false;
        if (errors.size() < 8) {
          errors.push_back(StrCat("traced read ", read,
                                  " differs from the end-to-end run"));
        }
      }
      if (!args.counts_out.empty() && answer.ok()) {
        counts.push_back(StrCat("traced read hit=", hit ? 1 : 0, " roots=",
                                answer->result.roots().size(),
                                " evictions=", traced.cache().stats().evictions));
      }
      ++read;
    }
    replay_edit(replay.NextEdit(), record.ops + 1);
    const uint64_t assignments =
        assignment_histogram->sum() - assignments_before;

    // Layer self times over the stream's reads.
    const std::vector<int64_t> self = log.SelfTimes();
    std::map<std::string, double> read_self_us;
    double request_us = 0.0;
    double unattributed_us = 0.0;
    std::vector<bool> in_stream(log.spans().size(), false);
    for (int request : traced.stream_requests()) {
      in_stream[static_cast<size_t>(request)] = true;
      request_us += static_cast<double>(
                        log.spans()[static_cast<size_t>(request)].end_ns -
                        log.spans()[static_cast<size_t>(request)].start_ns) /
                    1e3;
      unattributed_us +=
          static_cast<double>(self[static_cast<size_t>(request)]) / 1e3;
    }
    std::map<std::string, double> all_us;
    std::map<std::string, size_t> all_calls;
    for (size_t i = 0; i < log.spans().size(); ++i) {
      const Span& span = log.spans()[i];
      all_us[span.name] += static_cast<double>(self[i]) / 1e3;
      ++all_calls[span.name];
      int root = static_cast<int>(i);
      while (log.spans()[static_cast<size_t>(root)].parent >= 0) {
        root = log.spans()[static_cast<size_t>(root)].parent;
      }
      if (in_stream[static_cast<size_t>(root)] &&
          static_cast<size_t>(root) != i) {
        read_self_us[span.name] += static_cast<double>(self[i]) / 1e3;
      }
    }
    const double reads = static_cast<double>(std::max<size_t>(1, totals.stream_reads));
    const double plans = static_cast<double>(std::max<size_t>(1, totals.plan_calls));
    const double edits = static_cast<double>(std::max<size_t>(1, totals.edits));
    auto per_read = [&](const std::string& name) {
      return read_self_us[name] / reads;
    };
    auto per_call = [&](const std::string& name, double scale) {
      return all_calls[name] == 0
                 ? 0.0
                 : all_us[name] / scale / static_cast<double>(all_calls[name]);
    };
    auto phase_us = [&](const std::string& name) {
      return static_cast<double>(registry.GetHistogram(name)->sum()) / plans;
    };
    const double unattributed_ratio =
        request_us > 0 ? unattributed_us / request_us : 1.0;
    if (std::abs(unattributed_ratio) > 0.05) {
      correct = false;
      errors.push_back(StrCat("layer self times leave ",
                              unattributed_ratio * 100.0,
                              "% of the traced request time unattributed"));
    }
    const double untraced_p50 = Percentile(record.read_us, 0.5);
    const double traced_p50 = Percentile(totals.traced_read_us, 0.5);
    const PlanCacheStats cache = traced.cache().stats();
    const size_t r = totals.stream_reads;
    const size_t p = totals.plan_calls;
    const size_t e = totals.edits;
    std::vector<Metric> metrics = {
        {"tsl.parse_us", per_read("tsl.parse"), "us", r},
        {"service.canonical_us", per_read("service.canonical"), "us", r},
        {"service.plan_cache.lookup_us", per_read("service.plan_cache.lookup"),
         "us", r},
        {"service.plan_cache.hit_ratio",
         static_cast<double>(totals.stream_hits) / reads, "ratio", r},
        {"service.plan_cache.evictions", static_cast<double>(cache.evictions),
         "count", 1},
        {"runtime.handoff_us", per_read("runtime.handoff"), "us", r},
        {"mediator.plan_us", per_call("mediator.plan", 1.0), "us", p},
        {"rewrite.candidates_tested",
         static_cast<double>(totals.candidates_tested) / plans, "count", p},
        {"rewrite.equiv_cache_hits",
         static_cast<double>(totals.equiv_cache_hits) / plans, "count", p},
        {"rewrite.chase_cache_hits",
         static_cast<double>(totals.chase_cache_hits) / plans, "count", p},
        {"rewrite.phase.chase_us", phase_us("rewrite.phase.chase_us"), "us", p},
        {"rewrite.phase.compose_us", phase_us("rewrite.phase.compose_us"),
         "us", p},
        {"rewrite.phase.equiv_us", phase_us("rewrite.phase.equiv_us"), "us", p},
        {"mediator.fetch_us", per_read("mediator.fetch"), "us", r},
        {"mediator.fetches", static_cast<double>(totals.fetches) / reads,
         "count", r},
        {"mediator.fetch_objects",
         static_cast<double>(totals.fetch_objects) / reads, "count", r},
        {"mediator.execute_us", per_read("mediator.execute"), "us", r},
        {"eval.assignments", static_cast<double>(assignments) / reads, "count",
         r},
        {"answer.roots", static_cast<double>(totals.answer_roots) / reads,
         "count", r},
        {"mediator.make_ms", per_call("mediator.make", 1e3), "ms",
         all_calls["mediator.make"]},
        {"analysis.analyze_rules_ms", per_call("analysis.analyze_rules", 1e3),
         "ms", all_calls["analysis.analyze_rules"]},
        {"catalog.delta_us", per_call("catalog.delta", 1.0), "us", e},
        {"maint.replace_ms", per_call("maint.replace", 1e3), "ms", e},
        {"maint.invalidated_ratio",
         totals.examined == 0 ? 0.0
                              : static_cast<double>(totals.invalidated) /
                                    static_cast<double>(totals.examined),
         "ratio", e},
        {"maint.replans_per_edit",
         static_cast<double>(totals.replans_after_edits) / edits, "count", e},
        {"trace.latency_p50_us", traced_p50, "us", r},
        {"trace.overhead_us", traced_p50 - untraced_p50, "us", r},
        {"trace.unattributed_ratio", unattributed_ratio, "ratio", r},
    };
    for (Metric& metric : UnboundedServedMetrics(record, "serve.")) {
      metrics.push_back(std::move(metric));
    }
    if (!args.trace_out.empty() && !log.Write(args.trace_out)) {
      errors.push_back(StrCat("cannot write spans to ", args.trace_out));
      correct = false;
    }
    WriteCounts(args.counts_out, counts);
    Report(args, metrics, record, correct, errors);
  }
  return 0;
}

}  // namespace
}  // namespace tslrw::perfbench

int main(int argc, char** argv) {
  using namespace tslrw::perfbench;
  const Args args = ParseArgs(argc, argv);
  const Workload& workload = FindWorkload(args.workload);
  return args.trace ? RunTraced(args, workload) : RunEndToEnd(args, workload);
}

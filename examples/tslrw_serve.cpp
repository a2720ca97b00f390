// A closed-loop load driver for the serving layer: N client threads fire
// queries (a repeated-query mix with α-renamed spellings and per-request
// seeds) at a QueryServer over a synthetic catalog, optionally through
// faulty wrappers, then print the serving-layer counters. This is the
// "stream of client queries" deployment of \S1 Fig. 2 as a runnable
// program:
//
//   tslrw_serve [clients N] [threads N] [requests N] [queue N] [par N]
//               [faults]
//
// Exit code 0 means every admitted request completed; admission-control
// rejections are expected under overload and reported, not fatal.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "mediator/fault.h"
#include "mediator/mediator.h"
#include "obs/metrics.h"
#include "oem/generator.h"
#include "service/server.h"
#include "tsl/parser.h"

namespace {

void Fail(const tslrw::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Must(tslrw::Result<T> result) {
  if (!result.ok()) Fail(result.status());
  return std::move(result).value();
}

tslrw::TslQuery MustParse(const std::string& text, std::string name) {
  return Must(tslrw::ParseTslQuery(text, std::move(name)));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tslrw;

  size_t clients = 4;
  size_t threads = 4;
  size_t requests = 200;  // per client
  size_t queue = 256;
  size_t par = 1;  // rewrite parallelism; 0 = hardware concurrency
  bool faults = false;
  for (int i = 1; i < argc; ++i) {
    auto number = [&](const char* flag) -> size_t {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return static_cast<size_t>(std::strtoull(argv[++i], nullptr, 10));
    };
    if (std::strcmp(argv[i], "clients") == 0) {
      clients = number("clients");
    } else if (std::strcmp(argv[i], "threads") == 0) {
      threads = number("threads");
    } else if (std::strcmp(argv[i], "requests") == 0) {
      requests = number("requests");
    } else if (std::strcmp(argv[i], "queue") == 0) {
      queue = number("queue");
    } else if (std::strcmp(argv[i], "par") == 0) {
      par = number("par");
    } else if (std::strcmp(argv[i], "faults") == 0) {
      faults = true;
    } else {
      std::fprintf(stderr,
                   "usage: tslrw_serve [clients N] [threads N] "
                   "[requests N] [queue N] [par N] [faults]\n");
      return 2;
    }
  }

  // Two sources with dump capabilities over generated record data.
  std::vector<SourceDescription> sources;
  SourceCatalog catalog;
  for (int s = 0; s < 2; ++s) {
    const std::string name = StrCat("s", s);
    Capability cap;
    cap.view = MustParse(
        StrCat("<d", s, "(P') rec {<X' Y' Z'>}> :- <P' rec {<X' Y' Z'>}>@",
               name),
        StrCat("Dump", s));
    sources.push_back(SourceDescription{name, {cap}});
    GeneratorOptions data;
    data.seed = 100 + static_cast<uint64_t>(s);
    data.num_roots = 64;
    data.max_depth = 2;
    data.root_label = "rec";
    catalog.Put(GenerateOemDatabase(name, data));
  }
  Mediator mediator = Must(Mediator::Make(std::move(sources)));

  ServerOptions options;
  options.threads = threads;
  options.queue_capacity = queue;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_ticks = 1;
  options.rewrite_parallelism = par;
  MetricRegistry metrics;  // outlives the server (workers write into it)
  options.metrics = &metrics;
  WrapperFactory factory = nullptr;
  if (faults) {
    // s0 drops its first call of every request, then recovers: retries
    // win, answers stay complete, and the execution path under stress is
    // exercised end to end.
    std::map<std::string, FaultSchedule> schedules;
    FaultSchedule blip;
    blip.scripted = {Fault::Unavailable()};
    schedules["s0"] = blip;
    factory = MakeFaultInjectingWrapperFactory(std::move(schedules));
  }
  QueryServer server(std::move(mediator), std::move(catalog), options,
                     std::move(factory));

  // The workload: a small repeated-query mix, two of them α-equivalent
  // renamings of each other (they share one plan-cache entry).
  std::vector<TslQuery> mix = {
      MustParse("<f(P) out yes> :- <P rec {<X l0 v0>}>@s0", "Q0"),
      MustParse("<f(Q) out yes> :- <Q rec {<Y l0 v0>}>@s0", "Q0renamed"),
      MustParse("<f(P) out yes> :- <P rec {<X l1 v1>}>@s1", "Q1"),
      MustParse(
          "<f(P) pair yes> :- <P rec {<X l0 v0>}>@s0 AND "
          "<P rec {<Y l1 Z>}>@s0",
          "Q2"),
  };

  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> rejected_count{0};
  std::atomic<uint64_t> failed_count{0};
  std::atomic<uint64_t> hit_count{0};
  // Rewrite-search work actually paid by cold plan-cache misses, summed
  // over all requests that computed a plan list themselves.
  std::atomic<uint64_t> cold_candidates{0};
  std::atomic<uint64_t> cold_chase_hits{0};
  std::atomic<uint64_t> cold_equiv_hits{0};
  std::atomic<uint64_t> cold_verify_us{0};
  std::vector<std::thread> workers;
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      for (size_t r = 0; r < requests; ++r) {
        const TslQuery& query = mix[(c + r) % mix.size()];
        ServeOptions serve;
        serve.seed = c * 1000 + r;
        auto submitted = server.Submit(query, serve);
        if (!submitted.ok()) {
          // Admission control: back off and move on (a real client would
          // retry after the hinted delay).
          rejected_count.fetch_add(1);
          std::this_thread::yield();
          continue;
        }
        auto response = std::move(submitted).value().get();
        if (!response.ok()) {
          failed_count.fetch_add(1);
          continue;
        }
        ok_count.fetch_add(1);
        if (response->plan_cache_hit) {
          hit_count.fetch_add(1);
        } else {
          cold_candidates.fetch_add(response->plan_search.candidates_generated);
          cold_chase_hits.fetch_add(response->plan_search.chase_cache_hits);
          cold_equiv_hits.fetch_add(response->plan_search.equiv_cache_hits);
          cold_verify_us.fetch_add(response->plan_search.verify_wall_ticks);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  // The /statsz-style dump: serving-layer counters followed by every
  // metric the requests recorded (pool admission, plan cache, mediator
  // retries, rewrite-phase histograms).
  std::printf("--- /statsz ---\n%s--- end /statsz ---\n",
              server.Statsz().c_str());
  std::printf(
      "clients: %zu x %zu requests; %llu ok (%llu plan-cache hits), "
      "%llu rejected, %llu failed\n",
      clients, requests, static_cast<unsigned long long>(ok_count.load()),
      static_cast<unsigned long long>(hit_count.load()),
      static_cast<unsigned long long>(rejected_count.load()),
      static_cast<unsigned long long>(failed_count.load()));
  std::printf(
      "cold plan searches: %llu candidate(s), %llu chase / %llu equiv "
      "cache hit(s), %lluus verifying\n",
      static_cast<unsigned long long>(cold_candidates.load()),
      static_cast<unsigned long long>(cold_chase_hits.load()),
      static_cast<unsigned long long>(cold_equiv_hits.load()),
      static_cast<unsigned long long>(cold_verify_us.load()));
  if (failed_count.load() != 0) return 1;
  return 0;
}

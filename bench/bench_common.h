#ifndef TSLRW_BENCH_BENCH_COMMON_H_
#define TSLRW_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "tsl/ast.h"
#include "tsl/parser.h"

namespace tslrw::bench {

/// Parses or aborts — benchmark inputs are programmer-controlled.
inline TslQuery MustParse(const std::string& text, std::string name = "") {
  auto parsed = ParseTslQuery(text, std::move(name));
  if (!parsed.ok()) {
    std::fprintf(stderr, "bench fixture failed to parse: %s\n  %s\n",
                 parsed.status().ToString().c_str(), text.c_str());
    std::abort();
  }
  return std::move(parsed).ValueOrDie();
}

/// A "star" query: k single-path conditions on one root,
/// `<f(P) out yes> :- <P rec {<X1 l1 u1>}>@db AND ... AND
/// <P rec {<Xk lk uk>}>@db`.
inline TslQuery MakeStarQuery(int k, const std::string& source = "db") {
  std::vector<std::string> body;
  for (int i = 0; i < k; ++i) {
    body.push_back(StrCat("<P rec {<X", i, " l", i, " u", i, ">}>@", source));
  }
  return MustParse(StrCat("<f(P) out yes> :- ", Join(body, " AND ")), "Q");
}

/// A chain query of the given depth:
/// `<f(P) out yes> :- <P rec {<X1 l1 {<X2 l2 ... u>}>}>@db`.
inline TslQuery MakeChainQuery(int depth, const std::string& source = "db") {
  std::string inner = "u";
  for (int d = depth; d >= 1; --d) {
    inner = StrCat("{<X", d, " l", d, " ", inner, ">}");
  }
  return MustParse(StrCat("<f(P) out yes> :- <P rec ", inner, ">@", source),
                   "Q");
}

/// A view with m interchangeable body paths (same shape, different
/// variables), e.g. for CL-EXP-MAP: each path can map onto any of the
/// query's k star arms when labels are variables.
inline TslQuery MakeWildcardView(int m, const std::string& name,
                                 const std::string& source = "db") {
  std::vector<std::string> body;
  std::vector<std::string> head;
  for (int i = 0; i < m; ++i) {
    body.push_back(
        StrCat("<P' rec {<A", i, " B", i, " C", i, ">}>@", source));
    head.push_back(StrCat("<w", i, "(A", i, ") m", i, " C", i, ">"));
  }
  return MustParse(StrCat("<v(P') out {", Join(head, " "), "}> :- ",
                          Join(body, " AND ")),
                   name);
}

/// The dump view: republishes rec-objects and their subobjects.
inline TslQuery MakeDumpView(const std::string& name,
                             const std::string& source = "db") {
  return MustParse(StrCat("<d(P') rec {<X' Y' Z'>}> :- <P' rec {<X' Y' Z'>}>@",
                          source),
                   name);
}

/// A view whose head has b sibling branches, each able to absorb a generic
/// member path — b^n unifier combinations for a query with n generic
/// conditions over it (CL-EXP-COMP).
inline TslQuery MakeBranchyView(int b, const std::string& name,
                                const std::string& source = "db") {
  std::vector<std::string> head;
  for (int i = 0; i < b; ++i) {
    head.push_back(StrCat("<w", i, "(X", i, "') m C", i, "'>"));
  }
  std::vector<std::string> body;
  for (int i = 0; i < b; ++i) {
    body.push_back(
        StrCat("<P' rec {<X", i, "' l", i, " C", i, "'>}>@", source));
  }
  return MustParse(StrCat("<v(P') out {", Join(head, " "), "}> :- ",
                          Join(body, " AND ")),
                   name);
}

/// A query with n generic member conditions over view \p view_name, each
/// unifiable with every branch of a MakeBranchyView head.
inline TslQuery MakeGenericViewQuery(int n, const std::string& view_name) {
  std::vector<std::string> body;
  for (int i = 0; i < n; ++i) {
    body.push_back(StrCat("<v(P) out {<W", i, " M", i, " U", i, ">}>@",
                          view_name));
  }
  return MustParse(StrCat("<f(P) out yes> :- ", Join(body, " AND ")), "Q");
}

}  // namespace tslrw::bench

#endif  // TSLRW_BENCH_BENCH_COMMON_H_

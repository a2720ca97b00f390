// The \S1 "Web site management" application: a Web site is a declaratively
// defined graph over the semistructured data graph (one view per site
// section). When the data is only reachable through the site, user queries
// over the raw data graph must be rewritten as queries over the site —
// "the Web site definitions are just view definitions over the data graph".

#include <cstdio>
#include <cstdlib>

#include "eval/evaluator.h"
#include "oem/parser.h"
#include "rewrite/rewriter.h"
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

}  // namespace

int main() {
  using namespace tslrw;

  // The underlying data graph: a movie catalog.
  SourceCatalog catalog;
  catalog.Put(Must(ParseOemDatabase(R"(
    database data {
      <m1 movie { <t1 title "Metropolis"> <d1 director "Lang">
                  <g1 genre "scifi"> }>
      <m2 movie { <t2 title "Alien"> <d2 director "Scott">
                  <g2 genre "scifi"> }>
      <m3 movie { <t3 title "Heat"> <d3 director "Mann">
                  <g3 genre "crime"> }>
    })")));

  // The site: a sci-fi section page and a directors index page, each a
  // view over the data graph (URL-ish Skolem ids make nice page ids).
  TslQuery scifi_page = Must(ParseTslQuery(
      R"(<page(M') scifi-entry {<slot(X') Y' Z'>}> :-
           <M' movie {<G' genre "scifi">}>@data AND
           <M' movie {<X' Y' Z'>}>@data)",
      "ScifiPage"));
  TslQuery directors_page = Must(ParseTslQuery(
      R"(<dirent(M',D') director-entry D'> :-
           <M' movie {<X' director D'>}>@data)",
      "DirectorsPage"));

  std::printf("site definition:\n  %s\n  %s\n\n",
              scifi_page.ToString().c_str(),
              directors_page.ToString().c_str());

  // A user query over the *data graph*: titles of sci-fi movies.
  TslQuery query = Must(ParseTslQuery(
      R"(<hit(M) scifi-title T> :-
           <M movie {<G genre "scifi">}>@data AND
           <M movie {<X title T>}>@data)",
      "ScifiTitles"));
  std::printf("user query over the data graph:\n  %s\n\n",
              query.ToString().c_str());

  // Only the site is accessible: demand a total rewriting over the pages.
  RewriteOptions options;
  options.require_total = true;
  RewriteResult result =
      Must(RewriteQuery(query, {scifi_page, directors_page}, options));
  if (result.rewritings.empty()) {
    std::fprintf(stderr, "query not answerable through the site\n");
    return 1;
  }
  std::printf("rewritten over the site:\n");
  for (const TslQuery& rw : result.rewritings) {
    std::printf("  %s\n", rw.ToString().c_str());
  }

  // Serve it: materialize the site pages, evaluate the rewriting.
  SourceCatalog site;
  site.Put(Must(MaterializeView(scifi_page, catalog)));
  site.Put(Must(MaterializeView(directors_page, catalog)));
  OemDatabase via_site = Must(Evaluate(result.rewritings.front(), site,
                                       EvalOptions{.answer_name = "ans"}));
  std::printf("\nanswer served from the site:\n%s",
              via_site.ToString().c_str());

  // Sanity: identical to querying the data graph directly.
  OemDatabase direct =
      Must(Evaluate(query, catalog, EvalOptions{.answer_name = "ans"}));
  std::printf("\nidentical to the direct answer: %s\n",
              direct.Equals(via_site) ? "yes" : "NO (bug!)");

  // A query the site cannot answer: crime-movie titles (no crime section).
  TslQuery crime = Must(ParseTslQuery(
      R"(<hit(M) crime-title T> :-
           <M movie {<G genre "crime">}>@data AND
           <M movie {<X title T>}>@data)",
      "CrimeTitles"));
  RewriteResult none =
      Must(RewriteQuery(crime, {scifi_page, directors_page}, options));
  std::printf("\ncrime-movie titles through the site: %zu rewritings "
              "(the site publishes no crime section)\n",
              none.rewritings.size());
  return direct.Equals(via_site) && none.rewritings.empty() ? 0 : 1;
}

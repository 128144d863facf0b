// Quickstart: index a small XML document, inspect the SQL each translator
// generates, then answer queries through the cursor API — projected
// content, limit-k enumeration, and the paper's cost metrics — without
// retaining a DOM.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "blas/blas.h"

int main() {
  const char* xml =
      "<library>"
      "  <book genre=\"databases\">"
      "    <title>Transaction Processing</title>"
      "    <author>Gray, J.</author><author>Reuter, A.</author>"
      "    <year>1992</year>"
      "  </book>"
      "  <book genre=\"databases\">"
      "    <title>Readings in Database Systems</title>"
      "    <author>Stonebraker, M.</author>"
      "    <year>2005</year>"
      "  </book>"
      "  <journal>"
      "    <title>TODS</title>"
      "    <article><title>XPath processing</title><year>2004</year>"
      "    </article>"
      "  </journal>"
      "</library>";

  // 1. Index the document (P-labels + D-labels + value dictionary).
  blas::Result<blas::BlasSystem> sys = blas::BlasSystem::FromXml(xml);
  if (!sys.ok()) {
    std::fprintf(stderr, "index error: %s\n", sys.status().ToString().c_str());
    return 1;
  }
  blas::BlasSystem::DocStats stats = sys->doc_stats();
  std::printf("indexed %zu nodes, %zu tags, depth %d, %zu distinct paths\n\n",
              stats.nodes, stats.tags, stats.depth, stats.distinct_paths);

  // 2. A tree query: titles of the database books.
  const char* query = "/library/book[@genre=\"databases\"]/title";

  // 3. Show what each translator produces.
  for (blas::Translator t :
       {blas::Translator::kDLabel, blas::Translator::kSplit,
        blas::Translator::kPushUp, blas::Translator::kUnfold}) {
    blas::Result<std::string> sql = sys->ExplainSql(query, t);
    std::printf("--- %s ---\n%s\n\n", blas::TranslatorName(t),
                sql.ok() ? sql->c_str() : sql.status().ToString().c_str());
  }

  // 4. Enumerate answers with projected content — straight from the index,
  //    no DOM retained.
  blas::QueryOptions options;
  options.engine = blas::Engine::kAuto;
  options.projection = blas::Projection::kValue;
  blas::Result<blas::ResultCursor> cursor = sys->Open(query, options);
  if (!cursor.ok()) {
    std::fprintf(stderr, "open error: %s\n",
                 cursor.status().ToString().c_str());
    return 1;
  }
  std::printf("matched titles (%s engine):\n",
              blas::EngineName(cursor->engine()));
  while (std::optional<blas::Match> match = cursor->Next()) {
    std::printf("  [%u,%u] level %d: \"%s\"\n", match->start, match->end,
                match->level, match->content.c_str());
  }

  // 5. Or serialize whole subtrees, stopping after the first answer:
  //    bounded cursors terminate their scans early.
  options.projection = blas::Projection::kSubtree;
  options.limit = 1;
  blas::Result<blas::QueryResult> first = sys->Execute("//book", options);
  if (!first.ok()) {
    std::fprintf(stderr, "%s\n", first.status().ToString().c_str());
    return 1;
  }
  if (!first->matches.empty()) {
    std::printf("\nfirst book subtree:\n%s\n",
                first->matches[0].content.c_str());
  }

  // 6. The paper's metrics, per engine, via the one-shot Execute form.
  for (blas::Engine engine :
       {blas::Engine::kRelational, blas::Engine::kTwig}) {
    blas::Result<blas::QueryResult> result =
        sys->Execute(
            query, {.translator = blas::Translator::kPushUp, .engine = engine});
    if (!result.ok()) {
      std::fprintf(stderr, "execute error: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "%s engine: %zu matches, %llu elements visited, %llu page reads, "
        "%llu D-joins, %.3f ms\n",
        blas::EngineName(engine), result->starts.size(),
        static_cast<unsigned long long>(result->stats.elements),
        static_cast<unsigned long long>(result->stats.page_fetches),
        static_cast<unsigned long long>(result->stats.d_joins),
        result->millis);
  }
  return 0;
}

// Interactive-style explorer: indexes the Shakespeare corpus and evaluates
// XPath queries given on the command line (or a default tour), printing
// the translated SQL and the first matching lines via the cursor API —
// bounded enumeration with projected content, no DOM retained.
//
// Build & run:  ./build/examples/shakespeare_explorer ["/PLAYS/PLAY/TITLE" ...]

#include <cstdio>
#include <string>
#include <vector>

#include "blas/blas.h"
#include "gen/generator.h"

int main(int argc, char** argv) {
  blas::Result<blas::BlasSystem> sys = blas::BlasSystem::FromEvents(
      [](blas::SaxHandler* h) {
        blas::GenerateShakespeare(blas::GenOptions{}, h);
      });
  if (!sys.ok()) {
    std::fprintf(stderr, "%s\n", sys.status().ToString().c_str());
    return 1;
  }
  blas::BlasSystem::DocStats stats = sys->doc_stats();
  std::printf("Shakespeare corpus: %zu nodes, %zu tags, depth %d\n\n",
              stats.nodes, stats.tags, stats.depth);

  std::vector<std::string> queries;
  for (int i = 1; i < argc; ++i) queries.emplace_back(argv[i]);
  if (queries.empty()) {
    queries = {
        "/PLAYS/PLAY/TITLE",
        "//SPEECH/SPEAKER",
        "/PLAYS/PLAY/ACT/SCENE[TITLE ='SCENE III. A public place.']//LINE",
        "//LINE/STAGEDIR",
        "/PLAYS/PLAY[EPILOGUE]/TITLE",
    };
  }

  for (const std::string& q : queries) {
    std::printf("query: %s\n", q.c_str());
    blas::Result<std::string> sql =
        sys->ExplainSql(q, blas::Translator::kPushUp);
    if (!sql.ok()) {
      std::printf("  error: %s\n\n", sql.status().ToString().c_str());
      continue;
    }
    std::printf("push-up SQL:\n%s\n", sql->c_str());

    // Count everything once (unbounded cursors reproduce the legacy full
    // materialization)...
    blas::Result<blas::QueryResult> full =
        sys->Execute(q, {.translator = blas::Translator::kPushUp,
                         .engine = blas::Engine::kTwig});
    if (!full.ok()) {
      std::printf("  error: %s\n\n", full.status().ToString().c_str());
      continue;
    }
    std::printf("=> %zu matches in %.3f ms (%llu elements visited)\n",
                full->starts.size(), full->millis,
                static_cast<unsigned long long>(full->stats.elements));

    // ...then show the first three answers with content, paying only for
    // what is delivered: the bounded cursor stops its scans after three.
    blas::QueryOptions options;
    options.engine = blas::Engine::kAuto;
    options.limit = 3;
    options.projection = blas::Projection::kValue;
    blas::Result<blas::ResultCursor> cursor = sys->Open(q, options);
    if (!cursor.ok()) {
      std::printf("  error: %s\n\n", cursor.status().ToString().c_str());
      continue;
    }
    while (std::optional<blas::Match> match = cursor->Next()) {
      std::printf("   @%u: \"%s\"\n", match->start, match->content.c_str());
    }
    std::printf("   (%llu elements visited for the preview%s)\n\n",
                static_cast<unsigned long long>(cursor->stats().elements),
                cursor->streaming() ? ", streamed" : "");
  }
  return 0;
}

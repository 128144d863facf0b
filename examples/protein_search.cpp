// The paper's introduction scenario (section 1): a biologist looks for the
// title of a 2001 paper by Evans, M.J. about the cytochrome c protein
// family, using the XPath query of figure 2 over a protein repository.
//
// This example runs that exact query over the generated Protein corpus,
// comparing all four translators, and prints the matched titles through
// the cursor projection layer — no retained DOM.
//
// Build & run:  ./build/examples/protein_search

#include <cstdio>
#include <string>

#include "blas/blas.h"
#include "gen/generator.h"
#include "gen/queries.h"

int main() {
  blas::Result<blas::BlasSystem> sys = blas::BlasSystem::FromEvents(
      [](blas::SaxHandler* h) {
        blas::GenerateProtein(blas::GenOptions{}, h);
      });
  if (!sys.ok()) {
    std::fprintf(stderr, "%s\n", sys.status().ToString().c_str());
    return 1;
  }
  std::printf("protein repository: %zu nodes\n\n",
              sys->doc_stats().nodes);

  std::string query = blas::PaperExampleQuery();
  std::printf("query Q (figure 2):\n  %s\n\n", query.c_str());

  // Execute with every translator; they must agree.
  for (blas::Translator t :
       {blas::Translator::kDLabel, blas::Translator::kSplit,
        blas::Translator::kPushUp, blas::Translator::kUnfold}) {
    blas::Result<blas::QueryResult> r =
        sys->Execute(query,
                     {.translator = t, .engine = blas::Engine::kRelational});
    if (!r.ok()) {
      std::fprintf(stderr, "%s: %s\n", blas::TranslatorName(t),
                   r.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "%-12s %6zu matches  %8llu elements  %2llu D-joins  %.2f ms\n",
        blas::TranslatorName(t), r->starts.size(),
        static_cast<unsigned long long>(r->stats.elements),
        static_cast<unsigned long long>(r->stats.d_joins), r->millis);
  }

  // Print the first few matched titles straight from the index.
  blas::QueryOptions options;
  options.translator = blas::Translator::kUnfold;
  options.limit = 5;
  options.projection = blas::Projection::kValue;
  blas::Result<blas::ResultCursor> cursor = sys->Open(query, options);
  if (!cursor.ok()) {
    std::fprintf(stderr, "%s\n", cursor.status().ToString().c_str());
    return 1;
  }
  std::printf("\nfirst matches:\n");
  while (std::optional<blas::Match> match = cursor->Next()) {
    std::printf("  title: \"%s\"\n", match->content.c_str());
  }
  return 0;
}

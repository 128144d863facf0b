#ifndef BLAS_BLAS_QUERY_OPTIONS_H_
#define BLAS_BLAS_QUERY_OPTIONS_H_

#include <cstdint>
#include <string>

#include "translate/decomposition.h"

namespace blas {

/// Query engine selector (the paper evaluates both, sections 5.2/5.3).
enum class Engine {
  kRelational,  // RDBMS-style executor with materialized D-joins
  kTwig,        // holistic twig join over element streams
  kAuto,        // cost-based choice per plan (ChooseEngine)
};

const char* EngineName(Engine e);

/// Per-query execution options.
struct ExecOptions {
  /// Reorder D-joins by estimated input cardinality (statistics from the
  /// path summary) before execution. Off by default: the paper executes
  /// plans in decomposition order, and the ablation benchmark measures
  /// the difference.
  bool optimize_join_order = false;
};

/// What a cursor materializes for each match, directly from the NodeStore
/// and StringDict (no retained DOM needed).
enum class Projection {
  /// Positions only: start / end / level (the D-label). Match::content is
  /// empty. The default, and the only mode whose Drain() path does no
  /// per-match record lookups.
  kDLabel,
  /// Match::content is the element (or "@attribute") tag name.
  kTag,
  /// Match::content is the root-to-node simple path "/t1/t2/.../tk",
  /// decoded from the node's P-label.
  kPath,
  /// Match::content is the node's direct character data (attribute value
  /// for attributes; empty for nodes without data).
  kValue,
  /// Match::content is the canonical XML serialization of the node's
  /// subtree (attributes inline, character data before child elements) —
  /// reconstructed from the document-order index, byte-identical to
  /// serializing the corresponding DOM subtree.
  kSubtree,
};

const char* ProjectionName(Projection p);

/// \brief Unified per-query knobs of the cursor API, shared by
/// BlasSystem, QueryService and BlasCollection.
struct QueryOptions {
  Translator translator = Translator::kPushUp;
  /// kAuto resolves per plan via the cost model.
  Engine engine = Engine::kAuto;
  ExecOptions exec;
  /// Deliver at most `limit` matches; 0 means unlimited. A bounded cursor
  /// uses the streaming producers and terminates early: scans stop as soon
  /// as `offset + limit` matches have been produced, instead of paying for
  /// every answer that exists.
  uint64_t limit = 0;
  /// Skip the first `offset` matches (in document order) before
  /// delivering.
  uint64_t offset = 0;
  /// Per-match content materialization.
  Projection projection = Projection::kDLabel;
  /// Collect a per-stage trace (span tree) for this query into the
  /// service's recent-traces ring; see QueryService and obs/trace.h.
  /// Queries may also be traced without this flag via
  /// ServiceOptions::trace_sample_every.
  bool trace = false;
};

/// One delivered answer: the match's D-label plus projected content.
struct Match {
  uint32_t start = 0;
  uint32_t end = 0;
  int32_t level = 0;
  /// Per QueryOptions::projection; empty under Projection::kDLabel.
  std::string content;
};

}  // namespace blas

#endif  // BLAS_BLAS_QUERY_OPTIONS_H_

#ifndef BLAS_LABELING_PLABEL_H_
#define BLAS_LABELING_PLABEL_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/u128.h"
#include "labeling/tag_registry.h"

namespace blas {

/// A P-label value (the `p1` integer assigned to an XML node, definition
/// 3.3 of the paper).
using PLabel = u128;

/// \brief P-label interval <p1, p2> of a suffix path expression
/// (definition 3.2).
struct PLabelRange {
  PLabel lo = 1;
  PLabel hi = 0;  // default: the empty range

  bool empty() const { return lo > hi; }
  bool Contains(PLabel p) const { return lo <= p && p <= hi; }
  /// Interval containment = path-expression containment (definition 3.2).
  bool ContainsRange(const PLabelRange& other) const {
    return lo <= other.lo && other.hi <= hi;
  }
  bool Overlaps(const PLabelRange& other) const {
    return !(hi < other.lo || other.hi < lo);
  }
  bool operator==(const PLabelRange& other) const {
    return lo == other.lo && hi == other.hi;
  }
};

/// \brief Exact-integer implementation of the paper's P-labeling scheme
/// (algorithms 1 and 2).
///
/// With n distinct tags the label domain is split uniformly: base
/// B = n + 1 (one slot for "/" plus one per tag), and the domain is
/// m = B^H where H is the interval-partitioning height. A P-label is then
/// a base-B fixed-point number whose most-significant digit is the node's
/// own tag, the next digit its parent's tag, and so on (the reversed source
/// path), terminated by the 0 digit of the "/" slot. Because every interval
/// width is a power of B, all of the paper's ratio arithmetic is exact.
///
/// Capacity: H = floor(127 / log2(B)) digits fit in the 128-bit label, so
/// documents may be at most H - 1 levels deep (e.g. 77 tags -> depth 19).
class PLabelCodec {
 public:
  /// Creates a codec for `num_tags` distinct tags supporting documents of
  /// depth up to `max_depth`. Fails with CapacityExceeded when
  /// (num_tags+1)^(max_depth+1) does not fit in 128 bits (so depth never
  /// exceeds 126) or when num_tags exceeds kMaxTagId (node_record.h).
  static Result<PLabelCodec> Create(size_t num_tags, int max_depth);

  /// Number of base-B digits in a label.
  int height() const { return height_; }
  /// The base B = num_tags + 1.
  u128 base() const { return base_; }
  /// Size of the label domain, m = B^height.
  u128 domain() const { return pow_[height_]; }
  /// Deepest supported document level.
  int max_depth() const { return height_ - 1; }

  /// P-label of the document root tagged `tag` (algorithm 2, first push).
  PLabel RootLabel(TagId tag) const {
    return static_cast<u128>(tag) * pow_[height_ - 1];
  }

  /// P-label of a child tagged `tag` under a node labeled `parent`
  /// (algorithm 2 inner step, O(1) per node).
  PLabel ChildLabel(PLabel parent, TagId tag) const {
    return static_cast<u128>(tag) * pow_[height_ - 1] + parent / base_;
  }

  /// P-label of the parent of a node labeled `label` (ChildLabel's
  /// inverse): drops the node's own tag digit. A root's parent is 0, the
  /// "/" slot.
  PLabel ParentLabel(PLabel label) const {
    return label % pow_[height_ - 1] * base_;
  }

  /// \brief P-label interval of the suffix path `alpha t1/.../tk`
  /// (algorithm 1).
  ///
  /// `tags` are in root-to-leaf order; `absolute` selects alpha = '/'
  /// (a simple path) instead of '//'. Returns the empty range when the
  /// path is deeper than the codec supports (it can match no node).
  PLabelRange SuffixInterval(const std::vector<TagId>& tags,
                             bool absolute) const;

  /// Interval of the path "//" (every node).
  PLabelRange AllNodes() const { return PLabelRange{0, domain() - 1}; }

  /// Decodes a node label back into its source path (tag ids, root first).
  /// Used by diagnostics and tests.
  std::vector<TagId> DecodePath(PLabel label) const;

 private:
  PLabelCodec(u128 base, int height, std::vector<u128> pow)
      : base_(base), height_(height), pow_(std::move(pow)) {}

  u128 base_;
  int height_;
  std::vector<u128> pow_;  // pow_[i] = base_^i, i in [0, height_]
};

}  // namespace blas

#endif  // BLAS_LABELING_PLABEL_H_

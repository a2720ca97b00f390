#ifndef TSLRW_REWRITE_VIEW_INDEX_H_
#define TSLRW_REWRITE_VIEW_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "constraints/inference.h"
#include "rewrite/chase.h"
#include "tsl/ast.h"

namespace tslrw {

/// How a view index classified one view.
enum class IndexedViewState : uint8_t {
  /// Chased at build time; the stored chase outcome and structural
  /// signature answer every probe.
  kIndexed = 0,
  /// Not chased at build time (over the chase budget, or the chase failed
  /// hard); admitted by every probe and chased per query, so its outcome —
  /// an error included — surfaces exactly as in the full scan.
  kAlwaysScan = 1,
  /// The chase proved the view empty under the constraints; never
  /// admitted — the full scan drops such views identically.
  kUnsatisfiable = 2,
  /// Failed validation (unnamed, ill-formed, or regex-stepped); the index
  /// is unservable and every search takes the full scan.
  kInvalid = 3,
};

/// One view's entry: classification, stored chase outcome, and signature.
struct IndexedView {
  std::string name;
  IndexedViewState state = IndexedViewState::kIndexed;
  /// The build-time chase outcome; empty unless kIndexed.
  TslQuery chased;
  /// RequiredFeatures(chased), sorted; empty unless kIndexed.
  std::vector<std::string> required;
  /// The index-wide rarest feature in `required` — the one anchor bucket
  /// this view is filed under. Empty unless kIndexed; an indexed view with
  /// no required features (it maps into anything) has none and is
  /// admitted by every probe.
  std::string anchor;
  /// Why the build-time chase did not index the view: Unsatisfiable for
  /// kUnsatisfiable, the hard error for a kAlwaysScan view whose chase
  /// failed, OK otherwise.
  Status chase_status = Status::OK();
};

/// Counters one index probe reports back to the rewriter's metrics.
struct ViewProbeOutcome {
  /// Views handed to candidate enumeration (admissible for this query).
  size_t admitted = 0;
  /// Views the index proved can contribute no containment mapping.
  size_t skipped = 0;
};

/// \brief A structural index over one fixed view set, consulted by
/// RewriteQuery in place of its per-query chase-every-view scan (Step 1A
/// of \S3.4). Every Mediator builds one over its capability views at Make;
/// the catalog compiler (src/catalog) wraps one with its report.
///
/// The contract is exactness: for the view set it was built over, under
/// the constraints it was built with, a probe yields a byte-identical
/// RewriteResult to chasing and scanning every view (docs/CATALOG.md gives
/// the argument). Immutable after construction; safe to share across
/// threads.
class ViewIndex {
 public:
  /// Chases every view once under \p constraints, with every view name
  /// exempt — exactly the options RewriteQuery chases views with — and
  /// files each chased view under its rarest required feature. A view
  /// whose normal-form body has more than \p max_chase_conditions
  /// conditions, or whose chase fails hard, is left kAlwaysScan.
  static ViewIndex Build(const std::vector<TslQuery>& views,
                         const StructuralConstraints* constraints,
                         size_t max_chase_conditions =
                             std::numeric_limits<size_t>::max());

  /// Cheap per-query gate: true iff \p views is the view set this index
  /// was built over (size and per-ordinal names) and every view passed
  /// validation. Replans over live-view subsets return false here and take
  /// the full scan, which keeps failover behavior byte-identical.
  bool CoversViews(const std::vector<TslQuery>& views) const;

  /// The chased views RewriteQuery should enumerate candidates over for
  /// \p chased_query, in the same relative order as \p views: stored
  /// outcomes for views whose signature admits a containment mapping (plus
  /// the views composition must be able to resolve by name), nothing for
  /// the rest. kAlwaysScan views are chased here under \p chase_options,
  /// which must be the options the caller would chase views with, so their
  /// errors propagate exactly as from the full scan. When
  /// `chase_options.fired_constraints` is set, the constraint keys that
  /// fired while chasing the stored views are merged into it — the full
  /// scan would have fired them too. Returns nullopt unless
  /// CoversViews(views).
  Result<std::optional<std::vector<TslQuery>>> ChasedViewsFor(
      const TslQuery& chased_query, const std::vector<TslQuery>& views,
      const ChaseOptions& chase_options, ViewProbeOutcome* outcome) const;

  const std::vector<IndexedView>& views() const { return views_; }
  /// Union of the constraint keys that fired while chasing the views.
  const std::set<std::string>& fired_constraints() const {
    return fired_constraints_;
  }
  /// False when some view is kInvalid (or two views share a name): the
  /// signatures of such a view set prove nothing, so probes decline.
  bool servable() const { return servable_; }

 private:
  ViewIndex() = default;

  /// Fills the name map and anchor buckets from views_.
  void FileViews();

  std::vector<IndexedView> views_;
  std::set<std::string> fired_constraints_;
  /// anchor feature -> ordinals of kIndexed views filed under it.
  std::unordered_map<std::string, std::vector<uint32_t>> anchor_buckets_;
  /// Ordinals admitted to every probe, ascending: kAlwaysScan entries plus
  /// kIndexed entries with no required features.
  std::vector<uint32_t> always_admit_;
  /// view name -> ordinal.
  std::unordered_map<std::string, uint32_t> by_name_;
  bool servable_ = true;
};

}  // namespace tslrw

#endif  // TSLRW_REWRITE_VIEW_INDEX_H_

#include "rewrite/signature.h"

#include <algorithm>

#include "common/string_util.h"
#include "tsl/normal_form.h"

namespace tslrw {

namespace {

std::string SourceFeature(const std::string& source) {
  return StrCat("s:", source);
}

std::string DepthFeature(const std::string& source, size_t depth) {
  return StrCat("d:", source, ":", depth);
}

std::string LabelFeature(const std::string& source, size_t step,
                         const std::string& label) {
  return StrCat("l:", source, ":", step, ":", label);
}

std::string TailFeature(const std::string& source, const std::string& atom) {
  return StrCat("t:", source, ":", atom);
}

}  // namespace

Result<std::vector<std::string>> RequiredFeatures(
    const TslQuery& chased_view) {
  TSLRW_ASSIGN_OR_RETURN(std::vector<Path> paths, BodyPaths(chased_view));
  std::set<std::string> required;
  for (const Path& path : paths) {
    required.insert(SourceFeature(path.source));
    required.insert(DepthFeature(path.source, path.depth()));
    for (size_t i = 0; i < path.steps.size(); ++i) {
      if (path.steps[i].label.is_atom()) {
        required.insert(
            LabelFeature(path.source, i, path.steps[i].label.atom_name()));
      }
    }
    if (path.tail.is_term() && path.tail.term().is_atom()) {
      required.insert(TailFeature(path.source, path.tail.term().atom_name()));
    }
  }
  return std::vector<std::string>(required.begin(), required.end());
}

Result<QueryFeatureSet> ProvidedFeatures(const TslQuery& chased_query) {
  TSLRW_ASSIGN_OR_RETURN(std::vector<Path> paths, BodyPaths(chased_query));
  QueryFeatureSet out;
  for (const Path& path : paths) {
    out.sources.insert(path.source);
    out.provided.insert(SourceFeature(path.source));
    // A view path of depth d maps only into query paths of depth >= d, so
    // a query path of depth n provides every depth feature up to n.
    for (size_t k = 1; k <= path.depth(); ++k) {
      out.provided.insert(DepthFeature(path.source, k));
    }
    for (size_t i = 0; i < path.steps.size(); ++i) {
      if (path.steps[i].label.is_atom()) {
        out.provided.insert(
            LabelFeature(path.source, i, path.steps[i].label.atom_name()));
      }
    }
    if (path.tail.is_term() && path.tail.term().is_atom()) {
      out.provided.insert(
          TailFeature(path.source, path.tail.term().atom_name()));
    }
  }
  return out;
}

bool FeaturesSubset(const std::vector<std::string>& required,
                    const std::set<std::string>& provided) {
  for (const std::string& r : required) {
    if (provided.count(r) == 0) return false;
  }
  return true;
}

}  // namespace tslrw

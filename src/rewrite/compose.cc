#include "rewrite/compose.h"

#include <algorithm>
#include <deque>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/string_util.h"
#include "tsl/normal_form.h"

namespace tslrw {

namespace {

/// Unifies the remaining steps of \p path (from index \p i) against the
/// head node \p node, collecting every successful unifier into \p out.
/// Each unification puts the head's term first, so a head variable meeting
/// a path term is the one bound.
void Descend(const Path& path, size_t i, const ObjectPattern& node,
             Substitution subst, std::vector<Substitution>* out) {
  if (!subst.UnifyTerms(node.oid, path.steps[i].oid)) return;
  if (!subst.UnifyTerms(node.label, path.steps[i].label)) return;
  const size_t d = i + 1;
  if (d == path.steps.size()) {
    // Tail position.
    if (path.tail.is_term()) {
      const Term& t = path.tail.term();
      if (node.value.is_term()) {
        if (subst.UnifyTerms(node.value.term(), t)) {
          out->push_back(std::move(subst));
        }
      } else if (t.is_var() && subst.BindSet(t, node.value.set())) {
        // The condition's tail variable denotes the view object's set
        // value: bind it to the constructed members.
        out->push_back(std::move(subst));
      }
      return;
    }
    // Tail `{}`: the view object must be set-valued.
    if (node.value.is_set()) {
      out->push_back(std::move(subst));
    } else if (node.value.term().is_var() &&
               subst.BindSet(node.value.term(), SetPattern{})) {
      // Copied value: the copied source object must itself be a set.
      out->push_back(std::move(subst));
    }
    return;
  }
  // The path continues below this head object.
  if (node.value.is_set()) {
    for (const ObjectPattern& member : node.value.set()) {
      Descend(path, d, member, subst, out);
    }
    return;
  }
  const Term& u = node.value.term();
  if (u.is_var()) {
    // The view copies the source subgraph bound to u here; the remaining
    // path must hold inside that subgraph. Pushing it into the view body
    // as a set binding expresses exactly that (copied objects keep their
    // source oids).
    Path rest;
    rest.steps.assign(path.steps.begin() + static_cast<long>(d),
                      path.steps.end());
    rest.tail = path.tail;
    rest.source = path.source;
    if (subst.BindSet(u, SetPattern{UnflattenPath(rest).pattern})) {
      out->push_back(std::move(subst));
    }
  }
  // Below an atomic head value there is nothing to match.
}

std::vector<Substitution> UnifyPathWithHead(const Path& path,
                                            const ObjectPattern& head) {
  std::vector<Substitution> out;
  Descend(path, 0, head, Substitution(), &out);
  return out;
}

/// Appends \p rule to \p rules unless an equal rule (head and body; the
/// name is ignored) is there already. \p index maps HashRule to positions
/// in \p rules.
void AddUnique(TslQuery&& rule, TslRuleSet* rules,
               std::unordered_multimap<size_t, size_t>* index) {
  const size_t hash = HashRule(rule);
  const auto [first, last] = index->equal_range(hash);
  if (std::any_of(first, last, [&](const auto& entry) {
        return rules->rules[entry.second] == rule;
      })) {
    return;
  }
  index->emplace(hash, rules->rules.size());
  rules->rules.push_back(std::move(rule));
}

}  // namespace

void ComposeCache::IndexViews() {
  if (indexed_) return;
  indexed_ = true;
  for (size_t i = 0; i < views_.size(); ++i) view_at_[views_[i].name] = i;
}

Result<const ComposeCache::Entry*> ComposeCache::Lookup(
    const Condition& condition) {
  auto it = entries_.find(condition);
  if (it != entries_.end()) return &it->second;

  TSLRW_ASSIGN_OR_RETURN(Path path, FlattenPath(condition));
  for (const Path::Step& step : path.steps) {
    if (step.kind != StepKind::kChild) {
      return Status::IllFormedQuery(
          StrCat("condition ", condition.ToString(),
                 " uses a regular path step over a view; composition of "
                 "regular path expressions is unsupported (\\S7 future "
                 "work)"));
    }
  }
  const TslQuery view = RenameVariablesApart(
      views_[view_at_.at(condition.source)], StrCat("_i", ++instances_));
  std::set<Term> own;  // the instance's variables
  view.head.CollectVariables(&own);
  for (const Condition& c : view.body) c.pattern.CollectVariables(&own);

  Entry entry;
  for (Substitution& unifier : UnifyPathWithHead(path, view.head)) {
    for (const auto& [var, term] : unifier.terms().bindings()) {
      entry.local = entry.local && own.count(var) > 0;
    }
    for (const auto& [var, members] : unifier.sets()) {
      entry.local = entry.local && own.count(var) > 0;
    }
    Resolvent r;
    r.body.reserve(view.body.size());
    for (const Condition& c : view.body) {
      r.body.push_back(unifier.Apply(c));
      r.refers_to_views = r.refers_to_views || IsView(c.source);
    }
    r.unifier = std::move(unifier);
    entry.resolvents.push_back(std::move(r));
  }
  return &entries_.emplace(condition, std::move(entry)).first->second;
}

Result<TslRuleSet> ComposeWithViews(const TslQuery& rewriting,
                                    const std::vector<TslQuery>& views) {
  ComposeCache cache(views);
  return ComposeWithViews(rewriting, &cache);
}

Result<TslRuleSet> ComposeWithViews(const TslQuery& rewriting,
                                    ComposeCache* cache) {
  cache->IndexViews();

  /// A rule still to resolve; `resolved` marks one known to hold no view
  /// condition.
  struct Item {
    TslQuery rule;
    bool resolved = false;
  };
  std::deque<Item> work;
  work.push_back(Item{ToNormalForm(rewriting), false});
  TslRuleSet result;
  std::unordered_multimap<size_t, size_t> result_index;  // HashRule -> rule
  std::vector<size_t> at;  // body positions resolved in this step
  std::vector<const ComposeCache::Entry*> entries;
  std::vector<size_t> choice;
  // Far above anything legal inputs produce; cyclic view definitions (a
  // view whose body refers to itself) are the only way to approach it.
  constexpr int kMaxSteps = 100000;
  for (int steps = 0; !work.empty(); ++steps) {
    if (steps > kMaxSteps) {
      return Status::InvalidArgument(
          "composition did not terminate; are the view definitions cyclic?");
    }
    Item item = std::move(work.front());
    work.pop_front();
    TslQuery& rule = item.rule;

    // The leading run of view conditions with local entries, or the first
    // view condition alone when its entry is not local.
    at.clear();
    entries.clear();
    bool dropped = false;
    bool rest_has_views = false;
    for (size_t i = 0; !item.resolved && i < rule.body.size(); ++i) {
      if (!cache->IsView(rule.body[i].source)) continue;
      TSLRW_ASSIGN_OR_RETURN(const ComposeCache::Entry* entry,
                             cache->Lookup(rule.body[i]));
      if (entry->resolvents.empty()) {
        // No unifier: this rule can never produce answers; drop it.
        dropped = true;
        break;
      }
      if (!entry->local && !at.empty()) {
        rest_has_views = true;  // resolved by a later step
        break;
      }
      at.push_back(i);
      entries.push_back(entry);
      if (!entry->local) break;
    }
    if (dropped) continue;
    if (at.empty()) {
      // Fully resolved: keep if not a duplicate.
      AddUnique(std::move(rule), &result, &result_index);
      continue;
    }

    if (!entries.front()->local) {
      // Resolve this one condition, applying its unifier to the whole rule.
      const size_t pos = at.front();
      for (const ComposeCache::Resolvent& r : entries.front()->resolvents) {
        TslQuery resolvent;
        resolvent.name = rule.name;
        resolvent.head = r.unifier.Apply(rule.head);
        resolvent.body.reserve(rule.body.size() - 1 + r.body.size());
        for (size_t i = 0; i < rule.body.size(); ++i) {
          if (i != pos) resolvent.body.push_back(r.unifier.Apply(rule.body[i]));
        }
        resolvent.body.insert(resolvent.body.end(), r.body.begin(),
                              r.body.end());
        work.push_back(Item{ToNormalForm(std::move(resolvent)), false});
      }
      continue;
    }

    // Local entries touch nothing outside their instance: one resolvent per
    // combination of unifiers, in lexicographic order (first condition
    // most significant), each the untouched rest of the rule followed by
    // the chosen bodies.
    choice.assign(entries.size(), 0);
    while (true) {
      Item resolvent;
      resolvent.rule.name = rule.name;
      resolvent.rule.head = rule.head;
      for (size_t i = 0, a = 0; i < rule.body.size(); ++i) {
        if (a < at.size() && at[a] == i) {
          ++a;
        } else {
          resolvent.rule.body.push_back(rule.body[i]);
        }
      }
      bool refers_to_views = rest_has_views;
      for (size_t k = 0; k < entries.size(); ++k) {
        const ComposeCache::Resolvent& r = entries[k]->resolvents[choice[k]];
        resolvent.rule.body.insert(resolvent.rule.body.end(),
                                   r.body.begin(), r.body.end());
        refers_to_views = refers_to_views || r.refers_to_views;
      }
      resolvent.rule = ToNormalForm(std::move(resolvent.rule));
      resolvent.resolved = !refers_to_views;
      work.push_back(std::move(resolvent));
      size_t k = entries.size();
      while (k > 0 && ++choice[k - 1] == entries[k - 1]->resolvents.size()) {
        choice[--k] = 0;
      }
      if (k == 0) break;
    }
  }
  return result;
}

Result<TslRuleSet> ComposeWithViews(const TslRuleSet& rewriting,
                                    const std::vector<TslQuery>& views) {
  ComposeCache cache(views);
  TslRuleSet out;
  std::unordered_multimap<size_t, size_t> out_index;  // HashRule -> rule
  for (const TslQuery& rule : rewriting.rules) {
    TSLRW_ASSIGN_OR_RETURN(TslRuleSet part,
                           ComposeWithViews(rule, &cache));
    for (TslQuery& r : part.rules) AddUnique(std::move(r), &out, &out_index);
  }
  return out;
}

}  // namespace tslrw

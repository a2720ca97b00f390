#include "rewrite/alpha_ids.h"

#include <algorithm>
#include <utility>

#include "tsl/canonical.h"

namespace tslrw {

template <typename T>
const AlphaIdTable::Part& AlphaIdTable::Intern(Table<T>& table,
                                               const T& part) {
  const Probe<T> probe{&part, table.hash_function()(part)};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = table.find(probe);
    if (it != table.end()) return it->second;
  }
  AlphaKey alpha = AlphaKeyOf(part);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, fresh] = table.try_emplace(part);
  if (!fresh) return it->second;  // another worker made it meanwhile
  Part& entry = it->second;
  entry.exact = static_cast<uint32_t>(table.size() - 1);
  entry.alpha =
      alpha_ids_
          .try_emplace(std::move(alpha.key),
                       static_cast<uint32_t>(alpha_ids_.size()))
          .first->second;
  entry.vars.reserve(alpha.vars.size());
  for (const Term& var : alpha.vars) {
    entry.vars.push_back(
        var_ids_.try_emplace(var, static_cast<uint32_t>(var_ids_.size()))
            .first->second);
  }
  return entry;
}

const AlphaIdTable::Part& AlphaIdTable::Of(const Condition& condition) {
  return Intern(conditions_, condition);
}

const AlphaIdTable::Part& AlphaIdTable::Of(const ObjectPattern& head) {
  return Intern(heads_, head);
}

std::vector<uint32_t> AlphaIdTable::Fingerprint(
    const Part& head, const std::vector<const Part*>& body) {
  const size_t n = body.size();
  std::vector<uint64_t> order;  // α-id above body position: a stable sort
  order.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    order.push_back(uint64_t{body[i]->alpha} << 32 | i);
  }
  std::sort(order.begin(), order.end());
  std::vector<uint32_t> key;
  key.reserve(2 + 4 * n);
  key.push_back(head.alpha);
  key.push_back(static_cast<uint32_t>(n));
  for (uint64_t o : order) key.push_back(static_cast<uint32_t>(o >> 32));
  // A rule has a couple dozen variables at most: a linear scan indexes
  // them.
  std::vector<uint32_t> seen;  // variable ids, in first-occurrence order
  auto wire = [&](const Part& part) {
    for (uint32_t var : part.vars) {
      const auto at = static_cast<uint32_t>(
          std::find(seen.begin(), seen.end(), var) - seen.begin());
      if (at == seen.size()) seen.push_back(var);
      key.push_back(at);
    }
  };
  wire(head);
  for (uint64_t o : order) wire(*body[static_cast<uint32_t>(o)]);
  return key;
}

std::vector<uint32_t> AlphaIdTable::VerdictKey(const TslRuleSet& rules) {
  std::vector<std::vector<uint32_t>> rule_keys;
  rule_keys.reserve(rules.rules.size());
  std::vector<const Part*> body;
  for (const TslQuery& rule : rules.rules) {
    body.clear();
    for (const Condition& c : rule.body) body.push_back(&Of(c));
    rule_keys.push_back(Fingerprint(Of(rule.head), body));
  }
  std::sort(rule_keys.begin(), rule_keys.end());
  std::vector<uint32_t> out;
  out.push_back(static_cast<uint32_t>(rule_keys.size()));
  for (const std::vector<uint32_t>& key : rule_keys) {
    out.push_back(static_cast<uint32_t>(key.size()));
    out.insert(out.end(), key.begin(), key.end());
  }
  return out;
}

}  // namespace tslrw

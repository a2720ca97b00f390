#include "oem/database.h"

#include <cctype>
#include <deque>

#include "common/string_util.h"

namespace tslrw {

OemValue OemValue::Atomic(std::string datum) {
  OemValue v;
  v.atomic_ = std::move(datum);
  return v;
}

OemValue OemValue::EmptySet() { return OemValue(); }

OemValue OemValue::Set(std::set<Oid> children) {
  OemValue v;
  v.children_ = std::move(children);
  return v;
}

Status OemDatabase::PutAtomic(const Oid& oid, std::string label,
                              std::string datum) {
  if (!oid.IsGround()) {
    return Status::InvalidArgument(
        StrCat("object id must be ground: ", oid.ToString()));
  }
  auto it = objects_.find(oid);
  if (it != objects_.end()) {
    const OemObject& existing = it->second;
    if (existing.label != label || !existing.is_atomic() ||
        existing.value.atom() != datum) {
      return Status::InvalidArgument(
          StrCat("object id ", oid.ToString(),
                 " already bound to different content"));
    }
    return Status::OK();
  }
  objects_.emplace(oid, OemObject{oid, std::move(label),
                                  OemValue::Atomic(std::move(datum))});
  return Status::OK();
}

Status OemDatabase::PutSet(const Oid& oid, std::string label,
                           std::set<Oid> children) {
  if (!oid.IsGround()) {
    return Status::InvalidArgument(
        StrCat("object id must be ground: ", oid.ToString()));
  }
  auto it = objects_.find(oid);
  if (it != objects_.end()) {
    OemObject& existing = it->second;
    if (existing.label != label || existing.is_atomic()) {
      return Status::InvalidArgument(
          StrCat("object id ", oid.ToString(),
                 " already bound to different content"));
    }
    for (const Oid& c : children) existing.value.AddChild(c);
    return Status::OK();
  }
  objects_.emplace(oid, OemObject{oid, std::move(label),
                                  OemValue::Set(std::move(children))});
  return Status::OK();
}

Status OemDatabase::AddEdge(const Oid& parent, const Oid& child) {
  auto it = objects_.find(parent);
  if (it == objects_.end()) {
    return Status::NotFound(StrCat("no object ", parent.ToString()));
  }
  if (it->second.is_atomic()) {
    return Status::InvalidArgument(
        StrCat("atomic object ", parent.ToString(), " cannot have children"));
  }
  it->second.value.AddChild(child);
  return Status::OK();
}

Status OemDatabase::AddRoot(const Oid& oid) {
  if (!oid.IsGround()) {
    return Status::InvalidArgument(
        StrCat("root oid must be ground: ", oid.ToString()));
  }
  roots_.insert(oid);
  return Status::OK();
}

const OemObject* OemDatabase::Find(const Oid& oid) const {
  auto it = objects_.find(oid);
  return it == objects_.end() ? nullptr : &it->second;
}

std::set<Oid> OemDatabase::ReachableOids() const {
  std::set<Oid> seen;
  std::deque<Oid> work(roots_.begin(), roots_.end());
  while (!work.empty()) {
    Oid oid = work.front();
    work.pop_front();
    if (!seen.insert(oid).second) continue;
    const OemObject* obj = Find(oid);
    if (obj == nullptr || obj->is_atomic()) continue;
    for (const Oid& c : obj->value.children()) work.push_back(c);
  }
  return seen;
}

Status OemDatabase::Validate() const {
  for (const Oid& r : roots_) {
    if (Find(r) == nullptr) {
      return Status::NotFound(StrCat("dangling root ", r.ToString()));
    }
  }
  for (const auto& [oid, obj] : objects_) {
    if (obj.is_atomic()) continue;
    for (const Oid& c : obj.value.children()) {
      if (Find(c) == nullptr) {
        return Status::NotFound(StrCat("object ", oid.ToString(),
                                       " references missing child ",
                                       c.ToString()));
      }
    }
  }
  return Status::OK();
}

bool OemDatabase::Equals(const OemDatabase& other) const {
  std::set<Oid> mine = ReachableOids();
  std::set<Oid> theirs = other.ReachableOids();
  if (mine != theirs) return false;
  if (roots_ != other.roots_) return false;
  for (const Oid& oid : mine) {
    const OemObject* a = Find(oid);
    const OemObject* b = other.Find(oid);
    if (a == nullptr || b == nullptr) return false;
    if (a->label != b->label) return false;
    if (!(a->value == b->value)) return false;
  }
  return true;
}

namespace {

/// Quotes a datum when it is not a bare identifier.
std::string RenderDatum(const std::string& s) {
  bool bare = !s.empty();
  for (char c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '-')) {
      bare = false;
      break;
    }
  }
  if (bare && !std::isdigit(static_cast<unsigned char>(s[0]))) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

void RenderObject(const OemDatabase& db, const Oid& oid, int indent,
                  std::set<Oid>* rendered, std::string* out) {
  auto pad = [&](int n) { out->append(static_cast<size_t>(n) * 2, ' '); };
  pad(indent);
  if (rendered->count(oid) > 0) {
    // Shared or cyclic structure: reference an already-rendered object.
    out->append(StrCat("@", oid.ToString(), "\n"));
    return;
  }
  const OemObject* obj = db.Find(oid);
  if (obj == nullptr) {
    out->append(StrCat("@", oid.ToString(), "\n"));  // dangling reference
    return;
  }
  rendered->insert(oid);
  if (obj->is_atomic()) {
    out->append(StrCat("<", oid.ToString(), " ", RenderDatum(obj->label), " ",
                       RenderDatum(obj->value.atom()), ">\n"));
    return;
  }
  out->append(StrCat("<", oid.ToString(), " ", RenderDatum(obj->label),
                     " {\n"));
  for (const Oid& c : obj->value.children()) {
    RenderObject(db, c, indent + 1, rendered, out);
  }
  pad(indent);
  out->append("}>\n");
}

}  // namespace

std::string OemDatabase::ToString() const {
  std::string out = StrCat("database ", name_.empty() ? "db" : name_, " {\n");
  std::set<Oid> rendered;
  for (const Oid& r : roots_) {
    RenderObject(*this, r, 1, &rendered, &out);
  }
  out += "}\n";
  return out;
}

void SourceCatalog::Put(OemDatabase db) {
  std::string name = db.name();
  sources_.insert_or_assign(std::move(name), std::move(db));
}

Result<const OemDatabase*> SourceCatalog::Find(std::string_view name) const {
  auto it = sources_.find(name);
  if (it == sources_.end()) {
    return Status::NotFound(StrCat("no source named ", name));
  }
  return &it->second;
}

bool SourceCatalog::Contains(std::string_view name) const {
  return sources_.find(name) != sources_.end();
}

}  // namespace tslrw

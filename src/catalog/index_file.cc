#include "catalog/index_file.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "tsl/canonical.h"
#include "tsl/parser.h"

namespace tslrw {

namespace {

// --- little-endian primitives ----------------------------------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

/// Bounds-checked cursor over the payload; every short read is kDataLoss.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  Result<uint8_t> U8() {
    TSLRW_RETURN_NOT_OK(Need(1));
    return static_cast<uint8_t>(bytes_[pos_++]);
  }

  Result<uint32_t> U32() {
    TSLRW_RETURN_NOT_OK(Need(4));
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  Result<uint64_t> U64() {
    TSLRW_RETURN_NOT_OK(Need(8));
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  Result<std::string> String() {
    TSLRW_ASSIGN_OR_RETURN(uint32_t len, U32());
    TSLRW_RETURN_NOT_OK(Need(len));
    std::string s(bytes_.substr(pos_, len));
    pos_ += len;
    return s;
  }

  /// An element count. Every element takes at least one byte, so a count
  /// above the bytes left is corrupt: refusing it keeps a mutated count
  /// from sizing a reserve() by gigabytes.
  Result<uint32_t> Count() {
    TSLRW_ASSIGN_OR_RETURN(uint32_t n, U32());
    TSLRW_RETURN_NOT_OK(Need(n));
    return n;
  }

  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  Status Need(size_t n) {
    if (bytes_.size() - pos_ < n) {
      return Status::DataLoss("catalog index payload is truncated");
    }
    return Status::OK();
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

std::string SerializePayload(const CompiledCatalog& catalog) {
  const std::vector<IndexedView>& views = catalog.index().views();
  std::string p;
  PutU64(&p, catalog.constraints_fingerprint());
  PutU8(&p, catalog.lattice_truncated() ? 1 : 0);
  PutU32(&p, static_cast<uint32_t>(views.size()));
  for (size_t i = 0; i < views.size(); ++i) {
    const IndexedView& v = views[i];
    const CompiledViewEntry& e = catalog.entries()[i];
    PutString(&p, v.name);
    PutString(&p, e.source);
    PutU8(&p, static_cast<uint8_t>(v.state));
    PutU64(&p, e.raw_fingerprint);
    PutU64(&p, e.chased_fingerprint);
    PutString(&p, v.state == IndexedViewState::kIndexed ? v.chased.ToString()
                                                        : std::string());
    PutU32(&p, static_cast<uint32_t>(v.required.size()));
    for (const std::string& f : v.required) PutString(&p, f);
    PutString(&p, v.anchor);
    PutU32(&p, static_cast<uint32_t>(e.bound_variables.size()));
    for (const std::string& b : e.bound_variables) PutString(&p, b);
  }
  const std::set<std::string>& fired = catalog.index().fired_constraints();
  PutU32(&p, static_cast<uint32_t>(fired.size()));
  for (const std::string& key : fired) PutString(&p, key);
  PutU32(&p, static_cast<uint32_t>(catalog.lattice().size()));
  for (const CatalogLatticeEdge& edge : catalog.lattice()) {
    PutU32(&p, edge.subsumed);
    PutU32(&p, edge.subsuming);
    PutU8(&p, edge.equivalent ? 1 : 0);
  }
  PutU32(&p, static_cast<uint32_t>(catalog.diagnostics().size()));
  for (const Diagnostic& d : catalog.diagnostics()) {
    PutU8(&p, static_cast<uint8_t>(d.code));
    PutU32(&p, static_cast<uint32_t>(d.span.line));
    PutU32(&p, static_cast<uint32_t>(d.span.column));
    PutString(&p, d.rule);
    PutString(&p, d.message);
  }
  return p;
}

Result<DiagCode> CheckDiagCode(uint8_t byte) {
  const DiagCode code = static_cast<DiagCode>(byte);
  switch (code) {
    case DiagCode::kParseError:
    case DiagCode::kUnsafeQuery:
    case DiagCode::kHeadOidViolation:
    case DiagCode::kCyclicPattern:
    case DiagCode::kMisplacedRegexStep:
    case DiagCode::kVariableSortClash:
    case DiagCode::kUnsatisfiableBody:
    case DiagCode::kRedundantCondition:
    case DiagCode::kCartesianProduct:
    case DiagCode::kUnboundedPathStep:
    case DiagCode::kDeadView:
    case DiagCode::kSingleUseVariable:
    case DiagCode::kSearchTruncated:
    case DiagCode::kViewSubsumed:
    case DiagCode::kDuplicateView:
    case DiagCode::kViewUnsatisfiable:
    case DiagCode::kUnreachableCapability:
    case DiagCode::kChaseBudgetExceeded:
      return code;
  }
  return Status::DataLoss(
      StrCat("catalog index holds unknown diagnostic code ", byte));
}

Result<std::shared_ptr<const CompiledCatalog>> DeserializePayload(
    std::string_view payload) {
  Reader r(payload);
  TSLRW_ASSIGN_OR_RETURN(uint64_t constraints_fingerprint, r.U64());
  TSLRW_ASSIGN_OR_RETURN(uint8_t truncated_byte, r.U8());
  if (truncated_byte > 1) {
    return Status::DataLoss("catalog index flag byte is not a boolean");
  }
  TSLRW_ASSIGN_OR_RETURN(uint32_t entry_count, r.Count());
  std::vector<IndexedView> views;
  std::vector<CompiledViewEntry> entries;
  views.reserve(entry_count);
  entries.reserve(entry_count);
  for (uint32_t i = 0; i < entry_count; ++i) {
    IndexedView v;
    CompiledViewEntry e;
    TSLRW_ASSIGN_OR_RETURN(v.name, r.String());
    TSLRW_ASSIGN_OR_RETURN(e.source, r.String());
    TSLRW_ASSIGN_OR_RETURN(uint8_t state, r.U8());
    if (state > static_cast<uint8_t>(IndexedViewState::kInvalid)) {
      return Status::DataLoss(
          StrCat("catalog index holds unknown view state ", state));
    }
    v.state = static_cast<IndexedViewState>(state);
    TSLRW_ASSIGN_OR_RETURN(e.raw_fingerprint, r.U64());
    TSLRW_ASSIGN_OR_RETURN(e.chased_fingerprint, r.U64());
    TSLRW_ASSIGN_OR_RETURN(std::string chased_text, r.String());
    if (v.state == IndexedViewState::kIndexed) {
      Result<TslQuery> parsed = ParseTslQuery(chased_text, v.name);
      if (!parsed.ok()) {
        return Status::DataLoss(
            StrCat("stored chase outcome of view ", v.name,
                   " does not parse: ", parsed.status().message()));
      }
      v.chased = std::move(parsed).value();
    }
    TSLRW_ASSIGN_OR_RETURN(uint32_t required_count, r.Count());
    v.required.reserve(required_count);
    for (uint32_t k = 0; k < required_count; ++k) {
      TSLRW_ASSIGN_OR_RETURN(std::string f, r.String());
      v.required.push_back(std::move(f));
    }
    TSLRW_ASSIGN_OR_RETURN(v.anchor, r.String());
    TSLRW_ASSIGN_OR_RETURN(uint32_t bound_count, r.Count());
    e.bound_variables.reserve(bound_count);
    for (uint32_t k = 0; k < bound_count; ++k) {
      TSLRW_ASSIGN_OR_RETURN(std::string b, r.String());
      e.bound_variables.push_back(std::move(b));
    }
    views.push_back(std::move(v));
    entries.push_back(std::move(e));
  }
  TSLRW_ASSIGN_OR_RETURN(uint32_t fired_count, r.Count());
  std::set<std::string> fired;
  for (uint32_t i = 0; i < fired_count; ++i) {
    TSLRW_ASSIGN_OR_RETURN(std::string key, r.String());
    fired.insert(std::move(key));
  }
  TSLRW_ASSIGN_OR_RETURN(uint32_t edge_count, r.Count());
  std::vector<CatalogLatticeEdge> lattice;
  lattice.reserve(edge_count);
  for (uint32_t i = 0; i < edge_count; ++i) {
    CatalogLatticeEdge edge;
    TSLRW_ASSIGN_OR_RETURN(edge.subsumed, r.U32());
    TSLRW_ASSIGN_OR_RETURN(edge.subsuming, r.U32());
    TSLRW_ASSIGN_OR_RETURN(uint8_t eq, r.U8());
    if (eq > 1) {
      return Status::DataLoss("catalog index edge flag is not a boolean");
    }
    edge.equivalent = eq == 1;
    lattice.push_back(edge);
  }
  TSLRW_ASSIGN_OR_RETURN(uint32_t diag_count, r.Count());
  std::vector<Diagnostic> diagnostics;
  diagnostics.reserve(diag_count);
  for (uint32_t i = 0; i < diag_count; ++i) {
    Diagnostic d;
    TSLRW_ASSIGN_OR_RETURN(uint8_t code, r.U8());
    TSLRW_ASSIGN_OR_RETURN(d.code, CheckDiagCode(code));
    d.severity = DiagCodeSeverity(d.code);
    TSLRW_ASSIGN_OR_RETURN(uint32_t line, r.U32());
    TSLRW_ASSIGN_OR_RETURN(uint32_t column, r.U32());
    d.span.line = static_cast<int>(line);
    d.span.column = static_cast<int>(column);
    TSLRW_ASSIGN_OR_RETURN(d.rule, r.String());
    TSLRW_ASSIGN_OR_RETURN(d.message, r.String());
    diagnostics.push_back(std::move(d));
  }
  if (!r.exhausted()) {
    return Status::DataLoss("catalog index payload has trailing bytes");
  }
  TSLRW_ASSIGN_OR_RETURN(
      ViewIndex index, ViewIndex::Assemble(std::move(views), std::move(fired)));
  return CompiledCatalog::Assemble(std::move(index), std::move(entries),
                                   std::move(lattice), truncated_byte == 1,
                                   std::move(diagnostics),
                                   constraints_fingerprint);
}

}  // namespace

std::string SerializeCatalog(const CompiledCatalog& catalog) {
  const std::string payload = SerializePayload(catalog);
  std::string out;
  out.reserve(sizeof(kCatalogIndexMagic) + 20 + payload.size());
  out.append(kCatalogIndexMagic, sizeof(kCatalogIndexMagic));
  PutU32(&out, kCatalogIndexVersion);
  PutU64(&out, StableFingerprint(payload));
  PutU64(&out, payload.size());
  out += payload;
  return out;
}

Result<std::shared_ptr<const CompiledCatalog>> DeserializeCatalog(
    std::string_view bytes) {
  constexpr size_t kHeaderSize = sizeof(kCatalogIndexMagic) + 4 + 8 + 8;
  if (bytes.size() < kHeaderSize) {
    return Status::DataLoss("catalog index file is shorter than its header");
  }
  if (std::memcmp(bytes.data(), kCatalogIndexMagic,
                  sizeof(kCatalogIndexMagic)) != 0) {
    return Status::DataLoss("catalog index file has a bad magic number");
  }
  Reader header(bytes.substr(sizeof(kCatalogIndexMagic)));
  TSLRW_ASSIGN_OR_RETURN(uint32_t version, header.U32());
  if (version != kCatalogIndexVersion) {
    return Status::DataLoss(
        StrCat("catalog index version ", version, " is not the supported ",
               kCatalogIndexVersion));
  }
  TSLRW_ASSIGN_OR_RETURN(uint64_t checksum, header.U64());
  TSLRW_ASSIGN_OR_RETURN(uint64_t length, header.U64());
  const std::string_view payload = bytes.substr(kHeaderSize);
  if (payload.size() != length) {
    return Status::DataLoss(
        StrCat("catalog index payload is ", payload.size(),
               " byte(s) but the header promises ", length));
  }
  if (StableFingerprint(payload) != checksum) {
    return Status::DataLoss("catalog index payload fails its checksum");
  }
  return DeserializePayload(payload);
}

Status SaveCatalogIndex(const CompiledCatalog& catalog,
                        const std::string& path) {
  const std::string bytes = SerializeCatalog(catalog);
  const std::string tmp = StrCat(path, ".tmp");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Unavailable(StrCat("cannot open ", tmp, " for writing"));
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return Status::Unavailable(StrCat("short write to ", tmp));
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Unavailable(StrCat("cannot move ", tmp, " into ", path));
  }
  return Status::OK();
}

Result<std::shared_ptr<const CompiledCatalog>> LoadCatalogIndex(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound(StrCat("no catalog index at ", path));
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::Unavailable(StrCat("error reading ", path));
  }
  return DeserializeCatalog(bytes);
}

Result<CatalogLoadOutcome> LoadOrCompileCatalog(
    const std::string& path, const std::vector<SourceDescription>& sources,
    const StructuralConstraints* constraints,
    const CatalogCompileOptions& options) {
  CatalogLoadOutcome outcome;
  Result<std::shared_ptr<const CompiledCatalog>> loaded =
      LoadCatalogIndex(path);
  if (loaded.ok()) {
    std::vector<TslQuery> views;
    for (const SourceDescription& sd : sources) {
      for (const Capability& cap : sd.capabilities) views.push_back(cap.view);
    }
    Status valid = (*loaded)->ValidateAgainst(views, constraints);
    if (valid.ok()) {
      outcome.catalog = std::move(loaded).value();
      outcome.loaded_from_file = true;
      return outcome;
    }
    outcome.load_status = valid;
  } else {
    outcome.load_status = loaded.status();
  }
  TSLRW_ASSIGN_OR_RETURN(outcome.catalog,
                         CompileCatalog(sources, constraints, options));
  return outcome;
}

}  // namespace tslrw

#ifndef TSLRW_CATALOG_INDEX_FILE_H_
#define TSLRW_CATALOG_INDEX_FILE_H_

#include <memory>
#include <string>
#include <string_view>

#include "catalog/compiler.h"
#include "common/result.h"

namespace tslrw {

/// \brief The persistent form of a CompiledCatalog (`tslrw_compile -o`,
/// the shell's `compile save`).
///
/// Layout (all integers little-endian, strings length-prefixed):
///
///     magic   "TSLRWIX1"                     8 bytes
///     version u32 (= kCatalogIndexVersion)
///     checksum u64 = StableFingerprint(payload)
///     length  u64 = payload byte count
///     payload: constraints fingerprint, flags, entries, fired
///              constraint keys, lattice, diagnostics
///
/// The payload holds exactly the inputs of CompiledCatalog::Assemble, and
/// loading funnels through Assemble, so a load-then-serialize round trip is
/// byte-identical and a loaded index probes byte-identically to a fresh
/// compile. Serialization is a pure function of the catalog — no
/// timestamps, no paths — which the round-trip property test pins down.
///
/// Every malformed input — short file, bad magic, unknown version, checksum
/// mismatch, truncated or over-long payload, out-of-range enum byte —
/// fails with StatusCode::kDataLoss, the signal LoadOrCompileCatalog uses
/// to fall back to an in-memory compile.

inline constexpr char kCatalogIndexMagic[8] = {'T', 'S', 'L', 'R',
                                               'W', 'I', 'X', '1'};
/// Version 2 added the fired constraint keys.
inline constexpr uint32_t kCatalogIndexVersion = 2;

/// Serializes \p catalog (header included).
std::string SerializeCatalog(const CompiledCatalog& catalog);

/// Parses \p bytes; kDataLoss on any integrity failure.
Result<std::shared_ptr<const CompiledCatalog>> DeserializeCatalog(
    std::string_view bytes);

/// Writes the serialized catalog to \p path (atomically via rename, so a
/// crashed writer never leaves a torn index behind a valid header).
Status SaveCatalogIndex(const CompiledCatalog& catalog,
                        const std::string& path);

/// Reads and deserializes \p path. Unreadable files are NotFound;
/// corrupted ones are kDataLoss.
Result<std::shared_ptr<const CompiledCatalog>> LoadCatalogIndex(
    const std::string& path);

/// \brief How LoadOrCompileCatalog obtained its catalog.
struct CatalogLoadOutcome {
  std::shared_ptr<const CompiledCatalog> catalog;
  /// True when the index file supplied the catalog; false when it was
  /// recompiled in memory.
  bool loaded_from_file = false;
  /// Why the file was not used (NotFound, kDataLoss, or a failed
  /// ValidateAgainst); OK when loaded_from_file.
  Status load_status = Status::OK();
};

/// \brief Loads \p path and validates it against (\p sources'\ views,
/// \p constraints); on any failure — missing file, corruption, stale
/// definitions — falls back to CompileCatalog and reports why in
/// `load_status`. Only a fallback *compile* failure is a failed Result.
Result<CatalogLoadOutcome> LoadOrCompileCatalog(
    const std::string& path, const std::vector<SourceDescription>& sources,
    const StructuralConstraints* constraints,
    const CatalogCompileOptions& options = {});

}  // namespace tslrw

#endif  // TSLRW_CATALOG_INDEX_FILE_H_

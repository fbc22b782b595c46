#pragma once
// CLR configuration Ct = HWRelt x SSWRelt x ASWRelt (paper §4.1) and the
// enumerated configuration spaces used in the evaluation:
//   HwOnly — hardware-layer techniques only (the "HW-Only" system of Fig. 1)
//   Coarse — a reduced cross-layer set (CLR1 in Fig. 1)
//   Full   — the complete cross-layer product (CLR2 in Fig. 1)

#include <cstdint>
#include <string>
#include <vector>

#include "reliability/techniques.hpp"

namespace clr::rel {

/// One point of the per-task CLR space Ct.
struct ClrConfig {
  HwTechnique hw = HwTechnique::None;
  SswTechnique ssw = SswTechnique::None;
  AswTechnique asw = AswTechnique::None;
  /// Technique parameter: retry count for Retry, segment count for Checkpoint
  /// (ignored for SswTechnique::None).
  std::uint8_t ssw_param = 0;

  friend bool operator==(const ClrConfig&, const ClrConfig&) = default;
};

std::string to_string(const ClrConfig& c);

/// Empty when the technique codes `hw`, `ssw` and `asw` each name an entry of
/// their menu (techniques.hpp), else the first one that does not, e.g.
/// "hw technique 9 (want 0..2)". Both design-database loaders check every
/// stored configuration with it.
std::string technique_code_error(std::int64_t hw, std::int64_t ssw, std::int64_t asw);

/// Granularity of the enumerated CLR space.
enum class ClrGranularity : std::uint8_t { HwOnly, Coarse, Full };

/// Enumerated, indexable CLR configuration space shared by all tasks.
/// The chromosome stores an index into this table.
class ClrSpace {
 public:
  explicit ClrSpace(ClrGranularity granularity);

  /// Custom space from an explicit configuration list (ablation studies,
  /// user-defined technique menus). The unprotected configuration is
  /// prepended when absent so index 0 is always the no-op (kUnprotected).
  explicit ClrSpace(std::vector<ClrConfig> configs);

  ClrGranularity granularity() const { return granularity_; }
  std::size_t size() const { return configs_.size(); }
  const ClrConfig& config(std::size_t index) const { return configs_.at(index); }
  const std::vector<ClrConfig>& configs() const { return configs_; }

  /// Index of the unprotected configuration (all layers None); always 0.
  static constexpr std::size_t kUnprotected = 0;

 private:
  ClrGranularity granularity_;
  std::vector<ClrConfig> configs_;
};

}  // namespace clr::rel

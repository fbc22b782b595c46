#include "reliability/clr_config.hpp"

#include <stdexcept>

namespace clr::rel {

std::string to_string(const ClrConfig& c) {
  std::string s = to_string(c.hw);
  s += '+';
  s += to_string(c.ssw);
  if (c.ssw != SswTechnique::None) {
    s += '(';
    s += std::to_string(c.ssw_param);
    s += ')';
  }
  s += '+';
  s += to_string(c.asw);
  return s;
}

std::string technique_code_error(std::int64_t hw, std::int64_t ssw, std::int64_t asw) {
  const auto check = [](const char* layer, std::int64_t code, std::size_t count) {
    if (code >= 0 && static_cast<std::uint64_t>(code) < count) return std::string();
    return std::string(layer) + " technique " + std::to_string(code) + " (want 0.." +
           std::to_string(count - 1) + ")";
  };
  std::string error = check("hw", hw, kNumHwTechniques);
  if (error.empty()) error = check("ssw", ssw, kNumSswTechniques);
  if (error.empty()) error = check("asw", asw, kNumAswTechniques);
  return error;
}

ClrSpace::ClrSpace(std::vector<ClrConfig> configs) : granularity_(ClrGranularity::Full) {
  const ClrConfig unprotected{};
  if (configs.empty() || !(configs.front() == unprotected)) {
    configs_.push_back(unprotected);
  }
  for (auto& c : configs) {
    // Drop duplicates of the prepended unprotected point.
    if (!configs_.empty() && c == unprotected && configs_.front() == unprotected) continue;
    configs_.push_back(c);
  }
}

ClrSpace::ClrSpace(ClrGranularity granularity) : granularity_(granularity) {
  auto add = [&](HwTechnique hw, SswTechnique ssw, AswTechnique asw, std::uint8_t param = 0) {
    configs_.push_back(ClrConfig{hw, ssw, asw, param});
  };

  // Index 0 is always the unprotected point.
  add(HwTechnique::None, SswTechnique::None, AswTechnique::None);

  switch (granularity) {
    case ClrGranularity::HwOnly:
      add(HwTechnique::Hardening, SswTechnique::None, AswTechnique::None);
      add(HwTechnique::PartialTmr, SswTechnique::None, AswTechnique::None);
      break;

    case ClrGranularity::Coarse:
      // One representative technique per layer plus pairwise combinations —
      // the 6-point CLR1 space of Fig. 1.
      add(HwTechnique::PartialTmr, SswTechnique::None, AswTechnique::None);
      add(HwTechnique::None, SswTechnique::Retry, AswTechnique::Checksum, 1);
      add(HwTechnique::None, SswTechnique::None, AswTechnique::CodeTripling);
      add(HwTechnique::Hardening, SswTechnique::Retry, AswTechnique::Checksum, 1);
      add(HwTechnique::PartialTmr, SswTechnique::Retry, AswTechnique::Checksum, 2);
      break;

    case ClrGranularity::Full:
      // Cross product of the technique menus with sensible parameters.
      // Retry is only meaningful with a detecting ASW layer; Hamming and
      // CodeTripling already correct, so Retry(1) mops up their residue.
      for (HwTechnique hw : {HwTechnique::None, HwTechnique::Hardening, HwTechnique::PartialTmr}) {
        // HW-only points (beyond the global unprotected one).
        if (hw != HwTechnique::None) add(hw, SswTechnique::None, AswTechnique::None);
        for (AswTechnique asw :
             {AswTechnique::Checksum, AswTechnique::Hamming, AswTechnique::CodeTripling}) {
          add(hw, SswTechnique::None, asw);
          for (std::uint8_t k : {std::uint8_t{1}, std::uint8_t{2}, std::uint8_t{3}}) {
            add(hw, SswTechnique::Retry, asw, k);
          }
          add(hw, SswTechnique::Checkpoint, asw, 2);
          add(hw, SswTechnique::Checkpoint, asw, 4);
        }
      }
      break;

    default:
      throw std::invalid_argument("ClrSpace: unknown granularity");
  }
}

}  // namespace clr::rel

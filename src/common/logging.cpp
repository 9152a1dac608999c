#include "common/logging.hpp"

namespace ehdl {

const char *
severityName(Severity severity)
{
    switch (severity) {
      case Severity::Note: return "note";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "?";
}

}  // namespace ehdl

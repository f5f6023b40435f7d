// Textual IR emission. This is the compiler's "code generation" stage for the
// purposes of the Figure-1 benchmark: the baseline pipeline emits the plain
// module; the verification pipeline emits the instrumented module (with
// check_cc / check_mono / region_* instructions), exactly mirroring the
// paper's "verification code generation".
#pragma once

#include "ir/module.h"

#include <string>

namespace parcoach::ir {

[[nodiscard]] std::string to_text(const Function& fn);
[[nodiscard]] std::string to_text(const Module& m);

} // namespace parcoach::ir

// Lightweight precondition checking in the spirit of the C++ Core
// Guidelines' Expects (I.6). Violations are programming errors, so they
// terminate via std::logic_error rather than being silently ignored.
#pragma once

#include <stdexcept>
#include <string>

namespace pmc {

namespace detail {
[[noreturn]] inline void contract_failure(const char* expr, const char* file,
                                          int line) {
  throw std::logic_error(std::string("precondition violated: ") + expr +
                         " at " + file + ":" + std::to_string(line));
}
}  // namespace detail

}  // namespace pmc

#define PMC_EXPECTS(cond)                                                \
  do {                                                                   \
    if (!(cond))                                                         \
      ::pmc::detail::contract_failure(#cond, __FILE__, __LINE__);        \
  } while (false)

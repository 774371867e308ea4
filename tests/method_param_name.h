// The gtest name of a recovery method, for test suites parameterized
// over methods::MethodKind: MethodKindName without its hyphen
// ("generalized-lsn" -> "generalizedlsn"), since a gtest name may hold
// only letters, digits and underscores.

#ifndef REDO_TESTS_METHOD_PARAM_NAME_H_
#define REDO_TESTS_METHOD_PARAM_NAME_H_

#include <string>

#include "methods/method.h"

namespace redo {

/// The gtest name of `kind`. A suite's name generator returns it, and
/// one whose parameter carries more than the method appends the rest.
inline std::string MethodParamName(methods::MethodKind kind) {
  std::string name = methods::MethodKindName(kind);
  std::erase(name, '-');
  return name;
}

}  // namespace redo

#endif  // REDO_TESTS_METHOD_PARAM_NAME_H_

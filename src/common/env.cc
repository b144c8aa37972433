#include "common/env.hh"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace ima {

std::optional<std::uint64_t> env_uint(const char* name) {
  const char* env = std::getenv(name);
  if (!env || !*env) return std::nullopt;
  const char* end = env + std::strlen(env);
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(env, end, v);
  if (ec != std::errc{} || ptr != end) env_reject(name, env, "expected an unsigned integer");
  return v;
}

void env_reject(const char* name, const char* value, const char* expected) {
  throw std::invalid_argument(std::string(name) + "=" + value + ": " + expected);
}

}  // namespace ima

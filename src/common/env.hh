// Environment knobs: the one parser for IMA_* integer values.
//
// A knob that is unset or empty keeps its caller's default. Any other value
// must parse, or the read throws std::invalid_argument naming the variable
// and the value, so a typo never falls back to a default silently.
#pragma once

#include <cstdint>
#include <optional>

namespace ima {

/// The unsigned integer in environment variable `name`, or std::nullopt
/// when it is unset or empty. Throws std::invalid_argument for anything but
/// base-10 digits that fit in 64 bits (no sign, space or suffix).
std::optional<std::uint64_t> env_uint(const char* name);

/// Throws std::invalid_argument reading "<name>=<value>: <expected>".
[[noreturn]] void env_reject(const char* name, const char* value, const char* expected);

}  // namespace ima

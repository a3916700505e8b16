// String helpers shared by the IR printer/parser and the KB text format.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ilc::support {

std::vector<std::string> split(std::string_view s, char sep);
/// Split on runs of whitespace, dropping empty tokens.
std::vector<std::string> split_ws(std::string_view s);
std::string trim(std::string_view s);
bool starts_with(std::string_view s, std::string_view prefix);
std::string join(const std::vector<std::string>& parts, std::string_view sep);

}  // namespace ilc::support

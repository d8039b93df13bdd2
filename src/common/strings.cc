#include "common/strings.h"

#include <cstdio>
#include <limits>

namespace qy {

std::string StrJoin(const std::vector<std::string>& parts,
                    const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

namespace {

char ToUpper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

char ToLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace

std::string AsciiToUpper(std::string s) {
  for (char& c : s) c = ToUpper(c);
  return s;
}

std::string AsciiToLower(std::string s) {
  for (char& c : s) c = ToLower(c);
  return s;
}

bool EqualsIgnoreCase(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (ToUpper(a[i]) != ToUpper(b[i])) return false;
  }
  return true;
}

std::string DoubleToSql(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.*g", std::numeric_limits<double>::max_digits10,
           v);
  std::string out = buf;
  // Ensure the literal stays a DOUBLE in SQL (avoid "1" parsing as BIGINT).
  if (out.find('.') == std::string::npos && out.find('e') == std::string::npos &&
      out.find("inf") == std::string::npos && out.find("nan") == std::string::npos) {
    out += ".0";
  }
  return out;
}

}  // namespace qy

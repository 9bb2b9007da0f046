#include "src/xenstore/path.h"

namespace nephele {

std::vector<std::string> SplitXsPath(std::string_view path) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start < path.size()) {
    std::size_t slash = path.find('/', start);
    if (slash == std::string_view::npos) {
      slash = path.size();
    }
    if (slash > start) {
      out.emplace_back(path.substr(start, slash - start));
    }
    start = slash + 1;
  }
  return out;
}

std::string JoinXsPath(const std::vector<std::string>& components) {
  std::string out;
  for (const auto& c : components) {
    out += '/';
    out += c;
  }
  if (out.empty()) {
    out = "/";
  }
  return out;
}

bool XsPathHasPrefix(std::string_view path, std::string_view prefix) {
  if (prefix.empty() || prefix == "/") {
    return true;
  }
  if (path.size() < prefix.size() || path.substr(0, prefix.size()) != prefix) {
    return false;
  }
  return path.size() == prefix.size() || path[prefix.size()] == '/';
}

std::string XsDomainPath(unsigned domid) { return "/local/domain/" + std::to_string(domid); }

std::string XsBackendPath(unsigned backend_domid, std::string_view type, unsigned frontend_domid,
                          unsigned devid) {
  return XsDomainPath(backend_domid) + "/backend/" + std::string(type) + "/" +
         std::to_string(frontend_domid) + "/" + std::to_string(devid);
}

std::string XsFrontendPath(unsigned domid, std::string_view type, unsigned devid) {
  return XsDomainPath(domid) + "/device/" + std::string(type) + "/" + std::to_string(devid);
}

std::string RewriteXsDomid(std::string_view path, const std::string& value, unsigned parent,
                           unsigned child) {
  const std::string parent_str = std::to_string(parent);
  const std::string child_str = std::to_string(child);
  // Whole-value domid reference (e.g. "frontend-id" = "7").
  const std::string_view key = path.substr(path.rfind('/') + 1);
  if (value == parent_str && (key == "domid" || key == "frontend-id" || key == "backend-id")) {
    return child_str;
  }
  // Path fragment references (e.g. backend = ".../vif/7/0").
  std::string out = value;
  const std::string needle = "/" + parent_str + "/";
  const std::string repl = "/" + child_str + "/";
  std::size_t pos = 0;
  while ((pos = out.find(needle, pos)) != std::string::npos) {
    out.replace(pos, needle.size(), repl);
    pos += repl.size();
  }
  // Trailing "/domain/<id>" references.
  const std::string tail = "/domain/" + parent_str;
  if (out.size() >= tail.size() && out.compare(out.size() - tail.size(), tail.size(), tail) == 0) {
    out.replace(out.size() - tail.size(), tail.size(), "/domain/" + child_str);
  }
  return out;
}

}  // namespace nephele

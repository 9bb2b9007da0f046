// Xenstore path helpers: '/'-separated hierarchical keys.

#ifndef SRC_XENSTORE_PATH_H_
#define SRC_XENSTORE_PATH_H_

#include <string>
#include <string_view>
#include <vector>

namespace nephele {

// Splits "/local/domain/3" into {"local", "domain", "3"}; empty components
// are dropped.
std::vector<std::string> SplitXsPath(std::string_view path);

// Joins components with '/', producing an absolute path.
std::string JoinXsPath(const std::vector<std::string>& components);

// True if `path` equals `prefix` or is beneath it.
bool XsPathHasPrefix(std::string_view path, std::string_view prefix);

// Canonical per-domain roots.
std::string XsDomainPath(unsigned domid);                        // /local/domain/<id>
std::string XsBackendPath(unsigned backend_domid, std::string_view type, unsigned frontend_domid,
                          unsigned devid);                       // /local/domain/0/backend/...
std::string XsFrontendPath(unsigned domid, std::string_view type, unsigned devid);

// Rewrites the references to domain `parent` in the value stored at `path`
// into references to `child`: "/<id>/" path fragments, a trailing
// "/domain/<id>", and the whole value when the key holds a domid ("domid",
// "frontend-id", "backend-id"); ports, states and other numbers that merely
// equal the id stay. xs_clone's device flavours and xencloned's deep copy
// derive a child's entries with it.
std::string RewriteXsDomid(std::string_view path, const std::string& value, unsigned parent,
                           unsigned child);

}  // namespace nephele

#endif  // SRC_XENSTORE_PATH_H_

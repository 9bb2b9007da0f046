// BenchArgs: the one command-line convention shared by every bench binary.
//
//   bench_figNN [positional...] [--flag=value ...]
//
// Positional parameters are declared by the bench (name + default) and
// parsed in order; each must be a positive decimal integer (anything else,
// e.g. `abc`, `0` or `40x`, is an error, exit 2). `--key=value` flags may
// appear anywhere. `--help` (print the declared parameters and exit) is
// common to the whole fleet; every other flag is declared by the bench. A
// bench that writes JSON declares
//
//   --json=PATH   machine-readable result mode: the bench writes its
//                 BenchJsonWriter document (see bench_json.h) to PATH for
//                 the perf-regression gate (scripts/bench_gate.sh)
//
// Undeclared flags, `--json` to a bench that writes none included, are an
// error (exit 2) so a typo or a missing feature cannot silently run a bench
// with defaults — except in pass-through mode (bench_micro_ops hands
// unparsed flags to google-benchmark).

#ifndef BENCH_BENCH_ARGS_H_
#define BENCH_BENCH_ARGS_H_

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace nephele {

struct BenchArgSpec {
  std::string name;
  long value = 0;  // default, replaced by the parsed positional
  std::string help;
};

class BenchArgs {
 public:
  // `allowed_flags` lists the --key names this bench understands beyond
  // --help (e.g. "json", "suite"). When `passthrough` is non-null,
  // unknown flags are collected there (argv[0] is prepended) instead of
  // being rejected — the google-benchmark escape hatch.
  BenchArgs(int argc, char** argv, std::vector<BenchArgSpec> positional,
            std::vector<std::string> allowed_flags = {},
            std::vector<std::string>* passthrough = nullptr)
      : positional_(std::move(positional)) {
    if (passthrough != nullptr) {
      passthrough->push_back(argv[0]);
    }
    std::size_t next_positional = 0;
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        std::string_view body = arg.substr(2);
        std::size_t eq = body.find('=');
        std::string key(body.substr(0, eq));
        std::string value(eq == std::string_view::npos ? "" : body.substr(eq + 1));
        if (key == "help") {
          PrintUsage(argv[0], allowed_flags);
          std::exit(0);
        }
        bool known = false;
        for (const std::string& f : allowed_flags) {
          known = known || f == key;
        }
        if (!known) {
          if (passthrough != nullptr) {
            passthrough->push_back(std::string(arg));
            continue;
          }
          std::fprintf(stderr, "unknown flag --%s (try --help)\n", key.c_str());
          std::exit(2);
        }
        flags_[key] = value;
      } else if (next_positional < positional_.size()) {
        BenchArgSpec& spec = positional_[next_positional++];
        long value = 0;
        const auto [end, ec] = std::from_chars(arg.data(), arg.data() + arg.size(), value);
        if (ec != std::errc() || end != arg.data() + arg.size() || value <= 0) {
          std::fprintf(stderr, "%s wants a positive integer, got '%s' (try --help)\n",
                       spec.name.c_str(), argv[i]);
          std::exit(2);
        }
        spec.value = value;
      } else if (passthrough != nullptr) {
        passthrough->push_back(std::string(arg));
      } else {
        std::fprintf(stderr, "unexpected argument '%s' (try --help)\n", argv[i]);
        std::exit(2);
      }
    }
  }

  // The parsed (or default) value of a declared positional parameter.
  long Positional(std::string_view name) const {
    for (const BenchArgSpec& spec : positional_) {
      if (spec.name == name) {
        return spec.value;
      }
    }
    std::fprintf(stderr, "bench bug: undeclared positional '%.*s'\n",
                 static_cast<int>(name.size()), name.data());
    std::exit(2);
  }

  bool HasFlag(std::string_view key) const { return flags_.count(std::string(key)) != 0; }
  std::string Flag(std::string_view key, std::string default_value = "") const {
    auto it = flags_.find(std::string(key));
    return it == flags_.end() ? default_value : it->second;
  }

  // Empty when the bench should print its human table; otherwise the path
  // the BenchJsonWriter document goes to. Only benches declaring "json" can
  // see a non-empty path.
  std::string json_path() const { return Flag("json"); }

 private:
  void PrintUsage(const char* argv0, const std::vector<std::string>& allowed_flags) const {
    std::printf("usage: %s", argv0);
    for (const BenchArgSpec& spec : positional_) {
      std::printf(" [%s]", spec.name.c_str());
    }
    for (const std::string& f : allowed_flags) {
      std::printf(" [--%s=VALUE]", f.c_str());
    }
    std::printf("\n");
    for (const BenchArgSpec& spec : positional_) {
      std::printf("  %-24s %s (default %ld)\n", spec.name.c_str(), spec.help.c_str(),
                  spec.value);
    }
  }

  std::vector<BenchArgSpec> positional_;
  std::map<std::string, std::string> flags_;
};

}  // namespace nephele

#endif  // BENCH_BENCH_ARGS_H_

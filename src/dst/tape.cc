#include "src/dst/tape.h"

#include <cstdlib>
#include <limits>
#include <sstream>

#include "src/sim/rng.h"

namespace nephele {

namespace {

// Operand bits: which fields of Op an op kind reads. The text codec accepts
// exactly these, and the decoder draws only these.
enum : std::uint16_t {
  kA = 1 << 0,
  kB = 1 << 1,
  kC = 1 << 2,
  kN = 1 << 3,
  kV = 1 << 4,
  kFlags = 1 << 5,
  kAmount = 1 << 6,
  kFault = 1 << 7,
};

struct KindInfo {
  const char* name;
  std::uint16_t operands;
  // Decoder weight. Hostile structural ops and cell writes dominate (they
  // drive the richest invariant surfaces); launches are frequent enough that
  // most tapes have several live targets.
  std::uint32_t weight;
};

constexpr KindInfo kKinds[kNumOpKinds] = {
    {"launch", 0, 4},
    {"clone", kA | kB | kN | kFlags, 5},
    {"lazyclone", kA | kB | kC | kN | kFlags, 5},
    {"write", kA | kC | kV, 8},
    {"lazytouch", kA | kC | kV, 5},
    {"reset", kA | kB, 4},
    {"destroy", kA, 3},
    {"migrate_out", kA, 1},
    {"migrate_in", kC, 1},
    {"devio", kA | kC | kV, 3},
    {"sched_acquire", kA | kN, 3},
    {"sched_release", kC, 3},
    {"arm", kFault, 2},
    {"disarm", 0, 2},
    {"advance", kAmount, 2},
    {"settle", 0, 1},
    {"stream", kA | kN | kFlags, 4},
    {"grant", kA | kB | kC | kFlags, 4},
    {"map", kA | kC, 4},
    {"unmap", kA | kC, 3},
    {"endgrant", kA | kC, 3},
    {"evalloc", kA | kB, 4},
    {"evbind", kA | kC, 4},
    {"evsend", kA | kC, 3},
    {"evclose", kA | kC, 3},
    {"xswrite", kA | kB | kC, 3},
    {"p9", kA | kB | kC | kN, 3},
    {"rawwrite", kA | kC | kN | kV, 4},
    {"read", kA | kC | kN | kV, 2},
    {"touch", kA | kC | kN, 3},
    {"cow", kA | kC | kN, 3},
};

static_assert(static_cast<std::size_t>(OpKind::kCow) + 1 == kNumOpKinds,
              "kKinds needs one row per OpKind");

std::uint16_t Operands(OpKind kind) { return kKinds[static_cast<std::size_t>(kind)].operands; }

// Fault points worth arming: the allocation, COW, grant, evtchn, clone-stage,
// xenstore, scheduler and post-copy paths, so fault interleavings hit every
// rollback the oracle guards. All NthHit — a shrunk tape still fires the
// same injection.
constexpr const char* kFaultMenu[] = {
    "clone/stage1/create_domain", "clone/stage1/memory",    "clone/stage1/share",
    "clone/stage1/page_tables",   "clone/stage1/grants",    "clone/stage1/evtchns",
    "clone/reset",                "xencloned/stage2",       "hypervisor/frame_alloc",
    "hypervisor/cow_resolve",     "hypervisor/grant_access", "hypervisor/evtchn_alloc",
    "xenstore/xs_clone",          "xenstore/request",       "sched/admit",
    "sched/dispatch",             "sched/park",             "lazy/stream",
    "lazy/demand_fault",
};

// Byte reader backed by the mutation input, falling back to a deterministic
// stream once the bytes run out.
class ByteReader {
 public:
  ByteReader(std::uint64_t seed, const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes), fallback_(Mix(seed, bytes)) {}

  std::uint8_t Byte() {
    if (pos_ < bytes_.size()) {
      return bytes_[pos_++];
    }
    return static_cast<std::uint8_t>(fallback_.NextU64());
  }

  std::uint32_t Below(std::uint32_t bound) { return bound == 0 ? 0 : Byte() % bound; }

 private:
  static std::uint64_t Mix(std::uint64_t seed, const std::vector<std::uint8_t>& bytes) {
    std::uint64_t h = seed ^ 0x6e657068656c65ULL;  // "nephele"
    for (std::uint8_t b : bytes) {
      h = (h ^ b) * 0x100000001b3ULL;
    }
    return h;
  }

  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
  Rng fallback_;
};

bool SpecEquals(const FaultSpec& a, const FaultSpec& b) {
  return a.policy == b.policy && a.nth == b.nth && a.probability == b.probability &&
         a.seed == b.seed && a.code == b.code;
}

Result<std::uint64_t> ParseU64(const std::string& token) {
  if (token.empty()) {
    return ErrInvalidArgument("empty numeric field");
  }
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t value = 0;
  for (char ch : token) {
    if (ch < '0' || ch > '9') {
      return ErrInvalidArgument("bad numeric field: " + token);
    }
    const auto digit = static_cast<std::uint64_t>(ch - '0');
    if (value > (kMax - digit) / 10) {
      return ErrInvalidArgument("numeric field overflows 64 bits: " + token);
    }
    value = value * 10 + digit;
  }
  return value;
}

Result<double> ParseProbability(const std::string& token) {
  char* end = nullptr;
  const double p = std::strtod(token.c_str(), &end);
  if (token.empty() || end != token.c_str() + token.size() || p < 0.0 || p > 1.0) {
    return ErrInvalidArgument("bad probability: " + token);
  }
  return p;
}

Result<OpKind> KindFromName(const std::string& name) {
  for (std::size_t i = 0; i < kNumOpKinds; ++i) {
    if (name == kKinds[i].name) {
      return static_cast<OpKind>(i);
    }
  }
  return ErrInvalidArgument("unknown op: " + name);
}

}  // namespace

const char* OpKindName(OpKind kind) { return kKinds[static_cast<std::size_t>(kind)].name; }

bool Op::operator==(const Op& other) const {
  return kind == other.kind && a == other.a && b == other.b && c == other.c && n == other.n &&
         v == other.v && flags == other.flags && amount == other.amount &&
         point == other.point && SpecEquals(spec, other.spec);
}

Tape TapeFromBytes(std::uint64_t seed, const std::vector<std::uint8_t>& bytes) {
  ByteReader t(seed, bytes);
  Tape tape;
  tape.seed = seed;

  constexpr std::uint32_t kTotalWeight = [] {
    std::uint32_t sum = 0;
    for (const KindInfo& k : kKinds) {
      sum += k.weight;
    }
    return sum;
  }();

  const std::size_t num_ops = 6 + t.Below(26);

  // Every tape opens with a root guest so early ops have a live target.
  tape.ops.emplace_back();

  while (tape.ops.size() < num_ops) {
    std::uint32_t roll = t.Below(kTotalWeight);
    std::size_t k = 0;
    while (roll >= kKinds[k].weight) {
      roll -= kKinds[k].weight;
      ++k;
    }
    Op op;
    op.kind = static_cast<OpKind>(k);
    const std::uint16_t operands = kKinds[k].operands;
    // Selectors and menus take a whole byte; structural knobs are drawn in
    // their useful range.
    if ((operands & kA) != 0) op.a = t.Byte();
    if ((operands & kB) != 0) op.b = t.Byte();
    if ((operands & kC) != 0) op.c = t.Byte();
    if ((operands & kV) != 0) op.v = t.Byte();
    switch (op.kind) {
      case OpKind::kClone:
      case OpKind::kLazyClone:
        op.n = 1 + t.Below(4);
        op.flags = t.Below(4);
        break;
      case OpKind::kSchedAcquire:
        op.n = 1 + t.Below(2);
        break;
      case OpKind::kStream:
        op.n = t.Byte();
        op.flags = t.Below(2);
        break;
      case OpKind::kGrant:
        op.flags = t.Below(2);
        break;
      case OpKind::kRawWrite:
      case OpKind::kRead:
      case OpKind::kTouch:
      case OpKind::kCow:
        op.n = t.Byte();
        break;
      case OpKind::kArm:
        op.point = kFaultMenu[t.Below(std::size(kFaultMenu))];
        op.spec = FaultSpec::NthHit(1 + t.Below(8));
        break;
      case OpKind::kAdvance:
        op.amount = (1ull + t.Byte()) * 250'000ull;  // 0.25 .. 64 ms
        break;
      default:
        break;
    }
    tape.ops.push_back(std::move(op));
  }
  return tape;
}

std::string Tape::ToText() const {
  std::ostringstream out;
  out << "# nephele dst tape v2\n";
  out << "seed " << seed << '\n';
  out << "pool_frames " << pool_frames << '\n';
  for (const Op& op : ops) {
    out << OpKindName(op.kind);
    if (op.a != 0) out << " a=" << op.a;
    if (op.b != 0) out << " b=" << op.b;
    if (op.c != 0) out << " c=" << op.c;
    if (op.n != 0) out << " n=" << op.n;
    if (op.v != 0) out << " v=" << op.v;
    if (op.flags != 0) out << " flags=" << op.flags;
    if (op.amount != 0) out << " amount=" << op.amount;
    if ((Operands(op.kind) & kFault) != 0) {
      out << " point=" << op.point;
      if (op.spec.policy == FaultSpec::Policy::kProbability) {
        out << " p=" << op.spec.probability << " pseed=" << op.spec.seed;
      } else if (op.spec.nth != 1) {
        out << " nth=" << op.spec.nth;
      }
    }
    out << '\n';
  }
  return out.str();
}

Result<Tape> Tape::FromText(const std::string& text) {
  Tape tape;
  bool saw_seed = false;
  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    auto fail = [line_no](const std::string& why) -> Status {
      return ErrInvalidArgument("tape line " + std::to_string(line_no) + ": " + why);
    };
    std::istringstream tokens(line);
    std::string head;
    tokens >> head;
    const bool header = !saw_seed || (head == "pool_frames" && tape.ops.empty());
    if (header) {
      if (head != (saw_seed ? "pool_frames" : "seed")) {
        return fail("tape must start with a seed line");
      }
      std::string value;
      tokens >> value;
      NEPHELE_ASSIGN_OR_RETURN(std::uint64_t num, ParseU64(value));
      if (saw_seed && num == 0) {
        return fail("pool_frames must be positive");
      }
      (saw_seed ? tape.pool_frames : tape.seed) = num;
      saw_seed = true;
      continue;
    }
    NEPHELE_ASSIGN_OR_RETURN(OpKind kind, KindFromName(head));
    Op op;
    op.kind = kind;
    const std::uint16_t operands = Operands(kind);
    double probability = -1.0;
    std::uint64_t nth = 1;
    std::uint64_t pseed = 0;
    std::string field;
    while (tokens >> field) {
      const std::size_t eq = field.find('=');
      if (eq == std::string::npos) {
        return fail("bad field (want key=value): " + field);
      }
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      struct Field {
        const char* key;
        std::uint16_t bit;
      };
      static constexpr Field kFields[] = {
          {"a", kA},          {"b", kB},          {"c", kC},      {"n", kN},
          {"v", kV},          {"flags", kFlags},  {"amount", kAmount},
          {"point", kFault},  {"nth", kFault},    {"p", kFault},  {"pseed", kFault},
      };
      std::uint16_t bit = 0;
      for (const Field& f : kFields) {
        if (key == f.key) {
          bit = f.bit;
        }
      }
      if (bit == 0) {
        return fail("unknown field: " + key);
      }
      if ((operands & bit) == 0) {
        return fail(head + " takes no " + key + "=");
      }
      if (key == "point") {
        op.point = value;
        continue;
      }
      if (key == "p") {
        NEPHELE_ASSIGN_OR_RETURN(probability, ParseProbability(value));
        continue;
      }
      NEPHELE_ASSIGN_OR_RETURN(std::uint64_t num, ParseU64(value));
      const bool wide = key == "amount" || key == "nth" || key == "pseed";
      if (!wide && num > std::numeric_limits<std::uint32_t>::max()) {
        return fail(key + "=" + value + " exceeds 32 bits");
      }
      const auto u32 = static_cast<std::uint32_t>(num);
      if (key == "a") op.a = u32;
      if (key == "b") op.b = u32;
      if (key == "c") op.c = u32;
      if (key == "n") op.n = u32;
      if (key == "v") op.v = u32;
      if (key == "flags") op.flags = u32;
      if (key == "amount") op.amount = num;
      if (key == "nth") nth = num;
      if (key == "pseed") pseed = num;
    }
    if ((operands & kFault) != 0) {
      if (op.point.empty()) {
        return fail("arm needs point=");
      }
      op.spec = probability >= 0.0 ? FaultSpec::WithProbability(probability, pseed)
                                   : FaultSpec::NthHit(nth == 0 ? 1 : nth);
    }
    tape.ops.push_back(std::move(op));
  }
  if (!saw_seed) {
    return ErrInvalidArgument("tape must start with a seed line");
  }
  return tape;
}

}  // namespace nephele

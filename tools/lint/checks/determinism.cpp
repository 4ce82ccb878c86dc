/// determinism — sources of nondeterminism are forbidden in the estimator
/// core (src/core/, src/kernels/, src/partition/).
///
/// Origin: PR 5's acceptance is *bitwise* parallel determinism — the
/// parity-wave tile schedule must reproduce the serial result
/// bit for bit, across thread counts. That guarantee dies quietly the day
/// someone seeds from the wall clock, calls rand(), or accumulates floats
/// through an unordered std::atomic (FP addition does not commute in
/// rounding). Seeded engines (util/rng.hpp) and integer atomics stay legal;
/// wall-clock reads, the C PRNG family, random_device, and floating-point
/// atomics do not.

#include "check_util.hpp"
#include "checks.hpp"

namespace stkde::lint {

namespace {

constexpr std::string_view kBannedIdents[] = {
    "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48",
    "random_device",
};

class DeterminismCheck final : public Check {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "determinism";
  }
  [[nodiscard]] std::string_view rationale() const override {
    return "wall clocks, unseeded PRNGs, and floating-point atomics break "
           "the bitwise-deterministic scatter acceptance";
  }

  void run(const FileContext& ctx, std::vector<Finding>& out) const override {
    if (!ctx.in_dir("src/core/") && !ctx.in_dir("src/kernels/") &&
        !ctx.in_dir("src/partition/"))
      return;
    const Tokens& code = ctx.code;
    for (std::size_t i = 0; i < code.size(); ++i) {
      const Token& t = code[i];
      if (t.kind != TokKind::kIdent) continue;
      if (t.text == "system_clock") {
        report(ctx, t.line,
               "system_clock read in the deterministic core — wall-clock "
               "values change run to run; inject time through parameters "
               "(util/clock.hpp) or use the diagnostics-only util::Timer",
               out);
        continue;
      }
      for (const std::string_view banned : kBannedIdents) {
        if (t.text == banned &&
            (is_free_call(code, i, banned) || banned == "random_device")) {
          report(ctx, t.line,
                 std::string(banned) +
                     " in the deterministic core — use the seeded "
                     "util::Rng (util/rng.hpp) so runs reproduce",
                 out);
          break;
        }
      }
      // std::atomic<float|double>: cross-thread accumulation order is
      // scheduling-dependent, and FP addition does not reassociate.
      if (t.text == "atomic" && i + 2 < code.size() &&
          is_punct(code[i + 1], "<") &&
          (is_ident(code[i + 2], "float") ||
           is_ident(code[i + 2], "double"))) {
        report(ctx, t.line,
               "std::atomic<" + code[i + 2].text +
                   "> — unordered floating-point accumulation is "
                   "nondeterministic; reduce per-worker partials in a fixed "
                   "order instead (see accumulate_buffer)",
               out);
      }
    }
  }
};

}  // namespace

std::unique_ptr<Check> make_determinism_check() {
  return std::make_unique<DeterminismCheck>();
}

}  // namespace stkde::lint

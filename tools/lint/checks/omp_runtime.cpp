/// omp-runtime — no OpenMP runtime construct in src/: `#pragma omp simd`
/// is the only OpenMP the tree may use.
///
/// Origin: every parallel loop moved onto sched::ThreadPool (the one
/// parallel runtime, the only one ThreadSanitizer can check), and the
/// library stopped linking the OpenMP runtime; it compiles with
/// -fopenmp-simd so `#pragma omp simd` still vectorizes. Under that flag
/// GCC 12 accepts `#pragma omp parallel for` without a diagnostic, even
/// with -Wall -Wextra -Wunknown-pragmas, and runs the loop serially — a
/// silent loss of parallelism no compiler or test would report. The check
/// fires on `#include <omp.h>`, on any `omp_*` identifier (the runtime
/// API), and on `#pragma omp` (or `_Pragma("omp …")`) followed by anything
/// other than `simd`.

#include "check_util.hpp"
#include "checks.hpp"

namespace stkde::lint {

namespace {

bool starts_with(const std::string& s, std::string_view prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

/// The first word after "omp" in a _Pragma string ("\"omp parallel\"").
std::string pragma_string_directive(const std::string& literal) {
  std::size_t i = literal.find_first_not_of("\" \t");
  if (i == std::string::npos || literal.compare(i, 3, "omp") != 0) return {};
  i = literal.find_first_not_of(" \t\"", i + 3);
  if (i == std::string::npos) return "(none)";
  const std::size_t end = literal.find_first_of(" \t(\"", i);
  return literal.substr(i, end - i);
}

class OmpRuntimeCheck final : public Check {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "omp-runtime";
  }
  [[nodiscard]] std::string_view rationale() const override {
    return "parallel loops run on sched::ThreadPool; the OpenMP runtime is "
           "not linked, and -fopenmp-simd silently serializes any other "
           "omp pragma";
  }

  void run(const FileContext& ctx, std::vector<Finding>& out) const override {
    if (!ctx.in_dir("src/")) return;
    const Tokens& code = ctx.code;
    const auto at = [&code](std::size_t j) -> const Token* {
      return j < code.size() ? &code[j] : nullptr;
    };
    for (std::size_t i = 0; i < code.size(); ++i) {
      const Token& t = code[i];
      if (t.kind == TokKind::kIdent && starts_with(t.text, "omp_")) {
        report(ctx, t.line,
               t.text + " — the OpenMP runtime API; use "
                        "sched::ThreadPool::parallel_for",
               out);
      } else if (is_ident(t, "_Pragma")) {
        // _Pragma("omp parallel for"): the same rule, spelled as a string.
        const Token* lit = at(i + 2);
        if (!at(i + 1) || !is_punct(*at(i + 1), "(") || !lit ||
            lit->kind != TokKind::kString)
          continue;
        const std::string d = pragma_string_directive(lit->text);
        if (!d.empty() && d != "simd")
          report(ctx, t.line, pragma_message(d), out);
      } else if (is_punct(t, "#") && at(i + 2)) {
        const Token& directive = code[i + 1];
        const Token& arg = code[i + 2];
        if (is_ident(directive, "include") &&
            ((is_punct(arg, "<") && at(i + 3) && is_ident(code[i + 3], "omp")) ||
             (arg.kind == TokKind::kString && arg.text == "\"omp.h\""))) {
          report(ctx, directive.line,
                 "#include <omp.h> — the OpenMP runtime is not linked; use "
                 "sched::ThreadPool",
                 out);
        } else if (is_ident(directive, "pragma") && is_ident(arg, "omp")) {
          // The directive word must sit on the pragma's own line.
          const Token* word = at(i + 3);
          if (word && word->line != arg.line) word = nullptr;
          if (!word || !is_ident(*word, "simd"))
            report(ctx, directive.line,
                   pragma_message(word ? word->text : "(none)"), out);
        }
      }
    }
  }

 private:
  static std::string pragma_message(const std::string& directive) {
    return "#pragma omp " + directive +
           " — only `#pragma omp simd` is allowed (-fopenmp-simd, no "
           "runtime); run parallel loops on sched::ThreadPool::parallel_for";
  }
};

}  // namespace

std::unique_ptr<Check> make_omp_runtime_check() {
  return std::make_unique<OmpRuntimeCheck>();
}

}  // namespace stkde::lint

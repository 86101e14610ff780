//===- tools/sks_lint.cpp - Command-line kernel linter ---------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Lints sks-kernel files with the syntactic dataflow rules of lint/Lint.h
// plus the semantic order-domain rules of analysis/AbstractInterp.h
// (redundant-cmp, noop-cmov, order-established):
//
//   sks-lint kernels_prebuilt/*.sks          lint every named kernel file
//   sks-lint --strict file.sks               fail on notes too
//   sks-lint --quiet file.sks                suppress per-diagnostic lines
//   sks-lint --json file.sks                 machine-readable findings
//   sks-lint --validate file.sks             also prove the JIT emission
//
// --json prints one JSON array of findings on stdout (fields: file, line,
// instr, rule, severity, message) instead of the human format; exit codes
// are unchanged, so CI can both gate on and ingest the same invocation.
//
// --validate additionally runs the translation validator
// (validate/SymbolicExec.h) on each kernel: the JIT's scalar and
// key-payload emissions are statically proven to compute the kernel's
// function. A failed proof is an error-severity finding (rule
// "jit-validate") and always gates. Hybrid kernels have no emission path
// and are skipped.
//
// Exit status: 0 when every file parses and is clean at the gating
// severity (warnings by default, anything with --strict), 1 when some
// diagnostic gates, 2 on unreadable/malformed input or a usage error.
// Unreadable input dominates: a run with both a broken file and gating
// diagnostics exits 2, not 1. CI runs the strict mode over
// kernels_prebuilt/ (the prebuilt_kernels_lint ctest, with --validate) so
// shipped kernels stay diagnostic-free and provably JIT-translatable.
//
//===----------------------------------------------------------------------===//

#include "analysis/AbstractInterp.h"
#include "kernels/KernelIO.h"
#include "lint/Lint.h"
#include "validate/SymbolicExec.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace sks;

namespace {

void usage(const char *Argv0) {
  std::printf("usage: %s [--strict] [--quiet] [--json] [--validate] "
              "<kernel.sks>...\n"
              "  --strict   nonzero exit on ANY diagnostic (default: only\n"
              "             warnings and errors gate; notes are printed)\n"
              "  --quiet    print only the per-file summary lines\n"
              "  --json     print findings as one JSON array on stdout\n"
              "             (file/line/instr/rule/severity/message)\n"
              "  --validate also statically prove the JIT's x86-64 emission\n"
              "             of each kernel (scalar and key-payload paths)\n"
              "             computes its function; failures are errors\n"
              "exit status: 0 clean at the gating severity, 1 when some\n"
              "diagnostic gates, 2 on unreadable input or a usage error\n"
              "(2 dominates 1)\n",
              Argv0);
}

/// 1-based file line of each instruction: the k-th line that still holds a
/// token after comment stripping is instruction k (mirrors parseProgram's
/// skip of header, comment, and blank lines). 0 when the file has fewer
/// instruction lines than asked for (never happens for a parsed kernel).
std::vector<unsigned> instrLines(const std::string &Path) {
  std::vector<unsigned> Lines;
  std::ifstream In(Path);
  std::string Line;
  for (unsigned LineNo = 1; std::getline(In, Line); ++LineNo) {
    if (size_t Hash = Line.find('#'); Hash != std::string::npos)
      Line.resize(Hash);
    if (Line.find_first_not_of(" \t\r,") != std::string::npos)
      Lines.push_back(LineNo);
  }
  return Lines;
}

/// Appends \p S as a JSON string literal. Paths come from the command line
/// and may hold any byte; JSON forbids raw control characters, so every
/// byte below 0x20 is written as a \u00XX escape.
void appendJsonString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char Ch : S) {
    switch (Ch) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    default:
      if (static_cast<unsigned char>(Ch) < 0x20) {
        char Escape[8];
        std::snprintf(Escape, sizeof(Escape), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(Ch)));
        Out += Escape;
      } else {
        Out += Ch;
      }
    }
  }
  Out += '"';
}

} // namespace

int main(int Argc, char **Argv) {
  bool Strict = false, Quiet = false, Json = false, Validate = false;
  std::vector<std::string> Paths;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--strict") == 0)
      Strict = true;
    else if (std::strcmp(Argv[I], "--quiet") == 0)
      Quiet = true;
    else if (std::strcmp(Argv[I], "--json") == 0)
      Json = true;
    else if (std::strcmp(Argv[I], "--validate") == 0)
      Validate = true;
    else if (std::strcmp(Argv[I], "--help") == 0) {
      usage(Argv[0]);
      return 0;
    } else if (Argv[I][0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", Argv[I]);
      usage(Argv[0]);
      return 2;
    } else
      Paths.push_back(Argv[I]);
  }
  if (Paths.empty()) {
    usage(Argv[0]);
    return 2;
  }

  const LintSeverity Gate = Strict ? LintSeverity::Note : LintSeverity::Warning;
  bool AnyGating = false, AnyBroken = false;
  std::string JsonOut = "[";
  bool JsonFirst = true;
  for (const std::string &Path : Paths) {
    SavedKernel Kernel;
    if (!loadKernel(Path, Kernel)) {
      std::fprintf(stderr, "%s: error: not a readable sks-kernel file\n",
                   Path.c_str());
      AnyBroken = true;
      continue;
    }
    std::vector<Diagnostic> Diags = lintProgramSemantic(Kernel.P, Kernel.N);
    std::vector<unsigned> Lines = Json ? instrLines(Path)
                                       : std::vector<unsigned>();
    size_t Gating = 0;
    for (const Diagnostic &D : Diags) {
      if (D.Severity >= Gate)
        ++Gating;
      if (Json) {
        if (!JsonFirst)
          JsonOut += ",";
        JsonFirst = false;
        JsonOut += "\n  {\"file\": ";
        appendJsonString(JsonOut, Path);
        JsonOut += ", \"line\": " +
                   std::to_string(D.InstrIndex < Lines.size()
                                      ? Lines[D.InstrIndex]
                                      : 0) +
                   ", \"instr\": " + std::to_string(D.InstrIndex) +
                   ", \"rule\": \"" + lintRuleName(D.Rule) +
                   "\", \"severity\": \"" + lintSeverityName(D.Severity) +
                   "\", \"message\": ";
        appendJsonString(JsonOut, D.Message);
        JsonOut += "}";
      } else if (!Quiet) {
        std::printf("%s: %s\n", Path.c_str(),
                    toString(D, Kernel.P, Kernel.N).c_str());
      }
    }
    if (Validate) {
      // Translation validation: prove the JIT's scalar and key-payload
      // emissions of this kernel. Failures always gate (error severity) —
      // a kernel whose executable form is unproven must not ship.
      ValidationReport Scalar =
          validateJitKernel(Kernel.Kind, Kernel.N, Kernel.P);
      ValidationReport Pair =
          validateJitKernel<int64_t>(Kernel.Kind, Kernel.N, Kernel.P);
      auto Report = [&](const char *PathName, const ValidationReport &R) {
        if (!R.Applicable || R.Ok)
          return;
        ++Gating;
        for (const ValidationFinding &F : R.Findings) {
          std::string Message = std::string(PathName) + " emission: " +
                                validationRuleName(F.Rule) + ": " +
                                F.Message + " (byte offset " +
                                std::to_string(F.Offset) + ")";
          if (Json) {
            if (!JsonFirst)
              JsonOut += ",";
            JsonFirst = false;
            JsonOut += "\n  {\"file\": ";
            appendJsonString(JsonOut, Path);
            JsonOut += ", \"line\": 0, \"instr\": 0, \"rule\": "
                       "\"jit-validate\", \"severity\": \"error\", "
                       "\"message\": ";
            appendJsonString(JsonOut, Message);
            JsonOut += "}";
          } else if (!Quiet) {
            std::printf("%s: error: [jit-validate] %s\n", Path.c_str(),
                        Message.c_str());
          }
        }
      };
      Report("scalar", Scalar);
      Report("pair", Pair);
    }
    AnyGating |= Gating != 0;
    if (!Json)
      std::printf("%s: %zu instruction%s, %zu diagnostic%s%s\n", Path.c_str(),
                  Kernel.P.size(), Kernel.P.size() == 1 ? "" : "s",
                  Diags.size(), Diags.size() == 1 ? "" : "s",
                  Diags.empty() ? " (clean)" : "");
  }
  if (Json)
    std::printf("%s%s]\n", JsonOut.c_str(), JsonFirst ? "" : "\n");
  return AnyBroken ? 2 : (AnyGating ? 1 : 0);
}

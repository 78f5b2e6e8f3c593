#!/usr/bin/env bash
# Tier-2 lint gate, three stages:
#
#  1. trace-schema gate: when a built simr_cli exists, emit a small
#     Perfetto trace and validate it with tools/check_trace.py (always
#     runs; python3 is part of the base image);
#  2. gcc -fanalyzer over src/analysis, src/trace, src/simt and
#     src/simr (the static dataflow framework, the trace capture/replay
#     layer it feeds, the lockstep engine, whose lane state lives in
#     fixed arrays indexed by lane, and the runner with its stream
#     cache): path-sensitive checks for leaks, NULL derefs and
#     uninitialized reads. GCC 12's C++ analyzer is experimental, so
#     two known false-positive patterns are suppressed (throwing
#     operator new reported as possibly-NULL; shared_ptr control-block
#     reads reported as uninitialized "'<unknown>'" values) and only
#     findings located in repo sources gate. The analyzer runs under
#     LC_ALL=C: in a UTF-8 locale gcc prints curly quotes, which the
#     "'<unknown>'" filter would not match;
#  3. clang-tidy over the library, tool and test sources with the
#     checks pinned in .clang-tidy, warnings treated as errors
#     (advisory when clang-tidy is not installed -- the container image
#     for this repo ships only the gcc toolchain).
#
# Usage: tools/lint.sh [build-dir]
#
# The build dir must contain compile_commands.json for the clang-tidy
# stage; one is generated into ./build-lint if the default ./build
# lacks it. Exits non-zero on any finding from either stage.

set -u
cd "$(dirname "$0")/.."

STATUS=0
BUILD="${1:-build}"

# --- Stage 1: trace schema gate -------------------------------------
CLI=""
for candidate in "$BUILD/examples/simr_cli" "$BUILD/simr_cli"; do
    if [ -x "$candidate" ]; then
        CLI="$candidate"
        break
    fi
done
if [ -n "$CLI" ] && command -v python3 >/dev/null 2>&1; then
    TRACE="$(mktemp /tmp/simr_trace.XXXXXX.json)"
    if "$CLI" trace user --requests 64 --out "$TRACE" >/dev/null; then
        if python3 tools/check_trace.py "$TRACE" \
               --require-cat batching lockstep; then
            echo "lint.sh: trace schema gate passed"
        else
            echo "lint.sh: trace schema gate FAILED"
            STATUS=1
        fi
    else
        echo "lint.sh: simr_cli trace failed"
        STATUS=1
    fi
    # Cross-layer view: the social_network trace adds the cluster
    # timeline (its per-server tier spans are category sys),
    # per-request async spans and the journey flow arrows (s/t/f
    # events) linking cluster batches to chip issue windows.
    if "$CLI" trace social_network --requests 64 --out "$TRACE" \
           >/dev/null; then
        if python3 tools/check_trace.py "$TRACE" \
               --require-cat batching lockstep link sys; then
            echo "lint.sh: flow trace schema gate passed"
        else
            echo "lint.sh: flow trace schema gate FAILED"
            STATUS=1
        fi
    else
        echo "lint.sh: simr_cli trace social_network failed"
        STATUS=1
    fi
    rm -f "$TRACE"
else
    echo "lint.sh: no built simr_cli (or no python3); skipping the" \
         "trace schema gate"
fi

# --- Stage 2: gcc -fanalyzer over src/{analysis,trace,simt,simr} ----
GCC="${GCC:-g++}"
if command -v "$GCC" >/dev/null 2>&1; then
    ANALYZER_STATUS=0
    for f in src/analysis/*.cc src/trace/*.cc src/simt/*.cc \
             src/simr/*.cc; do
        # Real findings carry a repo-relative path; analyzer noise
        # against libstdc++ internals is attributed to system headers
        # (or bare "cc1plus:") and does not gate.
        FINDINGS=$(LC_ALL=C "$GCC" -std=c++20 -O1 -fanalyzer \
                       -Wno-analyzer-possible-null-dereference \
                       -I src -c "$f" -o /dev/null 2>&1 |
                   grep -E '^(src|tests|bench|examples)/.*\[-Wanalyzer' |
                   grep -v "value '<unknown>'")
        if [ -n "$FINDINGS" ]; then
            echo "lint.sh: -fanalyzer findings in $f:"
            echo "$FINDINGS"
            ANALYZER_STATUS=1
        fi
    done
    if [ "$ANALYZER_STATUS" -eq 0 ]; then
        echo "lint.sh: gcc -fanalyzer gate passed (src/analysis," \
             "src/trace, src/simt, src/simr)"
    else
        echo "lint.sh: gcc -fanalyzer gate FAILED"
        STATUS=1
    fi
else
    echo "lint.sh: $GCC not found; skipping the -fanalyzer gate"
fi

# --- Stage 3: clang-tidy --------------------------------------------
TIDY="${CLANG_TIDY:-clang-tidy}"
if ! command -v "$TIDY" >/dev/null 2>&1; then
    echo "lint.sh: $TIDY not found; skipping tier-2 lint (install" \
         "clang-tidy to enable)"
    exit $STATUS
fi

if [ ! -f "$BUILD/compile_commands.json" ]; then
    BUILD=build-lint
    cmake -B "$BUILD" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null \
        || exit 1
fi

# The find glob picks up every library source automatically -- new
# sources need no registration here.
FILES=$(find src tests bench examples \
    \( -name '*.cc' -o -name '*.cpp' \) | sort)

for f in $FILES; do
    "$TIDY" -p "$BUILD" --quiet "$f" || STATUS=1
done

if [ "$STATUS" -ne 0 ]; then
    echo "lint.sh: findings reported (warnings are errors)"
fi
exit $STATUS

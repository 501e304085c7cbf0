#!/usr/bin/env bash
# cli_error_paths.sh — pins ftbfs_cli's error-path contract, wired into
# ctest as `cli_error_paths` (CMakeLists passes the built binary).
#
# The contract, for EVERY refused invocation:
#   * the process exits non-zero (scripts and CI can gate on $?);
#   * the diagnostic lands on stderr, never stdout (stdout is reserved for
#     the machine-readable --json reports, so `cli ... --json | jq` can
#     never swallow an error message as data).
#
# Covered refusals: unknown command / empty argv, bad --fault-model,
# malformed --sources (including the trailing-garbage form "5x" that a
# lenient strtoll would silently truncate), bad --graph-format, a missing
# graph file, --eps on a non-edge pipeline, keys and positional arguments
# the subcommand does not read (usage error, exit 2; this includes the
# removed --v5 key, v5 being what --out writes), outputs that cannot be
# written (/dev/full), and structure upgrade / verify on a truncated
# v5/v6 artifact. The CLI also must not read FTBFS_<KEY> environment
# variables (those are the benches' fallback, not the CLI's). Two positive
# checks ride along: a --site-dist build persists its accelerator, so fsck
# of the artifact is clean with no drop note; and a `build --json` row
# reports the ε pipeline's phase split.
set -u

CLI="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
fails=0

# expect_fail NAME [--allow-stdout] CMD...
# Runs CMD, requires: non-zero exit, non-empty stderr, and (unless
# --allow-stdout) an empty stdout.
expect_fail() {
  local name="$1"
  shift
  local allow_stdout=0
  if [ "$1" = "--allow-stdout" ]; then
    allow_stdout=1
    shift
  fi
  local out="$TMP/out.$name" err="$TMP/err.$name"
  "$@" >"$out" 2>"$err"
  local rc=$?
  if [ "$rc" -eq 0 ]; then
    echo "FAIL($name): exit 0, expected non-zero"
    fails=$((fails + 1))
    return
  fi
  if [ ! -s "$err" ]; then
    echo "FAIL($name): empty stderr, expected a diagnostic"
    fails=$((fails + 1))
    return
  fi
  if [ "$allow_stdout" -eq 0 ] && [ -s "$out" ]; then
    echo "FAIL($name): wrote to stdout:"
    sed 's/^/    /' "$out"
    fails=$((fails + 1))
    return
  fi
  echo "ok($name): exit $rc, stderr-only"
}

# expect_usage NAME CMD...
# expect_fail, plus the usage-error exit code 2 exactly.
expect_usage() {
  local name="$1"
  shift
  "$@" >/dev/null 2>&1
  local rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL($name): exit $rc, expected the usage error 2"
    fails=$((fails + 1))
    return
  fi
  expect_fail "$name" "$@"
}

GRAPH="$TMP/g.edges"
"$CLI" generate --family=gnm --n=40 --m=120 --seed=1 --out="$GRAPH" \
  >/dev/null 2>&1 || { echo "FAIL(setup): generate"; exit 1; }

ART="$TMP/h.ftbfs"
"$CLI" build --graph="$GRAPH" --fault-model=dual --out="$ART" \
  >/dev/null 2>&1 || { echo "FAIL(setup): build"; exit 1; }

# Argument-layer refusals.
expect_fail no_command "$CLI"
expect_fail unknown_command "$CLI" frobnicate --graph="$GRAPH"
expect_fail bad_fault_model \
  "$CLI" build --graph="$GRAPH" --fault-model=bogus
expect_fail malformed_sources_nonnumeric \
  "$CLI" build --graph="$GRAPH" --sources=0,x,10
expect_fail malformed_sources_trailing_garbage \
  "$CLI" build --graph="$GRAPH" --sources=0,5x,10
expect_fail bad_graph_format \
  "$CLI" info --graph="$GRAPH" --graph-format=yaml
expect_fail missing_graph_file \
  "$CLI" info --graph="$TMP/nope.edges"
expect_fail eps_on_dual \
  "$CLI" build --graph="$GRAPH" --fault-model=dual --eps=0.25
expect_fail build_out_unwritable \
  "$CLI" build --graph="$GRAPH" --out=/dev/full
expect_fail generate_out_unwritable \
  "$CLI" generate --family=gnm --n=40 --m=120 --seed=1 --out=/dev/full
expect_usage unknown_key_underscore_spelling \
  "$CLI" build --graph="$GRAPH" --fault_model=dual
expect_usage removed_dual_dfs_schedule_key \
  "$CLI" build --graph="$GRAPH" --fault-model=dual --dual-dfs-schedule=off
expect_usage removed_v5_key \
  "$CLI" build --graph="$GRAPH" --fault-model=dual --v5 --out="$TMP/v5.ftbfs"
expect_usage stray_positional_path \
  "$CLI" build --graph="$GRAPH" "$TMP/stray.edges"

# The site-dist accelerator persists through the default --out framing:
# the artifact carries the section and fsck loads it clean, with no note
# about a dropped section.
"$CLI" build --graph="$GRAPH" --fault-model=dual --site-dist \
  --out="$TMP/sd.ftbfs" >/dev/null 2>&1
"$CLI" fsck --graph="$GRAPH" --structure="$TMP/sd.ftbfs" \
  >"$TMP/fsck_sd.out" 2>&1
rc=$?
if [ "$rc" -ne 0 ] || grep -q "site-dist" "$TMP/fsck_sd.out" ||
   ! grep -q "^section site-dist " "$TMP/sd.ftbfs"; then
  echo "FAIL(site_dist_persists): fsck exit $rc (or no site-dist section):"
  sed 's/^/    /' "$TMP/fsck_sd.out"
  fails=$((fails + 1))
else
  echo "ok(site_dist_persists): fsck exit 0, no drop note"
fi

# Environment isolation: FTBFS_N / FTBFS_M must not reach generate.
"$CLI" generate --family=gnm --seed=1 --out="$TMP/plain.edges" >/dev/null
FTBFS_N=9 FTBFS_M=12 "$CLI" generate --family=gnm --seed=1 \
  --out="$TMP/env.edges" >/dev/null
if cmp -s "$TMP/plain.edges" "$TMP/env.edges"; then
  echo "ok(env_does_not_reach_generate)"
else
  echo "FAIL(env_does_not_reach_generate): FTBFS_N/FTBFS_M changed the graph"
  fails=$((fails + 1))
fi

# Truncated-artifact refusals: cut the checksummed v5 artifact mid-file;
# the loader must refuse (CRC / framing), the CLI must exit non-zero.
BYTES=$(wc -c <"$ART")
head -c "$((BYTES / 2))" "$ART" >"$TMP/trunc.ftbfs"
expect_fail verify_truncated_artifact \
  "$CLI" verify --graph="$GRAPH" --structure="$TMP/trunc.ftbfs"
expect_fail convert_truncated_artifact \
  "$CLI" convert --graph="$GRAPH" --structure="$TMP/trunc.ftbfs" \
  --out="$TMP/up.ftbfs"
if [ -e "$TMP/up.ftbfs" ]; then
  echo "FAIL(convert_truncated_artifact): refused convert left an output file"
  fails=$((fails + 1))
fi

# fsck is the one command whose verdict IS its exit code. On a truncated
# artifact the tolerant default may still salvage a degraded-but-correct
# session (exit 1) or refuse outright (exit 2) depending on which section
# the cut lands in — either way the verdict must be non-zero. Under
# --strict the load must refuse, which IS the broken verdict (2).
"$CLI" fsck --graph="$GRAPH" --structure="$TMP/trunc.ftbfs" \
  >"$TMP/fsck.out" 2>"$TMP/fsck.err"
rc=$?
if [ "$rc" -ne 1 ] && [ "$rc" -ne 2 ]; then
  echo "FAIL(fsck_truncated): exit $rc, expected verdict 1 or 2"
  fails=$((fails + 1))
else
  echo "ok(fsck_truncated): exit $rc"
fi
"$CLI" fsck --graph="$GRAPH" --structure="$TMP/trunc.ftbfs" --strict \
  >"$TMP/fsck_strict.out" 2>"$TMP/fsck_strict.err"
rc=$?
if [ "$rc" -ne 2 ]; then
  echo "FAIL(fsck_truncated_strict): exit $rc, expected the broken verdict 2"
  fails=$((fails + 1))
else
  echo "ok(fsck_truncated_strict): exit 2"
fi

"$CLI" build --graph="$GRAPH" --eps=0.33 --json >"$TMP/build.json" 2>&1
before=$fails
for key in seconds_engine seconds_dist_tables seconds_detours \
  seconds_interference seconds_s1 seconds_s2 interference_truncated_buckets \
  detour_traversal_arcs detour_boundary_arcs detour_source_probes; do
  if ! grep -q "\"$key\"" "$TMP/build.json"; then
    echo "FAIL(build_json_phase_split): per_source row lacks $key"
    fails=$((fails + 1))
  fi
done
[ "$fails" -eq "$before" ] && echo "ok(build_json_phase_split)"

if [ "$fails" -ne 0 ]; then
  echo "$fails error-path check(s) FAILED"
  exit 1
fi
echo "all CLI error paths ok"

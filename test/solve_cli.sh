#!/usr/bin/env bash
# `cpsrisk solve` at the CLI level, over every example program plus the
# test fixtures:
#   1. exit 0 on a satisfiable program, 1 on an unsatisfiable one;
#   2. `-n 1` reports exactly one of the full run's answers;
#   3. `--opt` reports only optimal models;
#   4. `--stats` prints the Ground: and Stats: lines;
#   5. `#show` answers keep the model count and are sorted by what they
#      show, then by cost;
#   6. a model limit below 1 is a usage error (exit 124), and so is
#      `--jobs` (the solver has no parallel mode).
# Usage: solve_cli.sh CLI FIXTURE_DIR EXAMPLE_DIR
set -eu

CLI=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
fixtures=$(cd "$2" && pwd)
examples=$(cd "$3" && pwd)
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"

fail() { echo "solve-cli: $*" >&2; exit 1; }

# run ARGS...: stdout to out.txt, stderr to err.txt, exit status in $code
run() { code=0; "$CLI" solve "$@" > out.txt 2> err.txt || code=$?; }

expect_code() {
  [ "$code" -eq "$1" ] || fail "solve $2: expected exit $1, got $code"
}

for f in "$examples"/*.lp; do
  name=$(basename "$f")
  run "$f"
  expect_code 0 "$name"
  grep '^Answer' out.txt > all.txt || fail "$name: no Answer lines"
  grep -q '^SATISFIABLE' out.txt || fail "$name: no SATISFIABLE line"

  run -n 1 "$f"
  expect_code 0 "-n 1 $name"
  [ "$(grep -c '^Answer' out.txt)" -eq 1 ] || fail "-n 1 $name: not one answer"
  grep -q '^SATISFIABLE (1 model)$' out.txt || fail "-n 1 $name: bad summary"
  model=$(sed -n 's/^Answer 1: //p' out.txt)
  sed 's/^Answer [0-9]*: //' all.txt | grep -qxF "$model" \
    || fail "-n 1 $name: answer $model is not one of the full run's"

  run --opt "$f"
  expect_code 0 "--opt $name"

  run --stats "$f"
  expect_code 0 "--stats $name"
  grep -q '^Ground: ' out.txt || fail "--stats $name: no Ground: line"
  grep -q '^Stats: ' out.txt || fail "--stats $name: no Stats: line"
done

run "$fixtures/unsat.lp"
expect_code 1 unsat.lp
[ "$(cat out.txt)" = UNSATISFIABLE ] || fail "unsat.lp: expected UNSATISFIABLE"
run --stats "$fixtures/unsat.lp"
expect_code 1 "--stats unsat.lp"
grep -q '^Ground: ' out.txt && grep -q '^Stats: ' out.txt \
  || fail "--stats unsat.lp: missing statistics"

cat > opt.txt <<'OUT'
Answer 1: {b} cost[1@0]
Answer 2: {b, c} cost[1@0]
SATISFIABLE (2 models)
OUT
run --opt "$fixtures/weak.lp"
expect_code 0 "--opt weak.lp"
cmp -s opt.txt out.txt || fail "--opt weak.lp: not the two optima"

cat > show_dup.txt <<'OUT'
Answer 1: {c}
Answer 2: {c}
SATISFIABLE (2 models)
OUT
cat > show_order.txt <<'OUT'
Answer 1: {x}
Answer 2: {y}
SATISFIABLE (2 models)
OUT
cat > show_cost.txt <<'OUT'
Answer 1: {c}
Answer 2: {c} cost[1@0]
SATISFIABLE (2 models)
OUT
for fixture in show_dup show_order show_cost; do
  run "$fixtures/$fixture.lp"
  expect_code 0 "$fixture.lp"
  cmp -s "$fixture.txt" out.txt \
    || fail "$fixture.lp: $(tr '\n' ' ' < out.txt)"
done

for limit in 0 -2; do
  run "--models=$limit" "$examples/tank_schedule.lp"
  expect_code 124 "--models=$limit"
  grep -q 'at least 1' err.txt || fail "--models=$limit: no usage message"
  [ ! -s out.txt ] || fail "--models=$limit: printed answers"
done

for opt in "--jobs 2" "-j 2"; do
  run $opt "$fixtures/weak.lp"
  expect_code 124 "$opt"
  [ ! -s out.txt ] || fail "$opt: printed answers"
done

echo "solve-cli: exit codes, -n, --opt, --stats, #show, limit and --jobs checks pass"

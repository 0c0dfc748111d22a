#!/usr/bin/env bash
# Bad input files at the CLI level: every file-taking subcommand, handed
# a directory or a malformed system model, ends with a documented exit
# status — never cmdliner's 125 for an uncaught exception. A refused
# input is reported as one `cpsrisk <cmd>: ...` line on stderr; lint and
# analyze exit 2 on it, every other subcommand 1. A program whose
# arithmetic cannot be evaluated is refused by `solve` the same way, and
# so is a mutation's `! ASP` tail that cannot be ground by `sweep`. A
# negative --horizon is a usage error.
# Usage: cli_errors.sh CLI
set -eu

CLI=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"

fail() { echo "cli-errors: $*" >&2; exit 1; }

mkdir adir
cat > bad.model <<'MODEL'
model "broken"
element plc "PLC" device {
relation r1 flow plc ->
MODEL

# expect STATUS ARGS...: cpsrisk ARGS exits with STATUS, and anything it
# says on stderr is one line naming the subcommand
expect() {
  want=$1
  shift
  code=0
  "$CLI" "$@" > out.txt 2> err.txt || code=$?
  [ "$code" -ne 125 ] || fail "cpsrisk $*: uncaught exception: $(cat err.txt)"
  [ "$code" -eq "$want" ] || fail "cpsrisk $*: expected exit $want, got $code"
  if [ -s err.txt ]; then
    [ "$(wc -l < err.txt)" -eq 1 ] || fail "cpsrisk $*: more than one stderr line"
    grep -q "^cpsrisk $1: " err.txt || fail "cpsrisk $*: stderr: $(cat err.txt)"
  fi
}

# no daemon listens here: request reads its files before connecting
sock="--socket none.sock"

# a directory passes cmdliner's file check but cannot be read
for cmd in model threats solve attackgraph dot sweep; do
  expect 1 $cmd adir
done
expect 2 lint adir
expect 2 analyze adir
expect 1 sweep --model adir
expect 1 request sweep adir $sock
expect 1 request solve adir $sock
expect 1 request load-model --model adir $sock

# a malformed system model, wherever a file is taken
for cmd in model threats solve attackgraph dot; do
  expect 1 $cmd bad.model
done
expect 1 lint bad.model # its parse error is a lint finding
expect 2 analyze bad.model
expect 1 sweep --model bad.model
expect 0 sweep --horizon 4 bad.model # each line a delta of unknown ids
expect 1 request sweep bad.model $sock
expect 1 request solve bad.model $sock
expect 1 request load-model --model bad.model $sock

# arithmetic that cannot be evaluated is a grounding error of the program
printf 'p(a). q(Y) :- p(X), Y = X + 1.\n' > sym_assign.lp
printf 'p(a). r(1). q(X) :- p(X), r(X+1).\n' > sym_arg.lp
printf 'p(1). q(Y) :- p(X), Y = X / 0.\n' > div_zero.lp
printf 'p(1). q(X) :- p(X), X < a+1.\n' > sym_cmp.lp
for f in sym_assign sym_arg div_zero sym_cmp; do
  expect 1 solve $f.lp
  grep -q "^cpsrisk solve: $f.lp: grounding error: " err.txt ||
    fail "cpsrisk solve $f.lp: stderr: $(cat err.txt)"
done

# mutation lines that once escaped as uncaught grounding errors: ids that
# are no ASP constant as written, an ASP tail holding ':' without a
# label, and an unsafe ASP tail (refused with its line and column)
printf '_a / _m\n' > underscore.txt
printf '\303\251\n' > accent.txt
printf 'F1 ! activated(f2) :- time(5).\n' > colon_tail.txt
printf 'F1 ! p(X).\n' > unsafe_tail.txt
expect 0 sweep underscore.txt
expect 0 sweep accent.txt
expect 0 sweep colon_tail.txt
expect 1 sweep unsafe_tail.txt
grep -q "^cpsrisk sweep: unsafe_tail.txt: line 1, col 5: unsafe ASP after '!': " err.txt ||
  fail "cpsrisk sweep unsafe_tail.txt: stderr: $(cat err.txt)"

# safe ASP tails that fail at grounding: arithmetic on a symbol, and a
# rule whose atoms never stop growing (refused at the atom cap)
printf 'F1 ! p(a). q(Y) :- p(X), Y = X + 1.\n' > sym_tail.txt
printf 'F1 ! p(0). p(X+1) :- p(X).\n' > overflow_tail.txt
for f in sym_tail overflow_tail; do
  expect 1 sweep $f.txt
  grep -q "^cpsrisk sweep: $f.txt: grounding error: " err.txt ||
    fail "cpsrisk sweep $f.txt: stderr: $(cat err.txt)"
done

# a negative horizon is a usage error (cmdliner's 124) naming the option,
# not an empty trace with every requirement violated; 0 stays valid
for cmd in "sweep" "mitigate --case water-tank" "request load-model $sock"; do
  code=0
  "$CLI" $cmd --horizon=-1 > out.txt 2> err.txt || code=$?
  [ "$code" -eq 124 ] || fail "cpsrisk $cmd --horizon=-1: expected exit 124, got $code"
  grep -q "option '--horizon': expected a horizon of at least 0, got -1" err.txt ||
    fail "cpsrisk $cmd --horizon=-1: stderr: $(cat err.txt)"
done
expect 0 sweep --horizon 0
expect 0 mitigate --case water-tank --horizon 0

echo "cli-errors: every file-taking subcommand refuses bad input cleanly"

#!/usr/bin/env bash
# End-to-end check of the assessment service (ISSUE acceptance criteria):
#   1. `cpsrisk request sweep` against a warm daemon is bit-for-bit
#      identical to the one-shot `cpsrisk sweep` on the same mutations;
#   2. re-sweeping on the SAME daemon is answered from memory
#      (misses = 0);
#   3. re-sweeping against a RESTARTED daemon is answered entirely from
#      the persistent store — every job a disk hit, zero fresh grounding
#      and zero fresh solving, proven by the response's own accounting;
#   4. after each orderly shutdown the cache directory holds entry files
#      only: no index file beside them and no tmp- debris.
set -eu

CLI=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
dir=$(mktemp -d)
daemon=
cleanup() {
  [ -n "$daemon" ] && kill "$daemon" 2>/dev/null
  rm -rf "$dir"
}
trap cleanup EXIT
cd "$dir"

# distinct deltas, so the one-shot run prints no [cached] markers
cat > muts.txt <<'EOF'
s1: F1
s2: F2 / M1
s3: F1,F3 / M2
EOF

"$CLI" sweep muts.txt > oneshot.txt

start_daemon() {
  "$CLI" serve --socket s.sock --cache-dir cache --quiet &
  daemon=$!
  for _ in $(seq 1 100); do
    [ -S s.sock ] && return
    sleep 0.1
  done
  echo "serve-smoke: daemon did not come up" >&2
  exit 1
}

stop_daemon() {
  "$CLI" request shutdown --socket s.sock > /dev/null
  wait "$daemon"
  daemon=
}

only_entries() { # only_entries <when>: the store is its *.ent files
  ls cache/*.ent > /dev/null 2>&1 \
    || { echo "serve-smoke: $1: no store entries" >&2; exit 1; }
  for f in cache/* cache/.[!.]*; do
    [ -e "$f" ] || continue
    case $f in
      *.ent) ;;
      *) echo "serve-smoke: $1: unexpected store file $f" >&2; exit 1 ;;
    esac
  done
}

expect() { # expect <file> <needle> <what>
  if ! grep -qF "$2" "$1"; then
    echo "serve-smoke: $3: expected $2 in:" >&2
    cat "$1" >&2
    exit 1
  fi
}

# --- first daemon: cold cache, then warm memory --------------------------
start_daemon
"$CLI" request load-model --socket s.sock --name wt > /dev/null
"$CLI" request sweep muts.txt --socket s.sock --name wt > warm.txt
diff oneshot.txt warm.txt \
  || { echo "serve-smoke: served sweep differs from one-shot" >&2; exit 1; }
"$CLI" request sweep muts.txt --socket s.sock --name wt --json > repeat.json
expect repeat.json '"hits":3,"disk_hits":0,"misses":0' "warm-memory repeat"

# --- mitigation frontier answered from the loaded model's warm state -----
"$CLI" request mitigate --socket s.sock --name wt > mit.json
"$CLI" mitigate --frontier --case water-tank --json \
  | grep -o '"optimal":{[^}]*}' > mit_oneshot.txt
expect mit_oneshot.txt '"selected":' "one-shot mitigate --json"
grep -o '"optimal":{[^}]*}' mit.json > mit_served.txt
diff mit_oneshot.txt mit_served.txt \
  || { echo "serve-smoke: served mitigate differs from one-shot" >&2; exit 1; }
"$CLI" request mitigate --socket s.sock --name wt --json > mit2.json
expect mit2.json '"fresh":0' "warm mitigate repeat runs no fresh solves"

# the hierarchy backend serves the 12-action catalog the same way
"$CLI" request load-model --socket s.sock --name hier --backend hierarchy \
  > /dev/null
"$CLI" request mitigate --socket s.sock --name hier --budgets 3,9 > hier.json
expect hier.json '"curve":[{"budget":3' "hierarchy budget curve"
stop_daemon
only_entries "first shutdown"

# --- restarted daemon: everything must come from the persistent store ----
start_daemon
"$CLI" request load-model --socket s.sock --name wt > /dev/null
"$CLI" request sweep muts.txt --socket s.sock --name wt --json > restart.json
expect restart.json '"hits":0,"disk_hits":3,"misses":0' "restart provenance"
expect restart.json '"fresh":{"guesses":0,"firings":0' "no fresh solving"
expect restart.json '"ground":{"fresh_rules":0' "no fresh grounding"
"$CLI" request sweep muts.txt --socket s.sock --name wt > restarted.txt
diff oneshot.txt restarted.txt \
  || { echo "serve-smoke: restarted sweep differs from one-shot" >&2; exit 1; }
stop_daemon
only_entries "restarted shutdown"

echo "serve-smoke: restart served from disk, output identical to one-shot"

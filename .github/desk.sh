#!/usr/bin/env bash
# The desk commands (n=100, s=10, seed=12) and the comparison of the files
# they write, in one place for every CI step that runs them.
#
#   desk.sh run <out> [<src>]  run each desk command into <out>: through the
#                              installed `simalm` script, or, given <src>,
#                              through `python3 -m simalm.cli` on that tree
#   desk.sh compare <a> <b>    cmp every desk file of <a> with <b>'s: the
#                              five files of `simalm generate`, seqsim.csv,
#                              the four table CSVs, the four bounds CSVs and
#                              the twelve trace CSVs, the traces once their
#                              wall-clock columns cpu_learn_s and cpu_opt_s
#                              (fields 8 and 9) are cut. <a> must hold twelve
#                              traces with those columns there. Names each
#                              differing file, prints their count and fails
#                              when any differs
set -euo pipefail

run() {
  local out=$1 src=${2:-}
  local cli=(simalm)
  if [ -n "$src" ]; then
    cli=(env PYTHONPATH="$src" python3 -m simalm.cli)
  fi
  desk() { "${cli[@]}" "$@" --seed 12 --out "$out"; }
  desk generate
  desk seqsim
  for regime in constant increasing; do
    for spec in learned known; do
      desk solve --spec "$spec" --regime "$regime" --epsilon 0.1 0.01 0.001
      desk table --spec "$spec" --regime "$regime" --epsilon 0.1 0.01 0.001
    done
    desk bounds --spec learned --regime "$regime" --epsilon 0.1 0.01 0.001
  done
}

compare() {
  local a=$1 b=$2 path file differ=0
  local generated=(instance.json scs.json meta.json sigma_star.npy learner_errors.npy)
  local files=("${generated[@]}" seqsim.csv
               table_{constant,increasing}_{learned,known}.csv
               bound_{constants,curves}_{constant,increasing}.csv)
  local traces=("$a"/trace_*.csv)
  if [ "${#traces[@]}" -ne 12 ]; then
    echo "$a holds ${#traces[@]} trace CSVs, not 12"
    return 1
  fi
  for path in "${traces[@]}"; do
    if [ "$(head -n 1 "$path" | cut -d, -f8-9)" != cpu_learn_s,cpu_opt_s ]; then
      echo "fields 8 and 9 of $path are not cpu_learn_s,cpu_opt_s"
      return 1
    fi
    files+=("${path##*/}")
  done
  for file in "${files[@]}"; do
    if [[ $file == trace_* ]]; then
      cmp -s <(cut -d, -f1-7,10- "$a/$file") <(cut -d, -f1-7,10- "$b/$file")
    else
      cmp -s "$a/$file" "$b/$file"
    fi || { echo "differs: $file"; differ=$((differ + 1)); }
  done
  echo "$differ of ${#files[@]} desk files differ: ${#generated[@]} generate files," \
       "seqsim.csv, 4 table CSVs, 4 bounds CSVs and ${#traces[@]} trace CSVs compared"
  test "$differ" -eq 0
}

case ${1:-} in
  run) run "${@:2}" ;;
  compare) compare "${@:2}" ;;
  *) echo "usage: $0 run <out> [<src>] | compare <a> <b>" >&2; exit 2 ;;
esac

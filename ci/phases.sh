# Shared CI phase timing. Source this from a workflow step, then wrap
# commands:
#
#     source ci/phases.sh
#     phase "pytest fast suite" python -m pytest -m "not slow" -q
#
# Timings accumulate in $PHASES_FILE (tab-separated `seconds<TAB>name`)
# so phases recorded by *different steps* of one job aggregate — GitHub
# runs every step in a fresh shell.  `phase_summary` prints the familiar
# per-phase table.

PHASES_FILE="${PHASES_FILE:-.ci-phases.tsv}"

phase() {
  local name=$1; shift
  echo "== phase: $name =="
  local start=$SECONDS rc=0
  "$@" || rc=$?
  printf '%s\t%s\n' "$((SECONDS - start))" "$name" >> "$PHASES_FILE"
  return "$rc"
}

phase_summary() {
  echo "== per-phase timing summary =="
  if [ ! -f "$PHASES_FILE" ]; then
    echo "(no phases recorded)"
    return 0
  fi
  while IFS=$'\t' read -r seconds name; do
    printf '%6ss  %s\n' "$seconds" "$name"
  done < "$PHASES_FILE"
}

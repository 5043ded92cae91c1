#!/bin/sh
# Usage: cli_exit.sh WANT_CODE PATTERN CMD [ARGS...]
# Runs CMD and passes when it exits WANT_CODE with output matching
# the grep PATTERN.
want=$1
pattern=$2
shift 2
out=$("$@" 2>&1)
rc=$?
printf '%s\n' "$out"
if [ "$rc" -ne "$want" ]; then
    echo "exit $rc, want $want"
    exit 1
fi
printf '%s\n' "$out" | grep -q -- "$pattern" || {
    echo "output lacks: $pattern"
    exit 1
}

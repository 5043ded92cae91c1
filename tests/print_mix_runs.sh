#!/bin/sh
# Usage: print_mix_runs.sh TBSTC
# Runs each distinct command `tbstc loadgen --print-mix` prints, with
# the binary TBSTC in place of `tbstc`, and passes when every one exits
# 0. The mix must include a `formats` (sparsify) line.
tbstc=$1
cmds=$("$tbstc" loadgen --print-mix --requests 50 --seed 7) || exit 1
printf '%s\n' "$cmds" | grep -q '^tbstc formats ' || {
    echo "mix has no formats command"
    exit 1
}
printf '%s\n' "$cmds" | sort -u | while read -r prog args; do
    if [ "$prog" != tbstc ]; then
        echo "not a tbstc command: $prog $args"
        exit 1
    fi
    echo "+ tbstc $args"
    # $args is split into words on purpose: it is the printed argv.
    "$tbstc" $args > /dev/null || {
        echo "exit $?: tbstc $args"
        exit 1
    }
done

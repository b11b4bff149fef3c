#!/usr/bin/env bash
# What only an installed minblock can show, and no in-process test: the
# `minblock` console script on PATH starts, the package imports from outside
# the checkout, a round trip writes its outputs with the mode of a new file,
# and a corrupt frame exits 3 with no output.  Everything else is in the
# pytest suite.  Run it from an empty directory outside the checkout:
#   cd "$(mktemp -d)" && bash /path/to/minblock/tests/smoke.sh
set -euo pipefail
minblock --help > /dev/null
python -c "import minblock, minblock.cli, minblock.oracle, minblock.plot; print(minblock.__file__)"
umask 022
cp "$0" in.txt
minblock encode in.txt in.mblk
minblock decode in.mblk back.txt
cmp in.txt back.txt
test "$(stat -c %a in.mblk)" = 644
test "$(stat -c %a back.txt)" = 644
# a valid grammar that is not a block grammar: corrupt input, no output
python -c "from minblock import DictionaryGrammar as G, encode_grammar, pack_frame; g = G(256, ((1, 2), (257, 1), (258, 258))); open('bad.mblk', 'wb').write(pack_frame(256, encode_grammar(g)))"
status=0
minblock decode bad.mblk bad.out || status=$?
test "$status" = 3
test ! -e bad.out
echo "smoke: ok"

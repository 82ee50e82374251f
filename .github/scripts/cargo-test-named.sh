#!/usr/bin/env bash
# Run `cargo test <args> -- --nocapture` and fail unless at least one test
# ran. A name filter that matches nothing (a test renamed or deleted) makes
# every test binary report "0 passed", which cargo counts as success.
#
#   .github/scripts/cargo-test-named.sh -p sstore-txn torn_binary_tail_recovers_prefix
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "$@" -- --nocapture 2>&1 | tee "$log"
if ! grep -Eq 'test result: ok\. [1-9][0-9]* passed' "$log"; then
    echo "error: \`cargo test $*\` ran no test: was a named test renamed or removed?" >&2
    exit 1
fi

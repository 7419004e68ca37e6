#!/usr/bin/env bash
# Run the whole CLI pipeline on a small instance and print the sha256 of every
# file it writes. Two checkouts that print the same list write the same bytes.
#
#   scripts/output_sha256.sh WORKDIR
#
# The run uses the simca sources of the checkout that holds this script and
# covers: generate (n=300), plain training, joint training with swap and
# gaussian noise, evaluation of both, a serial and a two-process sweep, and
# both plots. It takes a few seconds.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
work="$1"
mkdir -p "$work"
cd "$work"
export PYTHONPATH="$root/src"
simca() { python -m simca "$@" --quiet; }

cat > base.json <<'EOF'
{"n": 300, "m": 3, "d": 2, "k": 3, "alpha": 0.3, "seed": 7,
 "epsilon": 0.1, "epochs": 60, "sinkhorn_iters": 10, "learning_rate": 0.01}
EOF
cat > joint.json <<'EOF'
{"n": 300, "m": 3, "d": 2, "k": 3, "alpha": 0.3, "seed": 7,
 "epsilon": 0.2, "epochs": 40, "joint_users": true,
 "swap_rho": 0.1, "gauss_rho": 0.2}
EOF
cat > sweep.json <<'EOF'
{"seed": 3, "epochs": 20, "epsilon_values": [0.05, 0.5],
 "gauss_rho_values": [0.0, 0.3], "swap_rho_values": [0.2], "repeats": 2}
EOF

simca generate --config base.json --out bundle
simca train --bundle bundle --config base.json --out plain
simca train --bundle bundle --config joint.json --out joint
simca evaluate --bundle bundle --learned plain --config base.json --out eval-plain
simca evaluate --bundle bundle --learned joint --out eval-joint
simca sweep --bundle bundle --config sweep.json --out sweep-serial
simca sweep --bundle bundle --config sweep.json --out sweep-jobs2 --jobs 2
simca plot --results plain --out plots-train
simca plot --results sweep-serial --out plots-sweep

find bundle plain joint eval-* sweep-* plots-* -type f | LC_ALL=C sort | xargs sha256sum

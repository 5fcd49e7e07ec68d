#!/usr/bin/env bash
# Full offline verification: formatting, lints, tier-1 build + tests,
# and the determinism, storage, artifact, performance and crypto gates.
#
# Everything here must run without network access — the workspace has
# no registry dependencies (see the `proptest` feature note in the root
# Cargo.toml), and CARGO_NET_OFFLINE pins cargo to what is vendored.
#
# Usage:
#   scripts/verify.sh               # the full gate: fmt, clippy, build
#                                   # (the workspace and benchmark/),
#                                   # `cargo test -q` (every workspace
#                                   # test binary, once), then crypto,
#                                   # fuzz, bench --check io and the
#                                   # codec micro-benches, warm-store
#                                   # artifacts, perf, trace export
#   scripts/verify.sh --determinism # only the determinism stage: the
#                                   # matrix test binary, fuzz, bench
#                                   # --check io with the codec
#                                   # micro-benches, and trace export
#   scripts/verify.sh --artifacts   # only the artifact stage: warm-store
#                                   # render-twice, then every artifact
#                                   # at default settings against its
#                                   # committed results/*.txt
#   scripts/verify.sh --perf        # only the performance gates
#                                   # (bench --check perf trace)
#   scripts/verify.sh --crypto      # only the crypto stage (crypto + DKIM
#                                   # tests in release, RSA, world-build
#                                   # and DKIM micro-benches)
#
# The --determinism stage runs its test binary; the full gate does not
# repeat it, because `cargo test -q` already ran it. One scenario or axis
# of the matrix runs with cargo's test-name filter, e.g.
# `cargo test --test determinism hostile`.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

determinism() {
  # The determinism matrix: every scenario row (plain, chaos, hostile,
  # io, backpressure, NotifyMx and TwoWeekMx probes, and the cross-axis
  # rows) must reproduce its pinned content digest at shards 1/2/4/8 and
  # one session per shard, straight, under kill-and-resume and through a
  # store round-trip, with tracing off and on; plus the named journal,
  # store, budget, containment and telemetry checks.
  echo "== tier-1: determinism matrix (cargo test --test determinism) =="
  MAILVAL_QUIET=1 cargo test -q --test determinism
}

artifacts() {
  # Campaign-store determinism: a cold `--all` populates the content-
  # addressed store; two warm re-renders must simulate zero campaigns
  # (asserted via the CLI's accounting line) and produce byte-identical
  # artifact text. Small scale, fixed seed/shards so the key is stable.
  echo "== artifacts: warm-store render-twice (mailval-artifacts --all) =="
  cargo build --release -p mailval-bench --bin mailval-artifacts
  local bin=target/release/mailval-artifacts
  local dir
  dir=$(mktemp -d)
  trap 'rm -rf "$dir"' RETURN
  local -a env=(MAILVAL_SCALE=0.01 MAILVAL_SEED=2021 MAILVAL_SHARDS=2)
  env "${env[@]}" "$bin" --store "$dir/store" --all \
    >"$dir/cold.txt" 2>"$dir/cold.err"
  for pass in warm1 warm2; do
    env "${env[@]}" "$bin" --store "$dir/store" --all \
      >"$dir/$pass.txt" 2>"$dir/$pass.err"
    grep -q "simulated=0" "$dir/$pass.err" || {
      echo "artifacts: $pass pass re-simulated campaigns:" >&2
      grep "campaigns:" "$dir/$pass.err" >&2 || true
      return 1
    }
    cmp "$dir/cold.txt" "$dir/$pass.txt" || {
      echo "artifacts: $pass render diverged from cold render" >&2
      return 1
    }
  done
  echo "artifacts: zero warm simulations, byte-identical renders"

  # Committed artifacts: each one rendered at default settings (scale 1,
  # seed 2021) into a fresh store must equal its results/<name>_*.txt
  # byte for byte, so a stale committed file fails the gate. The
  # campaigns run once; later artifacts reload them from the store.
  echo "== artifacts: default-settings renders vs results/*.txt =="
  local name file
  for name in $("$bin" --list | awk '{print $1}'); do
    file=$(echo results/"$name"_*.txt)
    env -u MAILVAL_SCALE -u MAILVAL_SEED -u MAILVAL_SHARDS \
      "$bin" --store "$dir/default" "$name" \
      >"$dir/$name.txt" 2>>"$dir/default.err"
    cmp "$file" "$dir/$name.txt" || {
      echo "artifacts: $file differs from a fresh render;" \
        "regenerate it with mailval-artifacts $name" >&2
      return 1
    }
  done
  echo "artifacts: every results/*.txt matches a default-settings render"
}

fuzz() {
  # The fuzz harness drives 100k mutated frames straight into the
  # parsers, then its storage, DKIM and MTA stages (mutated command
  # lines, pipelined segments and DATA bodies through the MTA actor):
  # zero panics, every rejection classified.
  echo "== fuzz: 100k mutated frames (mailval-artifacts fuzz) =="
  cargo run --release -q -p mailval-bench --bin mailval-artifacts -- fuzz 100000
}

io_bench() {
  # The io sweep re-asserts hash equality across storage-fault rates
  # {0, .01, .05, .20} at 1,000 domains in release.
  echo "== bench: storage-fault sweep (mailval-artifacts bench --check io) =="
  cargo run --release -q -p mailval-bench --bin mailval-artifacts -- bench --check io
  # Every journal and store frame goes through the CRC-32 kernel and
  # the decoder, and every simulated datagram and SMTP segment through
  # the wire codecs: smoke-run their micro-benchmarks (the CRC rows, DNS
  # name parsing, decoding one 2k-domain NotifyEmail store entry, DNS
  # message encode/decode and one probe session's SMTP framing) on a
  # short budget.
  echo "== io: codec micro-benchmarks (cargo bench --bench microbench -- crc32 name_parse store_decode dns_encode dns_decode smtp_wire) =="
  MAILVAL_BENCH_MS=50 cargo bench -p mailval-bench --bench microbench -- \
    crc32 name_parse store_decode dns_encode dns_decode smtp_wire
}

perf() {
  # Performance regression gate: re-run the perf sweep (2k and 20k
  # domains at shards = 1/2/4/8) and the trace sweep, and fail if
  # campaign setup exceeds 30% of wall time, sessions/s drops more than
  # 10% below the committed rows in results/BENCH.json, the disabled
  # tracer costs more than 1% or the recording tracer more than 10%,
  # the traced run records no events, or any shard count or the traced
  # run changes the merged output's content hash.
  echo "== perf: regression gate (mailval-artifacts bench --check perf trace) =="
  cargo build --release -p mailval-bench --bin mailval-artifacts
  target/release/mailval-artifacts bench --check perf trace
}

trace_export() {
  # A smoke export of Chrome trace-event JSON and metrics from a
  # ~100-session campaign. The tracer overhead gate runs in the perf
  # stage.
  echo "== trace: Chrome trace-event export smoke (mailval-artifacts trace) =="
  cargo build --release -p mailval-bench --bin mailval-artifacts
  local bin=target/release/mailval-artifacts
  local dir
  dir=$(mktemp -d)
  trap 'rm -rf "$dir"' RETURN
  MAILVAL_SCALE=0.004 MAILVAL_SEED=2021 MAILVAL_SHARDS=2 \
    "$bin" trace --out "$dir/trace.json"
  grep -q '"traceEvents"' "$dir/trace.json" || {
    echo "trace: export is not Chrome trace-event JSON" >&2
    return 1
  }
  MAILVAL_SCALE=0.004 MAILVAL_SEED=2021 MAILVAL_SHARDS=2 \
    "$bin" trace --metrics --out "$dir/metrics.json"
  grep -q '"counters"' "$dir/metrics.json" || {
    echo "trace: metrics export missing counters" >&2
    return 1
  }
}

crypto() {
  # The RSA kernel at the widths campaigns use: Montgomery against
  # schoolbook, CRT against plain, the campaign key's known-answer
  # signature and DKIM sign/verify, in release (where the kernel's
  # arithmetic is compiled as benchmarks and campaigns run it); then
  # the RSA keygen/sign/verify micro-benchmarks on a short budget, the
  # probe world build that no longer generates the key, and DKIM
  # sign and verify of one message around the RSA calls.
  echo "== crypto: release tests (cargo test -p mailval-crypto -p mailval-dkim) =="
  cargo test -q --release -p mailval-crypto -p mailval-dkim
  echo "== crypto: RSA, world-build and DKIM micro-benchmarks (cargo bench --bench microbench -- rsa world_build dkim) =="
  MAILVAL_BENCH_MS=50 cargo bench -p mailval-bench --bench microbench -- rsa world_build dkim
}

case "${1:-}" in
  --crypto) crypto ;;
  --determinism) determinism; fuzz; io_bench; trace_export ;;
  --artifacts) artifacts ;;
  --perf) perf ;;
  "") ;;
  *)
    echo "verify: unknown option ${1}" >&2
    exit 2
    ;;
esac
if [[ -n "${1:-}" ]]; then
  echo "verify ${1}: OK"
  exit 0
fi

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release =="
cargo build --release

# The benchmark package is a workspace of its own and calls the campaign,
# journal and store APIs, so an API change must still build it.
echo "== benchmark: cargo build --release (benchmark/Cargo.toml) =="
cargo build --release --offline --manifest-path benchmark/Cargo.toml

# The root Cargo.toml's default-members cover every crate, so this runs
# each test binary of the workspace once, the determinism matrix
# included.
echo "== tier-1: cargo test -q (MAILVAL_QUIET silences progress) =="
MAILVAL_QUIET=1 cargo test -q

crypto
fuzz
io_bench
artifacts
perf
trace_export

echo "verify: OK"

#!/usr/bin/env sh
# Repository CI gate: formatting, lints, build, and the full test suite.
# Run from the repository root:  ./ci.sh
set -eu

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (every workspace crate, broken intra-doc links fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (tier 1)"
cargo test -q --workspace

echo "==> release-mode tests of the core and simulator (floating point as the benchmark builds it)"
cargo test --release --offline -q -p wsan-core -p wsan-sim

echo "==> perf_ledger self-tests (the repository benchmark, tiny scale)"
cargo test --offline -q --manifest-path perf_ledger/Cargo.toml

echo "==> hot-path equivalence suite runs in the default pass"
eq_prop="$(cargo test -q --test proptest_invariants -- --list)"
echo "$eq_prop" | grep -q "equivalence_hot_path_primitives_match_reference"
echo "$eq_prop" | grep -q "equivalence_schedulers_byte_identical_to_reference"
echo "$eq_prop" | grep -q "equivalence_capped_hops_conservative_for_every_rho"
echo "$eq_prop" | grep -q "equivalence_exact_hops_matches_dense"
echo "$eq_prop" | grep -q "equivalence_parallel_capped_build_is_byte_identical"
echo "$eq_prop" | grep -q "equivalence_restricted_extraction_matches_dense"
echo "$eq_prop" | grep -q "equivalence_hop_kernel_on_dense_multi_block_graphs"
echo "$eq_prop" | grep -q "equivalence_csr_build_matches_sorted_reference"

echo "==> shard routing-graph equivalence suite runs in the default pass"
shard_list="$(cargo test -q --test scale_sharding -- --list)"
echo "$shard_list" | grep -q "induced_comm_graph_matches_link_scan"

echo "==> busy-slot-vs-every-slot sim equivalence suite runs in the default pass"
eq_list="$(cargo test -q -p wsan-sim --test engine_equivalence -- --list)"
echo "$eq_list" | grep -q "dense_contract_run_is_byte_identical"
echo "$eq_list" | grep -q "scheduled_faults_match_including_fault_log"
echo "$eq_list" | grep -q "outside_contract_runs_every_slot"
echo "$eq_list" | grep -q "random_contract_scenarios_are_byte_identical"

echo "==> link-budget bit-equality suite and golden reports run in the default pass"
budget_list="$(cargo test -q -p wsan-sim --lib -- --list)"
echo "$budget_list" | grep -q "table_path_is_bit_identical_to_the_position_formula"
golden_list="$(cargo test -q -p wsan-sim --test golden_report -- --list)"
echo "$golden_list" | grep -q "seeded_run_matches_golden_digest"
echo "$golden_list" | grep -q "contract_run_with_idle_slot_faults_matches_golden_digest"
echo "$golden_list" | grep -q "aggressive_reuse_under_per_floor_wifi_matches_golden_digest"

echo "==> release smoke run (fig6, tiny scale)"
smoke_dir="$(mktemp -d)"
WSAN_RESULTS_DIR="$smoke_dir" cargo run --release -q -p wsan-bench --bin fig6 -- --sets 2 --quick
test -s "$smoke_dir/fig6.json"
test -s "$smoke_dir/fig6.manifest.jsonl"
rm -rf "$smoke_dir"

fresh_bench_dir="$(mktemp -d)"

echo "==> scheduler bench smoke (criterion + sched_bench schema)"
bench_dir="$(mktemp -d)"
WSAN_BENCH_SAMPLES=2 cargo bench -q -p wsan-bench --bench scheduler > "$bench_dir/criterion.out"
grep -q "sched/indriya-dense" "$bench_dir/criterion.out"
WSAN_RESULTS_DIR="$bench_dir" cargo run --release -q -p wsan-bench --bin sched_bench -- --quick
test -s "$bench_dir/BENCH_scheduler.json"
grep -q '"schema": "wsan.sched_bench/1"' "$bench_dir/BENCH_scheduler.json"
grep -q '"median_ns_per_placement"' "$bench_dir/BENCH_scheduler.json"
grep -q '"schedules_per_sec"' "$bench_dir/BENCH_scheduler.json"
grep -q '"speedup_rc_vs_reference"' "$bench_dir/BENCH_scheduler.json"
cp "$bench_dir/BENCH_scheduler.json" "$fresh_bench_dir/"
rm -rf "$bench_dir"

echo "==> simulator bench smoke (sim_bench schema + committed snapshot)"
simb_dir="$(mktemp -d)"
WSAN_RESULTS_DIR="$simb_dir" ./target/release/sim_bench --quick
test -s "$simb_dir/BENCH_sim.json"
grep -q '"schema": "wsan.sim_bench/1"' "$simb_dir/BENCH_sim.json"
grep -q '"speedup_events_vs_slots"' "$simb_dir/BENCH_sim.json"
grep -q '"occupancy"' "$simb_dir/BENCH_sim.json"
grep -q '"reports_identical": true' "$simb_dir/BENCH_sim.json"
# the committed snapshot must track the same schema
grep -q '"schema": "wsan.sim_bench/1"' BENCH_sim.json
cp "$simb_dir/BENCH_sim.json" "$fresh_bench_dir/"
rm -rf "$simb_dir"

echo "==> gateway bench smoke (gateway_bench schema + committed snapshot)"
gwb_dir="$(mktemp -d)"
WSAN_RESULTS_DIR="$gwb_dir" ./target/release/gateway_bench --quick
test -s "$gwb_dir/BENCH_gateway.json"
grep -q '"schema": "wsan.gateway_bench/1"' "$gwb_dir/BENCH_gateway.json"
grep -q '"speedup_delta_vs_full"' "$gwb_dir/BENCH_gateway.json"
grep -q '"delta_admissions_per_sec"' "$gwb_dir/BENCH_gateway.json"
# the committed snapshot must track the same schema
grep -q '"schema": "wsan.gateway_bench/1"' BENCH_gateway.json
cp "$gwb_dir/BENCH_gateway.json" "$fresh_bench_dir/"
rm -rf "$gwb_dir"

echo "==> graph bench smoke (graph_bench schema + committed snapshot)"
gb_dir="$(mktemp -d)"
WSAN_RESULTS_DIR="$gb_dir" ./target/release/graph_bench --quick
test -s "$gb_dir/BENCH_graph.json"
grep -q '"schema": "wsan.graph_bench/1"' "$gb_dir/BENCH_graph.json"
grep -q '"speedup_parallel_vs_dense"' "$gb_dir/BENCH_graph.json"
grep -q '"median_dense_build_ns"' "$gb_dir/BENCH_graph.json"
grep -q '"queries_equivalent": true' "$gb_dir/BENCH_graph.json"
grep -q '"parallel_identical": true' "$gb_dir/BENCH_graph.json"
# the committed snapshot must track the same schema
grep -q '"schema": "wsan.graph_bench/1"' BENCH_graph.json
cp "$gb_dir/BENCH_graph.json" "$fresh_bench_dir/"
rm -rf "$gb_dir"

echo "==> multi-gateway shard smoke (small plant, stitched validation)"
shard_dir="$(mktemp -d)"
cargo run --release -q -p wsan-cli --bin wsan -- shard --nodes 120 --shards 2 \
    --flows-per-shard 3 --seed 3 --out "$shard_dir/shard.json" > "$shard_dir/shard.log"
cat "$shard_dir/shard.log"
grep -q "validated" "$shard_dir/shard.log"
grep -q '"shards": 2' "$shard_dir/shard.json"
rm -rf "$shard_dir"

echo "==> large-plant shard smoke (5k/10k nodes on the capped-distance path, digest-pinned)"
big_dir="$(mktemp -d)"
big_start="$(date +%s)"
./target/release/wsan shard --nodes 5000 --shards 8 \
    --flows-per-shard 3 --seed 42 --out "$big_dir/shard.json" > "$big_dir/shard.log"
big_elapsed="$(( $(date +%s) - big_start ))"
cat "$big_dir/shard.log"
grep -q "validated" "$big_dir/shard.log"
grep -q "digest 2e2cfb97b8fc1adf" "$big_dir/shard.log"
grep -q '"shards": 8' "$big_dir/shard.json"
# the whole plan+schedule+stitch+validate pipeline must stay interactive;
# a dense n² hop matrix sneaking back in would blow this budget wide open
test "$big_elapsed" -le 120
./target/release/wsan shard --nodes 10000 --shards 8 \
    --flows-per-shard 3 --seed 42 > "$big_dir/shard10k.log"
cat "$big_dir/shard10k.log"
grep -q "validated" "$big_dir/shard10k.log"
grep -q "digest fc5142819e0905c3" "$big_dir/shard10k.log"
rm -rf "$big_dir"

echo "==> bench regression gate (advisory: quick-mode timings are noisy)"
cargo run --release -q -p wsan-bench --bin bench_check -- \
    --fresh "$fresh_bench_dir" --tolerance 1.5 \
    || echo "bench_check: regression beyond tolerance (advisory only in CI)"
rm -rf "$fresh_bench_dir"

echo "==> gateway crash/replay smoke (wsan serve, kill -9 mid-stream)"
gws_dir="$(mktemp -d)"
# the operation stream, split across the crash point
cat > "$gws_dir/before.jsonl" <<'EOF'
{"op":"add_flow","name":"a","source":0,"dest":5,"period":64,"deadline":48}
{"op":"add_flow","name":"b","source":3,"dest":9,"period":64,"deadline":40}
{"op":"add_flow","name":"c","source":10,"dest":2,"period":128,"deadline":96}
EOF
cat > "$gws_dir/after.jsonl" <<'EOF'
{"op":"update_rate","name":"a","period":128,"deadline":100}
{"op":"remove_flow","name":"b"}
{"op":"add_flow","name":"d","source":7,"dest":1,"period":128,"deadline":64}
EOF
# reference: the same stream through one uninterrupted gateway
{
    cat "$gws_dir/before.jsonl" "$gws_dir/after.jsonl"
    printf '{"op":"export","path":"%s/ref.csv"}\n{"op":"shutdown"}\n' "$gws_dir"
} | ./target/release/wsan serve --testbed wustl --seed 1 \
    > "$gws_dir/ref.out" 2> /dev/null
test -s "$gws_dir/ref.csv"
# interrupted: journal every ack, then kill -9 with no chance to flush
mkfifo "$gws_dir/in.fifo"
./target/release/wsan serve --testbed wustl --seed 1 \
    --journal "$gws_dir/wal.jsonl" \
    < "$gws_dir/in.fifo" > "$gws_dir/crash.out" 2> /dev/null &
gws_pid=$!
exec 9> "$gws_dir/in.fifo"
cat "$gws_dir/before.jsonl" >&9
# wait for all three acks: a written response means the WAL record is fsynced
gws_acked=0
for _ in $(seq 1 100); do
    if [ "$(wc -l < "$gws_dir/crash.out")" -ge 3 ]; then gws_acked=1; break; fi
    sleep 0.1
done
test "$gws_acked" -eq 1
kill -9 "$gws_pid" 2> /dev/null || true
wait "$gws_pid" 2> /dev/null || true
exec 9>&-
# restart from the journal and finish the stream
{
    cat "$gws_dir/after.jsonl"
    printf '{"op":"export","path":"%s/resumed.csv"}\n{"op":"shutdown"}\n' "$gws_dir"
} | ./target/release/wsan serve --testbed wustl --seed 1 \
    --resume-journal "$gws_dir/wal.jsonl" \
    > "$gws_dir/resume.out" 2> /dev/null
cmp "$gws_dir/resumed.csv" "$gws_dir/ref.csv"
rm -rf "$gws_dir"

echo "==> status plane smoke (wsan serve --status-socket under churn, kill -9)"
sp_dir="$(mktemp -d)"
mkfifo "$sp_dir/in.fifo"
./target/release/wsan serve --testbed wustl --seed 1 \
    --flightrec 1024 --status-socket "$sp_dir/status.sock" \
    --metrics-out "$sp_dir/metrics.json" --metrics-interval-ms 50 \
    < "$sp_dir/in.fifo" > "$sp_dir/out.jsonl" 2> /dev/null &
sp_pid=$!
exec 8> "$sp_dir/in.fifo"
for _ in $(seq 1 100); do
    if [ -S "$sp_dir/status.sock" ]; then break; fi
    sleep 0.1
done
test -S "$sp_dir/status.sock"
# churn the gateway, then query the plane while it keeps serving
printf '{"op":"add_flow","name":"a","source":0,"dest":5,"period":64,"deadline":48}\n' >&8
printf '{"op":"add_flow","name":"b","source":3,"dest":9,"period":64,"deadline":40}\n' >&8
sp_acked=0
for _ in $(seq 1 100); do
    if [ "$(wc -l < "$sp_dir/out.jsonl")" -ge 2 ]; then sp_acked=1; break; fi
    sleep 0.1
done
test "$sp_acked" -eq 1
./target/release/wsan status --socket "$sp_dir/status.sock" > "$sp_dir/status.json"
grep -q '"ok":true' "$sp_dir/status.json"
grep -q '"flows":2' "$sp_dir/status.json"
./target/release/wsan status --socket "$sp_dir/status.sock" --query metrics > "$sp_dir/metrics-q.json"
grep -q '"gateway.request_us"' "$sp_dir/metrics-q.json"
./target/release/wsan status --socket "$sp_dir/status.sock" --query flightrec > "$sp_dir/flightrec.json"
grep -q '"records"' "$sp_dir/flightrec.json"
# the request loop kept answering throughout the status queries
printf '{"op":"status"}\n' >&8
sp_live=0
for _ in $(seq 1 100); do
    if [ "$(wc -l < "$sp_dir/out.jsonl")" -ge 3 ]; then sp_live=1; break; fi
    sleep 0.1
done
test "$sp_live" -eq 1
# give the periodic flusher one interval, then kill -9: the atomic-rename
# flush must leave a complete, parseable snapshot behind
sleep 0.3
kill -9 "$sp_pid" 2> /dev/null || true
wait "$sp_pid" 2> /dev/null || true
exec 8>&-
test -s "$sp_dir/metrics.json"
grep -q '"quantiles"' "$sp_dir/metrics.json"
grep -q '"gateway.request_us"' "$sp_dir/metrics.json"
rm -rf "$sp_dir"

echo "==> traced-vs-untraced determinism smoke (wsan simulate, busy-slot and every-slot walks)"
det_dir="$(mktemp -d)"
# without --wifi the run walks only busy slots; --wifi makes it walk every slot
for wifi in "" "--wifi"; do
    ./target/release/wsan simulate --testbed wustl --flows 8 --reps 5 --seed 3 \
        $wifi > "$det_dir/plain.out"
    ./target/release/wsan simulate --testbed wustl --flows 8 --reps 5 --seed 3 \
        $wifi --log-level trace --log-format json \
        --flightrec 4096 --flightrec-dump "$det_dir/dump.jsonl" \
        --metrics-out "$det_dir/metrics.json" \
        > "$det_dir/traced.out" 2> /dev/null
    cmp "$det_dir/plain.out" "$det_dir/traced.out"
done
test -s "$det_dir/dump.jsonl"
./target/release/wsan trace export --in "$det_dir/dump.jsonl" \
    --out "$det_dir/trace.json" --chrome 2> /dev/null
grep -q '"traceEvents"' "$det_dir/trace.json"
rm -rf "$det_dir"

echo "==> campaign interrupt/resume smoke (wsan campaign)"
camp_dir="$(mktemp -d)"
out="$camp_dir/smoke.json"
manifest="$camp_dir/smoke.manifest.jsonl"
# reference aggregate from an uninterrupted run
cargo run --release -q -p wsan-cli --bin wsan -- campaign --name smoke --sets 2 \
    --out "$out" --manifest "$manifest"
cp "$out" "$camp_dir/reference.json"
# simulate a kill during the last checkpoint write: keep the header, the
# first complete point, and a torn third line
head -n 2 "$manifest" > "$manifest.cut"
tail -n +3 "$manifest" | head -n 1 | cut -c 1-10 | tr -d '\n' >> "$manifest.cut"
mv "$manifest.cut" "$manifest"
rm "$out"
cargo run --release -q -p wsan-cli --bin wsan -- campaign --name smoke --sets 2 \
    --out "$out" --manifest "$manifest" --resume
cmp "$out" "$camp_dir/reference.json"
rm -rf "$camp_dir"

echo "CI green."

#!/usr/bin/env bash
# Every CI gate on a bench record, in one place: CI calls this once per job,
# after the job's runs have written their records, and a developer runs the
# same line against a local bench-out/.
#
#   scripts/gate.sh <job> [dir]     gate the records of <job> in dir (default bench-out)
#   scripts/gate.sh ledger [dir]    re-run sim_fanout and hold it to BENCH_suite_seed47.json
#   scripts/gate.sh self-test       every job on fabricated records; needs no bench run
#
# Jobs: benchmark-smoke bench-smoke net-smoke obs-smoke net-scale-smoke
# adversary-smoke edge-smoke model-check-smoke. What each one has to have
# run first is in .github/workflows/ci.yml. Every gate of a job is
# evaluated and printed; the exit status is non-zero if any failed, a
# record file is missing or no record matched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
ledger="$root/BENCH_suite_seed47.json"
jobs="benchmark-smoke ledger bench-smoke net-smoke obs-smoke net-scale-smoke adversary-smoke edge-smoke model-check-smoke"

failed=0
# check <title> <jq arguments>: one gate, `jq -e` is the verdict.
check() {
    local title=$1
    shift
    if jq -e "$@" > /dev/null; then
        echo "ok    $title"
    else
        echo "FAIL  $title"
        failed=1
    fi
}

# gates <job> <dir>
gates() {
    local dir=$2
    case $1 in
    benchmark-smoke)
        local suite="$dir/suite_seed47.json"
        # Payload-once gossip, wire-codec payloads, no hop back into the
        # deciding vgroup: 32 bodies of ~1.1 kB + 32 votes per 1 KiB publish
        # is ~47 kB. Echoing the first hop back to its source again reads
        # ~67 kB; a JSON body again (3.6 kB for the same publish) ~203 kB; a
        # body per copy again, twice that.
        check "gossip bodies are shipped once per carrier and are not JSON" \
            '(.workloads.edge_async.metrics
                  | .wire_bytes_per_op.median <= 52000 and .failed_ratio.median == 0)
                 and .workloads.micro.metrics["apps.encode_amplification"].median <= 1.05' \
            "$suite"
        # One session per node, moved between memberships: a node that churn
        # moved to another vgroup keeps its dedup set (this run re-delivered
        # 5 882 broadcasts while the set was dropped with each membership).
        check "nodes moved between vgroups are not handed a broadcast twice" \
            '.workloads.sim_churn.notes.redelivered_on_moved_nodes == 0' \
            "$suite"
        # One write per connection per reactor turn: the ~89 frames of a
        # publish leave in ~6 writes of ~15.5 frames. A flush per enqueued
        # frame again would read ~89 writes per publish at 1.00 frames per write; a
        # deferral that forgot to write full batches would show up as drops.
        check "frames leave once per reactor turn, and a healthy socket drops none" \
            '.workloads.edge_async.metrics["net.writes_per_op"].median <= 40 and .workloads.edge_async.metrics["net.frames_per_write"].median >= 3 and .workloads.edge_async.metrics["net.frames_dropped"].median == 0' \
            "$suite"
        # One envelope per broadcast per node: the forwarded message is built
        # once and its one `Arc` is one frame-memo entry, so a publish costs
        # ~36.8 encodes (12 forwards, ~25 unicast-shaped frames). An envelope
        # rebuilt per target vgroup again reads 48.8.
        check "a forwarded broadcast is encoded once per node, not once per target vgroup" \
            '.workloads.edge_async.metrics["net.encodes_per_op"].median <= 40' \
            "$suite"
        # Conservative floor: the committed ledger reads ~0.66M events/s on
        # this fan-out on a 2-vCPU box; shared CI runners are slower and
        # noisy, so the gate only catches order-of-magnitude regressions
        # (e.g. reintroducing per-copy digesting or envelope deep-clones,
        # which cost ~10x), not few-percent drift.
        check "simulator fan-out throughput >= 150k events/s" \
            '.workloads.sim_fanout.metrics.sim_events_per_s.median >= 150000' \
            "$suite"
        # A sync member ships its batch in the first half of a round, into
        # the slot that just closed: an idle member's first-half proposal is
        # decided f + 1 rounds later (reads ~1 551 sim-ms at f = 2 and
        # 500 ms rounds); the gate allows f + 1.5 rounds, 1 750. A batch
        # sent into the slot open when it is proposed again reads ~1 801.
        check "sim_fanout delivers within f + 1.5 sync rounds" \
            '.workloads.sim_fanout.metrics.deliver_p50_ms.median <= 1750' \
            "$suite"
        # The same rule lets a busy node_sync member ship every op proposed
        # since its last send at the start of the next round (reads ~642 ms
        # at 250 ms rounds); one batch per member per slot, sent into the
        # open slot, again reads ~897.
        check "node_sync decides a busy member's ops in the next slot" \
            '.workloads.node_sync.metrics.deliver_p50_ms.median <= 750' \
            "$suite"
        # Every digest, vote and chain link is one SHA-256: on a CPU with the
        # SHA extensions vendor/sha2 runs its hardware kernel, ~0.8 us per
        # KiB; the scalar fallback reads 4.8-8.5 us. The gate fails when the
        # kernel is not taken or is slowed to scalar speed, so it also fails
        # on a runner whose CPU lacks the extensions.
        check "SHA-256 runs at hardware speed (1 KiB payload digest <= 2.5 us)" \
            '.workloads.micro.metrics["crypto.payload_digest_1k_ns"].median <= 2500' \
            "$suite"
        # Leave/re-join cycles under sustained churn: nine in ten complete.
        # `core.stalled_cycles` is the same count from the layer's side.
        check "churn cycle completion >= 0.9" \
            '.workloads.sim_churn
             | .attempted > 0 and (.attempted - .failed) / .attempted >= 0.9
               and .metrics["core.stalled_cycles"].median <= .attempted / 10' \
            "$suite"
        # 600 broadcasts/s on 12 members is 7 200 deliveries/s over loopback
        # TCP, every one checked: none may be missing, dropped by a bounded
        # queue or rejected by the codec.
        check "node_sync delivers everything over a clean wire" \
            '.workloads.node_sync.metrics
             | .failed_ratio.median == 0 and .["net.frames_dropped"].median == 0
               and .["net.decode_errors"].median == 0' \
            "$suite"
        ;;

    ledger)
        # sim_fanout runs on the simulated clock, so these two repeat to the
        # last digit: a change that moves either without updating the
        # committed ledger goes red here.
        check "sim_fanout reprints the committed ledger exactly" -n \
            --slurpfile run "$dir/ledger_sim_fanout.json" --slurpfile ledger "$ledger" \
            '$run[0] as $r | $ledger[0].workloads.sim_fanout.metrics as $m
             | $r.correct == true and $r.failed == 0
               and $r.metrics.deliver_p50_ms.value == $m.deliver_p50_ms.median
               and $r.metrics.wire_bytes_per_op.value == $m.wire_bytes_per_op.median'
        ;;

    bench-smoke)
        check "growth >= 118/120" -s \
            'map(select(.figure == "fig06" and .params.target == 120 and .params.mode == "Synchronous"))
            | length > 0 and all(.metrics.final_members >= 118)' \
            "$dir/BENCH_fig06.json"
        ;;

    net-smoke)
        gate_churn_soak "$dir/BENCH_net_churn_soak.json"
        ;;

    obs-smoke)
        # Every line must be a complete event object: the fixed fields
        # are the replay contract (README "Observability" table).
        check "trace event stream schema" -s \
            'length > 0 and all(has("kind") and has("at_us") and has("node")
              and has("a") and has("b") and has("c"))' \
            "$dir/trace.jsonl"
        if [ -s "$dir/trace.jsonl" ]; then
            jq -r .kind "$dir/trace.jsonl" | sort | uniq -c | sort -rn
        fi
        check "flight dumps parse as the dump schema" -s \
            'length > 0 and all(has("seq") and has("kind") and has("at_us")
              and has("node") and has("a") and has("b") and has("c"))' \
            "$dir"/flight/flight-*.jsonl
        # The traced run is the churn soak, with every kind armed, a file
        # sink and the flight rings dumped: it must still meet its floor.
        gate_churn_soak "$dir/BENCH_obs_soak.json"
        # The off-path invariant, measured end to end on the benchmark's
        # node_sync: with no kinds enabled every trace call site is one
        # relaxed load; fully on (every kind, JSONL to a file) may cost at
        # most BENCHMARK.json's bound on `cpu_ms_per_op`, and neither run
        # may lose a delivery.
        check "tracing fully on costs <= 25% CPU per broadcast and loses nothing" -n \
            --slurpfile off "$dir/obs_node_sync_off.json" --slurpfile on "$dir/obs_node_sync_on.json" \
            '$off[0] as $off | $on[0] as $on
             | $off.correct == true and $on.correct == true and $off.failed == 0 and $on.failed == 0
               and $off.metrics.cpu_ms_per_op.value > 0
               and $on.metrics.cpu_ms_per_op.value <= 1.25 * $off.metrics.cpu_ms_per_op.value'
        ;;

    net-scale-smoke)
        # The reactor runtime's contract at scale: membership converges
        # (>= 95% is encoded in `reached` — a straggler join on a starved
        # runner is churn noise, not a runtime failure), the whole cluster
        # runs on ONE reactor thread (the O(node-pairs) -> O(reactors)
        # headline), nothing is dropped by the bounded queues, and the
        # multiplexed wire stays decode-clean.
        check "convergence, thread count and a clean wire" -s \
            'map(select(.figure == "net_scale" and .runtime == "tcp"))
            | length > 0 and all(.metrics.reached and .metrics.threads == 1
                and .metrics.decode_errors == 0 and .metrics.frames_dropped == 0)' \
            "$dir/BENCH_net_scale.json"
        # Two claims, two floors. (1) full_coverage: a probe payload,
        # re-broadcast from rotating origins inside the remaining holes
        # (up to 16 attempts — `tests/net_cluster.rs` retries the same
        # way), must reach EVERY member: the paper's reachability claim.
        # (2) delivery_ratio >= 0.1 is only an aliveness floor on the
        # one-shot path: single broadcasts into a freshly grown cluster
        # deliver probabilistically (broadcast anti-entropy repairs holes
        # only on announce cadence, slower than this probe; composition
        # anti-entropy heals post-growth link asymmetry on heartbeat
        # cadence) — measured 0.16-0.41 at 256 nodes, and the
        # pre-reactor threaded runtime scored ~0.16 on its equivalent
        # growth scenario, so this is protocol steady-state behaviour,
        # not a runtime property. Steady-state delivery is gated on the
        # benchmark's node_sync (benchmark-smoke).
        check "broadcast coverage of the full membership" -s \
            'map(select(.figure == "net_scale" and .runtime == "tcp"))
            | length > 0 and all(.metrics.full_coverage and .metrics.delivery_ratio >= 0.1)' \
            "$dir/BENCH_net_scale.json"
        ;;

    adversary-smoke)
        local records="$dir/BENCH_adversary.json"
        # The hostile-network headline: a 50/50 split through every vgroup
        # must heal back to full membership, and every broadcast — the
        # mid-partition ones included, whose cross-side copies the plane
        # dropped into the void — must blanket the membership through the
        # anti-entropy repair path. Zero panics, ever.
        check "partition re-convergence" -s \
            'map(select(.figure == "adversary_partition_heal"))
            | length > 0 and all(.metrics.reconverged and .metrics.degradation_delivery_final >= 1.0
                and .metrics.panics == 0)' \
            "$records"
        # Sustained >= 1% random frame loss plus delay jitter on every
        # link: the repair path must carry delivery to at least 0.95 while
        # the faults stay active (measured 1.0 on a dev box; the floor
        # leaves room for runner noise, not for a broken retransmit path).
        check "lossy-WAN delivery floor >= 0.95" -s \
            'map(select(.figure == "adversary_lossy_wan"))
            | length > 0 and all(.metrics.degradation_delivery_final >= 0.95
                and .params.loss >= 0.01 and .metrics.panics == 0)' \
            "$records"
        # A malicious node speaking the real wire codec floods the
        # cluster with equivocating gossip and forged composition
        # updates. The honest membership must hold, epochs must stay
        # agreed, the attacker must never capture a vgroup, and nothing
        # may panic.
        check "byzantine containment" -s \
            'map(select(.figure == "adversary_byzantine_flood"))
            | length > 0 and all(.metrics.membership_intact and .metrics.epoch_agreement
                and .metrics.attacker_excluded and .metrics.panics == 0)' \
            "$records"
        # Every joiner aims at the same vgroup in waves: the placement
        # walk + split machinery must absorb the eclipse attempt — all
        # joins land, the group-size invariant holds, zero panics.
        check "join-storm absorption" -s \
            'map(select(.figure == "adversary_join_storm"))
            | length > 0 and all(.metrics.reached and .metrics.group_bound_held
                and .metrics.panics == 0)' \
            "$records"
        ;;

    edge-smoke)
        # Measured at the service boundary while the fault plane
        # partitions and kills backends: >= 95% of client requests must
        # still succeed (retry + breaker rotation is the mechanism), no
        # idempotency-keyed write may ever apply twice, and nothing may
        # panic anywhere in the process.
        check "client-observed goodput and exactly-once writes" -s \
            'map(select(.figure == "edge_gateway" and .runtime == "tcp"))
            | length > 0 and all(.metrics.success_ratio >= 0.95
                and .metrics.duplicate_applies == 0 and .metrics.panics == 0)' \
            "$dir/BENCH_edge.json"
        # The robustness kit must demonstrably engage: at least one
        # breaker walks a full open -> half-open -> closed cycle after
        # the faults heal; the overload burst is shed with machine-
        # readable Overloaded replies while health probes keep answering;
        # shutdown drains the in-flight request and the listener refuses
        # new connections afterwards.
        check "breaker recovery, shedding and graceful drain" -s \
            'map(select(.figure == "edge_gateway" and .runtime == "tcp"))
            | length > 0 and all(.metrics.breaker_full_cycles >= 1
                and .metrics.overload_shed >= 1 and .metrics.post_overload_health == 1
                and .metrics.drained == 1 and .metrics.drain_reply_ok == 1
                and .metrics.post_shutdown_refused == 1)' \
            "$dir/BENCH_edge.json"
        ;;

    model-check-smoke)
        check "exploration coverage and zero violations" -s \
            'map(select(.figure == "mcheck"))
            | length == 3 and all(.metrics.states_explored > 0 and .metrics.violations == 0)' \
            "$dir/BENCH_mcheck.json"
        ;;

    *)
        echo "gate.sh: unknown job '$1' (jobs: $jobs, self-test)" >&2
        return 2
        ;;
    esac
    return $failed
}

# The soak's contract: after sustained kill/rejoin churn the surviving
# membership must still be blanketed by tracked broadcasts (completion
# >= 0.9), the replacement joins must all land, and the wire must stay
# decode-clean throughout.
gate_churn_soak() {
    check "churn-soak completion floor" -s \
        'map(select(.figure == "net_churn_soak" and .runtime == "tcp"))
            | length > 0 and all(.metrics.completion_floor_met and .metrics.reached
                and .metrics.decode_errors == 0)' \
        "$1"
}

# ---------------------------------------------------------------- self-test

# fixture <job> <dir>: the smallest record set on which every gate of the
# job passes.
fixture() {
    local dir=$2
    mkdir -p "$dir"
    put() { mkdir -p "$(dirname "$dir/$1")" && echo "$2" >> "$dir/$1"; }
    local soak='{"figure":"net_churn_soak","runtime":"tcp","metrics":{"completion_floor_met":true,"reached":true,"decode_errors":0}}'
    case $1 in
    benchmark-smoke)
        put suite_seed47.json '{"workloads":{
            "edge_async":{"metrics":{"wire_bytes_per_op":{"median":47000},"failed_ratio":{"median":0},
                "net.writes_per_op":{"median":6},"net.frames_per_write":{"median":21},"net.frames_dropped":{"median":0},
                "net.encodes_per_op":{"median":36.8}}},
            "micro":{"metrics":{"apps.encode_amplification":{"median":1.01},
                "crypto.payload_digest_1k_ns":{"median":950}}},
            "node_sync":{"metrics":{"failed_ratio":{"median":0},"net.frames_dropped":{"median":0},"net.decode_errors":{"median":0},
                "deliver_p50_ms":{"median":642}}},
            "sim_churn":{"attempted":40,"failed":1,"metrics":{"core.stalled_cycles":{"median":1}},
                "notes":{"redelivered_on_moved_nodes":0}},
            "sim_fanout":{"metrics":{"sim_events_per_s":{"median":700000},"deliver_p50_ms":{"median":1551}}}}}'
        ;;
    ledger)
        jq -c '.workloads.sim_fanout.metrics
               | {correct: true, attempted: 1, failed: 0,
                  metrics: {deliver_p50_ms: {value: .deliver_p50_ms.median},
                            wire_bytes_per_op: {value: .wire_bytes_per_op.median}}}' \
            "$ledger" > "$dir/ledger_sim_fanout.json"
        ;;
    bench-smoke)
        put BENCH_fig06.json '{"figure":"fig06","params":{"target":120,"mode":"Synchronous"},"metrics":{"final_members":119}}'
        ;;
    net-smoke)
        put BENCH_net_churn_soak.json "$soak"
        ;;
    obs-smoke)
        put trace.jsonl '{"kind":"join","at_us":1,"node":0,"a":0,"b":0,"c":0}'
        put flight/flight-0.jsonl '{"seq":0,"kind":"join","at_us":1,"node":0,"a":0,"b":0,"c":0}'
        put BENCH_obs_soak.json "$soak"
        put obs_node_sync_off.json '{"correct":true,"failed":0,"metrics":{"cpu_ms_per_op":{"value":0.50}}}'
        put obs_node_sync_on.json '{"correct":true,"failed":0,"metrics":{"cpu_ms_per_op":{"value":0.55}}}'
        ;;
    net-scale-smoke)
        put BENCH_net_scale.json '{"figure":"net_scale","runtime":"tcp","metrics":{"reached":true,"threads":1,"decode_errors":0,"frames_dropped":0,"full_coverage":true,"delivery_ratio":0.3}}'
        ;;
    adversary-smoke)
        put BENCH_adversary.json '{"figure":"adversary_partition_heal","metrics":{"reconverged":true,"degradation_delivery_final":1.0,"panics":0}}'
        put BENCH_adversary.json '{"figure":"adversary_lossy_wan","params":{"loss":0.02},"metrics":{"degradation_delivery_final":0.97,"panics":0}}'
        put BENCH_adversary.json '{"figure":"adversary_byzantine_flood","metrics":{"membership_intact":true,"epoch_agreement":true,"attacker_excluded":true,"panics":0}}'
        put BENCH_adversary.json '{"figure":"adversary_join_storm","metrics":{"reached":true,"group_bound_held":true,"panics":0}}'
        ;;
    edge-smoke)
        put BENCH_edge.json '{"figure":"edge_gateway","runtime":"tcp","metrics":{"success_ratio":0.99,"duplicate_applies":0,"panics":0,"breaker_full_cycles":1,"overload_shed":3,"post_overload_health":1,"drained":1,"drain_reply_ok":1,"post_shutdown_refused":1}}'
        ;;
    model-check-smoke)
        put BENCH_mcheck.json '{"figure":"mcheck","metrics":{"states_explored":10,"violations":0}}'
        put BENCH_mcheck.json '{"figure":"mcheck","metrics":{"states_explored":12,"violations":0}}'
        put BENCH_mcheck.json '{"figure":"mcheck","metrics":{"states_explored":3,"violations":0}}'
        ;;
    esac
}

# breakers <job>: "<file> <jq edit>" lines; each edit, applied alone to the
# passing fixture, must turn the job red — one per gate at least.
breakers() {
    case $1 in
    benchmark-smoke)
        echo 'suite_seed47.json .workloads.edge_async.metrics.wire_bytes_per_op.median = 203000'
        echo 'suite_seed47.json .workloads.sim_churn.notes.redelivered_on_moved_nodes = 5882'
        echo 'suite_seed47.json .workloads.edge_async.metrics["net.frames_per_write"].median = 1'
        echo 'suite_seed47.json .workloads.edge_async.metrics["net.encodes_per_op"].median = 48.8'
        echo 'suite_seed47.json .workloads.sim_fanout.metrics.sim_events_per_s.median = 97000'
        echo 'suite_seed47.json .workloads.sim_fanout.metrics.deliver_p50_ms.median = 1801'
        echo 'suite_seed47.json .workloads.node_sync.metrics.deliver_p50_ms.median = 897'
        echo 'suite_seed47.json .workloads.micro.metrics["crypto.payload_digest_1k_ns"].median = 8458'
        echo 'suite_seed47.json .workloads.sim_churn.failed = 5'
        echo 'suite_seed47.json .workloads.sim_churn.metrics["core.stalled_cycles"].median = 5'
        echo 'suite_seed47.json .workloads.node_sync.metrics["net.frames_dropped"].median = 1'
        ;;
    ledger)
        echo 'ledger_sim_fanout.json .metrics.wire_bytes_per_op.value += 1'
        echo 'ledger_sim_fanout.json .metrics.deliver_p50_ms.value -= 0.001'
        echo 'ledger_sim_fanout.json .failed = 1'
        ;;
    bench-smoke) echo 'BENCH_fig06.json .metrics.final_members = 117' ;;
    net-smoke) echo 'BENCH_net_churn_soak.json .metrics.completion_floor_met = false' ;;
    obs-smoke)
        echo 'trace.jsonl del(.at_us)'
        echo 'flight/flight-0.jsonl del(.seq)'
        echo 'BENCH_obs_soak.json .metrics.decode_errors = 1'
        echo 'obs_node_sync_on.json .metrics.cpu_ms_per_op.value = 0.7'
        echo 'obs_node_sync_on.json .failed = 1'
        ;;
    net-scale-smoke)
        echo 'BENCH_net_scale.json .metrics.threads = 2'
        echo 'BENCH_net_scale.json .metrics.full_coverage = false'
        ;;
    adversary-smoke)
        echo 'BENCH_adversary.json (select(.figure == "adversary_partition_heal") | .metrics.reconverged) = false'
        echo 'BENCH_adversary.json (select(.figure == "adversary_lossy_wan") | .metrics.degradation_delivery_final) = 0.9'
        echo 'BENCH_adversary.json (select(.figure == "adversary_byzantine_flood") | .metrics.attacker_excluded) = false'
        echo 'BENCH_adversary.json (select(.figure == "adversary_join_storm") | .metrics.group_bound_held) = false'
        ;;
    edge-smoke)
        echo 'BENCH_edge.json .metrics.duplicate_applies = 1'
        echo 'BENCH_edge.json .metrics.breaker_full_cycles = 0'
        ;;
    model-check-smoke) echo 'BENCH_mcheck.json .metrics.violations = 1' ;;
    esac
}

# Rewrites every line of <file> through <jq edit>.
edit() {
    jq -c "$2" "$1" > "$1.edited" && mv "$1.edited" "$1"
}

# expect <red|green> <what> <job> <dir>
expect() {
    local status=green
    (failed=0 && gates "$3" "$4") > "$4.log" 2>&1 || status=red
    if [ "$status" = "$1" ]; then
        echo "ok    $3: $2 is $1"
    else
        echo "FAIL  $3: $2 is $status, expected $1"
        sed 's/^/        /' "$4.log"
        failed=1
    fi
}

self_test() {
    local tmp job n file change
    tmp="$(mktemp -d)"
    trap "rm -rf '$tmp'" EXIT
    for job in $jobs; do
        mkdir -p "$tmp/$job/missing"
        expect red "a missing record file" "$job" "$tmp/$job/missing"

        fixture "$job" "$tmp/$job/pass"
        expect green "the passing fixture" "$job" "$tmp/$job/pass"

        cp -r "$tmp/$job/pass" "$tmp/$job/nomatch"
        find "$tmp/$job/nomatch" -type f | while read -r file; do
            edit "$file" 'if has("figure") then .figure = "none" else {} end'
        done
        expect red "a file with no matching record" "$job" "$tmp/$job/nomatch"

        n=0
        while read -r file change; do
            n=$((n + 1))
            cp -r "$tmp/$job/pass" "$tmp/$job/fail$n"
            edit "$tmp/$job/fail$n/$file" "$change"
            expect red "'$change'" "$job" "$tmp/$job/fail$n"
        done < <(breakers "$job")
    done
    return $failed
}

# ------------------------------------------------------------------- main

job=${1:?usage: scripts/gate.sh <job>|ledger|self-test [dir]}
dir=${2:-bench-out}
case $job in
self-test)
    self_test
    ;;
ledger)
    mkdir -p "$dir"
    "$root/benchmark/run.sh" --workload sim_fanout --seed 47 --seconds 20 --trace 0 \
        | tail -n 1 > "$dir/ledger_sim_fanout.json"
    gates ledger "$dir"
    ;;
*)
    gates "$job" "$dir"
    ;;
esac

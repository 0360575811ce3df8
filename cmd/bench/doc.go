// Command bench is the repository's one benchmark: it drives the
// simulator, the model server and the checkpoint and trace codecs through
// their public APIs, checks every output, and prints each metric by name
// with its unit. It is a module of its own (it imports the root module
// through a replace directive), so build and run it from the repository
// root with
//
//	bash cmd/bench/run.sh -workload sweep-8x8 -seed 1 -seconds 20
//
// which keeps the build cache under .bench_build. Flags: -workload
// (default all), -seed (inputs are a function of it), -seconds
// (measurement time per workload), -trace 0|1, -trace-dir and
// -write-golden. A run prints a "# provenance" JSON header
// (workload parameters, seed, GOMAXPROCS, NumCPU, Go version,
// vcs.revision), one line per metric, a fail_frac line, and, last, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. It exits 1
// when any output is wrong and 2 when it cannot run at all.
//
// # Workloads
//
// All times are host time, the event kernel runs every simulation, and
// GOMAXPROCS is the CPU count. Load comes from this one process with at
// most two engine workers or HTTP connections.
//
//	name           what runs                                   why
//	sweep-8x8      cmd/sweep's grid on the paper's 64-node      The paper's validation experiment and the
//	               machine: 8x8 torus, the 9-mapping suite ×    most common run. Comm-heavy with skip ratio
//	               contexts {1,2,4} = 27 cells, warm-up 4000 /  ≈ 0.08, so netsim, cohsim and procsim
//	               window 12000 P-cycles, grain 20, on 2        stepping set host time; kernel-skipping
//	               engine workers. The seed picks the suite's   changes should not move it.
//	               random and row-shuffle members.
//	idle-8x8       8x8, p=2, random:<seed>, grain 2000,         The large-grain regime: the kernel skips
//	               warm-up 2000 / window 1,000,000 P-cycles.    ~96% of cycles with the fabric mostly
//	                                                            drained. It probes sim (NextEvent/Advance)
//	                                                            and is the control for netsim changes.
//	scale-100x100  One gain-scale cell (experiments settings):  The large-N regime behind the 10^5 and 10^6
//	               100x100 torus, p=1, grain 4000, Stagger,     node goals: sparse maps, the active-router
//	               identity then random:<seed>, warm-up 4000 /  worklist and per-node heap, at a size that
//	               window 8000.                                 fits the time budget.
//	serve-solve    serve.New at its defaults (2 ms batch        The model-serving path; no simulation runs.
//	               window, default cache), 2 keep-alive         Hot and cold requests use the cache
//	               connections to /v1/solve, 90% of requests    differently. The hot/cold mix is assumed,
//	               from 32 hot configs and 10% unique. Phase A  not measured: see below.
//	               is an open loop at 400 req/s for 2/3 of the
//	               time, each request timed from when it was
//	               due; phase B a closed loop of 2 clients.
//	codec          Round trips of a .lckp of the warmed         Crash recovery and trace replay. Encode and
//	               scale-100x100 random machine                 decode are timed apart, so a gain for one
//	               (BuildCheckpoint, checkpoint.Write/Read,     that costs the other shows; the simulation
//	               RestoreFrom) and a .lref captured from one   workloads do no codec work.
//	               sweep-8x8 cell (replay.Write/Read).
//
// The idle window is a third of the 3,000,000 P-cycles first proposed,
// so a run holds about twenty operations instead of seven.
//
// The serve-solve traffic is an assumption. The 400 req/s rate is
// measured: about half the ~845 req/s that phase B's two closed-loop
// clients sustain on the 2-CPU reference host. The 90% hot / 10% cold
// mix over 32 hot configurations is not: the repository holds no record
// of real request traffic to take it from. The mix sets the cache hit
// ratio and so both serving metrics; revisit it once request traffic
// has been recorded.
//
// # End-to-end metrics
//
// Every workload reports the same four, and each is compared workload by
// workload. An operation is one cell's machine.Execute for the
// simulation workloads (a simrun's wait), one /v1/solve request of
// phase A for serve-solve, and one round trip of both artefacts for
// codec. The work is simulated P-cycles summed over cells, closed-loop
// requests, or bytes through the four codec calls. A simulation run
// makes at least two passes over its cells, and more while another
// fits in the measurement time.
//
//	setup_s       s    time of the workload's set-up (grid, mappings and
//	                   machine.New for a pass; serve.New, the client and
//	                   the open-loop requests; the codec artefacts), so
//	                   work moved into set-up shows: the mean of two
//	                   medians, one over set-ups repeated before the
//	                   measurement and one after it, each window at least
//	                   three set-ups and a sixteenth of the measurement
//	                   time, each set-up after a full collection
//	op_p50_ms     ms   median host time of an operation (serve: from when
//	                   the request was due to its response)
//	work_per_s    1/s  work per second: simulated P-cycles per wall second
//	                   of the passes (on sweep-8x8 this includes how well
//	                   the two engine workers are kept busy), phase B's
//	                   requests per second, and bytes written and read per
//	                   second of checkpoint and replay Write/Read time
//	live_heap_mb  MB   HeapAlloc after runtime.GC() with the workload's
//	                   state still reachable
//
// On the serial simulation workloads (idle-8x8's one cell,
// scale-100x100's pair) op_p50_ms and work_per_s both follow the cell
// time: the median ignores a slow cell, the rate counts it.
//
// The time bounds in BENCHMARK.json are wide because the reference host
// is shared with other machines' work: from one run to the next its
// speed on these memory-heavy workloads moves by 10–40%, correlated over
// tens of seconds, so averaging longer inside a run barely narrows it.
// Serving latency, which is mostly the batch window's sleep, is steady to
// about 1%; serve.solve_p99_ms, its tail, is a per-layer metric.
//
// Failed operations are counted in the result's "failed" field, never
// hidden in a metric: a cell error, a golden mismatch, a pass that
// differs from the first, a fabric invariant violation, a non-200
// response, a served solution that differs from a direct
// core.Config.Solve, or a round trip that does not re-encode
// byte-identical. The model's accuracy (model.gain_err_pct) is
// deterministic per seed and pinned by the goldens; a speed change must
// leave it unchanged.
//
// # Per-layer metrics and what they should move
//
// Printed instead of the end-to-end metrics by a traced run; a metric a
// workload does not exercise reads 0.
//
//	sim.skip_ratio, sim.executed_cycles,        ops on idle-8x8; flat on sweep-8x8
//	sim.host_ns_per_executed_cycle              where almost nothing is skipped
//	netsim.msgs, netsim.latency_ncycles,        ops on sweep-8x8; barely on idle-8x8;
//	netsim.channel_util,                        live_heap_mb on scale-100x100
//	netsim.active_routers_mean,
//	netsim.host_ns_per_msg,
//	netsim.host_ns_per_router_step
//	cohsim.txns, cohsim.msgs_per_txn,           ops on sweep-8x8 and scale-100x100
//	cohsim.txn_latency_pcycles,                 (sparse map lookups)
//	cohsim.host_ns_per_txn
//	procsim.busy_frac, procsim.miss_ratio,      ops on sweep-8x8
//	procsim.host_ns_per_access
//	machine.new_ms                              setup_s
//	machine.live_bytes_per_node,                live_heap_mb on scale-100x100 and,
//	machine.alloc_mb_per_mpcycle                through GC, ops everywhere
//	engine.parallelism                          work_per_s on sweep-8x8 only
//	model.gain_err_pct                          nothing: it must stay exactly equal
//	core.solve_cold_ns, core.cache_hit_ns,      ops on serve-solve, nothing
//	core.cache_hit_ratio, serve.batches,        elsewhere
//	serve.coalesced_ratio,
//	serve.healthz_p50_ms (the HTTP floor),
//	serve.solve_p99_ms,
//	serve.generator_late_p99_ms
//	checkpoint.write_mb_per_s,                  ops on codec, nothing elsewhere
//	checkpoint.read_mb_per_s, checkpoint.bytes,
//	machine.build_checkpoint_ms,
//	machine.restore_ms, replay.write_mb_per_s,
//	replay.read_mb_per_s, replay.bytes
//	host_share.<bucket>                         where the host CPU went, per workload:
//	                                            the CPU profile's self time by the
//	                                            package of each sample's leaf frame
//	                                            (netsim, topology, cohsim, cachesim,
//	                                            procsim, sim, machine, workload, core,
//	                                            serve, checkpoint, replay, runtime,
//	                                            net, encoding_json, other; sums to 1)
//	trace.overhead_frac                         the traced half's op_p50_ms against
//	                                            the untraced half's, minus 1
//
// "ops" above stands for op_p50_ms and work_per_s. The host_ns
// costs divide a bucket's profiled CPU time by the layer's work over the
// whole run: fabric messages (netsim and topology), router steps (active
// routers sampled at each run-loop chunk times the chunk's executed
// N-cycles), transactions (cohsim and cachesim), and processor accesses
// (procsim and workload). Counts are per pass and repeat exactly for a
// given seed.
//
// # Traced runs
//
//	bash cmd/bench/run.sh -workload sweep-8x8 -trace 1 -trace-dir /tmp/bench-trace
//
// measures the workload untraced for half the time, then again for half
// the time with the machine's Config.Telemetry, a Config.Observer probe
// at chunk boundaries, a runtime/pprof CPU profile (decoded here with the
// standard library), and spans recorded by this command around each
// public call: pass → cell → machine.New → machine.Execute; phase →
// http.solve; codec.roundtrip → machine.BuildCheckpoint,
// checkpoint.Write, checkpoint.Read, machine.RestoreFrom, replay.Write,
// replay.Read. Both halves' simulated outputs must match exactly. With
// -trace-dir it writes <dir>/<workload>/spans.json (name, start, end,
// parent and request id of every span) and layers.json (the per-layer
// metrics, and each span name's count, total and self time: duration
// less the union of its children).
//
// # Goldens and baseline
//
// testdata/golden holds every simulated cell's machine.Metrics for seeds
// 1 and 2 at the full sizes (seed 1's sweep rows are cmd/sweep -contexts
// 1,2,4 byte for byte); seed 2 is held out for claims. Other seeds and
// the smoke test's short sizes check invariants only (the fabric's
// Check, transactions completed, every pass equal to the first), and
// the provenance header says "golden":"skipped".
// testdata/baseline.json holds two sets of ten runs per workload on the
// 2-CPU reference host, each metric's median, quartiles and spread, made
// by
//
//	python3 cmd/bench/spread.py --seeds 1-10 --label set1 --out cmd/bench/testdata/baseline.json
//	python3 cmd/bench/spread.py --seeds 11-20 --label set2 --against set1 --out cmd/bench/testdata/baseline.json
//
// The time metrics' bounds, setup_s's included, are 0.25, the widest
// BENCHMARK.json admits. Their spreads there are 0.01–0.06 on
// serve-solve and 0.04–0.22 on the simulation and codec workloads, and
// set 2's medians are within 0.2 of set 1's; the host slowed by about
// that much between the sets. live_heap_mb's bound is 0.1, over six
// times its spread (at most 0.015).
//
// # Follow-up
//
// Deliberately left for the next change: deleting cmd/scalebench,
// cmd/shardbench, cmd/telemetrybench, the BENCH_*.json files and
// cmd/perfcheck's gates in favour of this command; a CI job that runs
// it; and spans inside the program (the kernel's wall/* timers).
package main

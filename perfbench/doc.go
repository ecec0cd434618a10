// Command perfbench is the repository's benchmark: it measures what a
// user of the lbchat co-simulation pays in host CPU time, allocation and
// protocol quality, end to end and layer by layer, on four workloads.
//
// It is a module of its own that drives the program through its public
// API only (experiments.BuildEnv, experiments.Run, core.NewEngine and
// Engine.RunContext, Env.EvalFleet, shard.NewFleet, spatial.Index), all
// load coming from one process at Workers=1, with no goroutines beyond
// the program's own trace prefetcher.
//
// # Running it
//
// From the repository root:
//
//	bash perfbench/run.sh --workload lbchat-lossy --seed 7 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload lbchat-lossy --seed 7 --seconds 20 --trace 1
//
// run.sh builds the benchmark into .bench_build (compiler cache included)
// and runs it. --trace 0 prints the end-to-end metrics, measured on
// untraced iterations only; --trace 1 prints the per-layer metrics,
// measured on traced iterations that alternate with untraced ones, and
// writes the traced iterations' spans to
// .bench_build/perfbench-spans-<workload>-<seed>.jsonl (--spans to
// change). Standard output is a human-readable summary (environment,
// medians with quartiles and sample counts, failures) and, as its last
// line, one JSON object:
//
//	{"correct": true, "attempted": 6, "failed": 0, "metrics": {"run_cpu_s": {"value": 3.21, "unit": "s"}, ...}}
//
// The benchmark's own tests (statistics helpers, metric names against
// BENCHMARK.json, a smoke run of every workload) run with
// `cd perfbench && go test ./...`; `-short` skips the one that replays
// BenchmarkLbChatWorkers1's 1500 s co-simulation.
//
// # Method
//
// Each workload is a closed-loop batch job: set-up builds its inputs (at
// least five times, and until the set-ups total two seconds; setup_s is
// their median), then iterations run back to back, the next starting when
// the previous ends, until --seconds have passed. Every timing is a median
// over iterations; the summary states the sample count and quartiles.
//
// The timings are the process's CPU time — user and system, over every
// thread: the worker, the garbage collector, the trace prefetcher — not
// its wall time. The benchmark runs on a shared virtual machine whose
// hypervisor takes its processors away for stretches of tens of seconds;
// the kernel leaves that stolen time out of a process's CPU time, but it
// lengthens wall time by a share that changes from run to run. In ten
// runs of the same code, wall time spread (interquartile range over
// median) by up to 0.35 on drive-eval and sco-stream, more than any
// useful bound. The workloads are single-worker and compute-bound, so a
// change that saves work saves CPU time. Wall time is still reported, as
// the per-layer bench.run_wall_s.
//
// CPU time is not immune to the host either: other tenants share the
// physical cores' caches and memory bandwidth, which slows the program's
// memory-bound work (allocation, garbage collection, the trace) by up to
// about a fifth during busy stretches that last minutes.
//
// Each iteration is preceded by a garbage collection outside the timed
// part. GOMAXPROCS is set to 2, because Go before 1.25 sizes it from the
// host's CPUs rather than the container's quota; the summary records
// GOMAXPROCS, the CPU count and the Go version with every result.
//
// Outputs are checked on every iteration, and a failed check counts as a
// failed operation (the result line's failed, against attempted) without
// stopping the benchmark:
//   - every iteration must reproduce the first bit for bit: loss curve,
//     receive counts, every deterministic telemetry counter and
//     histogram, final model parameters, driving success rates, scanned
//     pairs. A traced iteration, which runs through the decorators and
//     for lbchat-lossy through core.NewEngine instead of experiments.Run,
//     must match an untraced one, so tracing provably leaves the program's
//     results alone;
//   - outputs must be sane: a finite positive loss, receive and chat counts
//     within their attempts, finite parameters, success rates within
//     0–100, a non-empty pair scan;
//   - fleetscan checks the first iteration's pairs on three ticks against
//     an O(n²) spatial.WithinBall oracle; only that iteration copies the
//     ticks' positions and pairs for it.
//
// # Seeds
//
// --seed defaults to 7, BenchScale's seed. Seed 1009 is held out: no
// tuning used it, so a later performance claim can be re-checked on it.
// The co-simulations' world, datasets and mobility trace, and the
// drive-eval fleet and rollouts, are generated at the fixed seed 7: what
// those inputs vary — how many chats the trace's encounters allow, how
// long each rollout lasts — changes the amount of work between seeds by
// more than the bounds allow: over five seeds, allocation on
// lbchat-lossy had an interquartile range of 32% of its median, and run
// time on drive-eval 21%. The seed drives the
// co-simulations' engine streams (training batches, radio losses, coreset
// sampling) and the fleetscan fleet.
//
// # Workloads
//
//   - lbchat-lossy: one LbChat co-simulation, 6 vehicles, 300 s virtual,
//     wireless loss, resident trace; the benchmark-scale headline run
//     (BenchmarkLbChatWorkers1) cut short. It is the only workload where φ
//     fitting and top-k compression run. Untraced iterations go through
//     experiments.Run like the CLIs.
//   - sco-stream: SCO (coreset-only sharing), lossless, 12 vehicles, 150 s
//     virtual, Shards=2, the trace paged through a bounded trace.Window
//     from an LBTC file. φ fitting, compression and aggregation are
//     bypassed and training dominates, so a chat-path change should read
//     "no change" here and a training change shows at its largest. It is
//     the streamed counterpart of lbchat-lossy and exercises the shard
//     scanner, the grouper and the calendar.
//   - drive-eval: closed-loop driving rollouts (Env.EvalFleet, all five
//     conditions, 12 trials each) of a fleet an LbChat run (2 vehicles,
//     400 s) trains during set-up: world stepping, BEV rasterization and
//     Policy.Predict, with no training or chat.
//   - fleetscan: experiments.ExpFleetScan's unsharded loop on a
//     10240-vehicle random-waypoint fleet for 60 ticks: the only workload
//     where the contact scan does the work (under 1% of a co-simulation).
//     The fleet is regenerated before each iteration, outside the timing,
//     as the experiment does.
//
// # End-to-end metrics (--trace 0, every workload)
//
//   - setup_s (s, lower is better): median CPU time of one set-up —
//     environment build (map, datasets, trace, probe, suite), plus the
//     LBTC spill on sco-stream, the fleet training on drive-eval, fleet
//     generation on fleetscan.
//   - run_cpu_s (s, lower is better): median CPU time of one iteration.
//   - alloc_mb (MB, lower is better): median bytes allocated by one
//     iteration (runtime.MemStats.TotalAlloc), in 10⁶ bytes.
//
// The failure count is the result line's failed field, against
// attempted.
//
// # Per-layer metrics (--trace 1, every workload)
//
// Layer names are module names. They come from traced iterations only,
// timed from outside by decorators around calls into each layer's public
// functions — a core.Protocol wrapping OnTick, a trace.ChunkSource
// wrapping ReadChunk, an eval.Driver wrapping Predict, and direct timing
// of shard.Fleet.Tick and spatial.Index.Rebuild and Pairs — and from the
// counters the program's telemetry summary (ProtocolRun.Comm) already
// keeps. A metric of a layer the workload does not exercise reads 0. Each
// is the median over traced iterations; counts repeat exactly.
//
// Quality, deterministic at a fixed seed, so that a numerics-changing
// speed-up cannot quietly trade away the paper's results:
//   - final_mloss (mloss, lower): final probe loss ×1000 of the
//     co-simulation (on drive-eval, of the run that trained its fleet).
//   - recv_rate (%, higher): model receive rate; 0 where no model is sent.
//   - success_pct (%, higher): mean driving success rate, drive-eval.
//
// Each layer lists the end-to-end metric and workload it should move:
//   - model — model.train_steps (count), model.train_busy_s (s, the sum
//     of the train.wall_ns histogram), model.train_step_us (µs). Moves
//     run_cpu_s most on sco-stream, then lbchat-lossy; not fleetscan.
//   - core — core.chat_busy_s (s, time inside Protocol.OnTick),
//     core.chat_sessions (count), core.chat_completed_ratio,
//     core.chat_us (µs of OnTick per chat session), core.ticks,
//     core.tick_p50_us and core.tick_tail_us (µs; the tail is the highest
//     percentile with at least ten ticks beyond it, p99 from 1000 ticks),
//     core.other_s (s, run time minus training and chat: trace advance,
//     deferred merges and absorbs, contact scan, due discovery, probe
//     loss). Moves run_cpu_s on lbchat-lossy; predicted no change on
//     sco-stream.
//   - coreset — coreset.leaves_rebuilt, coreset.leaves_cached,
//     coreset.cache_hit_ratio, coreset.absorbed_frames. Moves run_cpu_s on
//     sco-stream; moves final_mloss if sampling changes.
//   - radio — radio.bytes_on_air (B, the sum of the transfer.bytes
//     histogram), radio.truncated (count). Moves recv_rate and
//     final_mloss on lbchat-lossy.
//   - sched — sched.due_dequeued, sched.buckets_touched (counts).
//     Predicted no run_cpu_s change at these fleet sizes.
//   - trace — trace.fetch_busy_s (s inside ReadChunk, the prefetch
//     goroutine's fetches included; reported beside the blocking path, not
//     inside it), trace.fetch_wait_s (s the engine blocked on a fetch,
//     from trace.chunk_fetch_wait_ns), trace.chunk_loads. Moves run_cpu_s and
//     alloc_mb on sco-stream only.
//   - spatial and shard — spatial.scan_busy_s (s in Rebuild and Pairs),
//     spatial.scan_us_per_tick, spatial.pairs_per_tick,
//     shard.fleet_tick_busy_s, shard.pairs (pairs the sharded scanner
//     reported, sco-stream). Moves run_cpu_s on fleetscan.
//   - eval — eval.trials, eval.control_steps (Predict calls),
//     eval.predict_busy_s, eval.predict_us, eval.sim_busy_s (rollout time
//     minus Predict: world step, BEV, controller), eval.step_us (µs per
//     control step). Moves run_cpu_s on drive-eval. A forward-kernel change in
//     nn or tensor should move both eval.predict_us and
//     model.train_step_us.
//   - bench.run_wall_s (s, lower): median wall time of an untraced
//     iteration of the traced run, stolen processor time included, so it
//     varies more between runs than run_cpu_s.
//   - bench.trace_overhead_ratio: traced over untraced median iteration
//     CPU time, per workload. On lbchat-lossy the two run different paths —
//     untraced iterations go through experiments.Run, traced ones build
//     the engine with core.NewEngine — so there the ratio also holds
//     whatever experiments.Run adds around the engine run (its run
//     events and the ProtocolRun it assembles), not the decorators' cost
//     alone.
//
// Spans are written as JSON lines (iter, id, parent, name, start_ns,
// end_ns). A layer's self time is its span's duration minus its
// children's; trace.fetch spans have no parent, since the prefetcher runs
// them beside the engine.
//
// # Baseline
//
// Measured on a 2-CPU virtual machine (Go 1.24, GOMAXPROCS 2), 20 s runs,
// in two sets of ten, one run per seed: seeds 1–10, then 11–20 from a
// fresh checkout. Each cell is the median of a set's ten values, and in
// brackets their interquartile range as a share of that median.
//
//	workload       set  setup_s       run_cpu_s     alloc_mb
//	lbchat-lossy   1    1.012 (0.08)  3.162 (0.07)  336.2 (0.04)
//	               2    1.081 (0.14)  3.265 (0.04)  334.4 (0.03)
//	sco-stream     1    0.880 (0.10)  2.774 (0.08)  230.3 (0.02)
//	               2    0.964 (0.18)  2.948 (0.08)  230.2 (0.02)
//	drive-eval     1    2.176 (0.07)  2.057 (0.05)  243.7 (0.00)
//	               2    2.173 (0.09)  2.089 (0.07)  243.7 (0.00)
//	fleetscan      1    0.210 (0.05)  0.926 (0.06)  48.21 (0.00)
//	               2    0.200 (0.05)  0.840 (0.04)  48.21 (0.00)
//
// Traced at seed 7: on lbchat-lossy model.train_busy_s is 82% of the
// traced iteration's wall time, core.chat_busy_s 16% and core.other_s 2%;
// on sco-stream core.chat_busy_s is 3%; on drive-eval
// eval.predict_busy_s is 13% and eval.sim_busy_s 87%; on fleetscan
// spatial.scan_busy_s is 90% and shard.fleet_tick_busy_s 2%.
// bench.trace_overhead_ratio is within 0.99–1.01 on every workload.
//
// During the second set the host was busier: on sco-stream seeds 15 and
// 16, wall time per iteration was 3.6 s against 2.95 s of CPU time.
package main

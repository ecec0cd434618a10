package experiments

import (
	"context"
	"fmt"

	"lbchat/internal/core"
	"lbchat/internal/faults"
	"lbchat/internal/metrics"
	"lbchat/internal/telemetry"
)

// Experiment names accepted by Spec.Experiment. They match the -exp tokens
// of cmd/lbchat-bench.
const (
	// ExpProtocol trains one fleet under Spec.Protocol (the default).
	ExpProtocol = "protocol"
	// ExpFig2 trains the five-protocol lineup (Fig. 2 loss curves).
	ExpFig2 = "fig2"
	// ExpFig3 trains LbChat vs SCO and computes the convergence ratio.
	ExpFig3 = "fig3"
	// ExpTable2 and ExpTable3 are the driving-success tables (lossless /
	// lossy); ExpTable4–ExpTable7 the coreset-size sweep and ablations.
	ExpTable2 = "tab2"
	ExpTable3 = "tab3"
	ExpTable4 = "tab4"
	ExpTable5 = "tab5"
	ExpTable6 = "tab6"
	ExpTable7 = "tab7"
	// Extension studies beyond the paper's tables.
	ExpRouteShare = "routeshare"
	ExpMethods    = "methods"
	ExpAdaptive   = "adaptive"
	ExpHetero     = "hetero"
	ExpQuant      = "quant"
	// ExpFaultSweep is the robustness grid: burst-loss × churn settings,
	// LbChat with vs without session resumption (EXPERIMENTS.md
	// "Robustness").
	ExpFaultSweep = "faultsweep"
	// ExpFleetScan is the scale workload: a synthetic random-waypoint fleet
	// (internal/shard.Fleet) ticked and pair-scanned for Spec.Duration
	// virtual seconds, streaming its trace instead of holding it resident
	// when sharded. It skips the full environment build, so fleets of 10k+
	// vehicles measure the scan/trace machinery, not dataset collection.
	ExpFleetScan = "fleetscan"
)

// Spec selects and parameterizes one experiment for Run. The zero value
// trains LbChat at bench scale in the lossless regime.
type Spec struct {
	// Experiment picks the harness (Exp* constants); "" means ExpProtocol.
	Experiment string
	// Protocol is the protocol to train for ExpProtocol ("" = LbChat).
	// Harness experiments (fig2, tables) ignore it.
	Protocol ProtocolName
	// Lossless selects the wireless regime for regime-parameterized
	// experiments (protocol, fig2, fig3, methods, adaptive, hetero, quant).
	// The tables fix their own regimes.
	Lossless bool
	// ScaleName resolves via ScaleByName ("" = bench). Ignored when Scale
	// or Env is set.
	ScaleName string
	// Scale overrides ScaleName with an explicit scale.
	Scale *Scale
	// Seed, Vehicles, Duration, Workers and Shards, when non-zero, override
	// the resolved scale's fields (Workers=1 forces the serial paths;
	// Shards=1 forces the single-index scan).
	Seed     uint64
	Vehicles int
	Duration float64
	Workers  int
	Shards   int
	// FullCoresetRebuild selects the full Algorithm-1 coreset rebuild arm
	// instead of the default incremental partition tree
	// (Scale.FullCoresetRebuild). Ignored when Env is set.
	FullCoresetRebuild bool
	// StreamTrace drives engine runs from a bounded sliding-window trace
	// source (Scale.StreamTrace); TracePath loads the mobility trace from
	// an LBTC file (Scale.TracePath). Both are ignored when Env is set.
	StreamTrace bool
	TracePath   string
	// Telemetry, when non-nil, receives every run's full event stream in
	// deterministic order (see Env.Telemetry). The caller owns Close.
	Telemetry telemetry.Sink
	// Faults configures fault injection (internal/faults) for every engine
	// run the experiment performs; the zero value leaves faults off. It is
	// applied to the environment's engine config, so it also reaches the
	// table/figure harnesses. The FaultSweep experiment manages its own
	// grid and overrides this field per run.
	Faults faults.Config
	// Env reuses a prebuilt environment instead of building one from the
	// scale fields (which are then ignored). Its Telemetry field is
	// overwritten when Spec.Telemetry is set.
	Env *Env
	// Config, when non-nil, adjusts the engine config of every run the
	// experiment performs (e.g. coreset-size or compression overrides).
	Config func(*core.Config)
}

// Result is the typed outcome of Run.
type Result struct {
	// Experiment echoes the resolved Spec.Experiment.
	Experiment string
	// Runs holds every protocol run the experiment performed, in harness
	// order. Each carries its loss curve, receive stats, final fleet, and
	// telemetry summary.
	Runs []*ProtocolRun
	// Table is the experiment's rendered table, when it produces one
	// (tables II–VII and the extension studies). Nil when the experiment
	// was canceled before evaluation.
	Table *metrics.Table
	// Ratio is the Fig. 3 convergence-time ratio (0 otherwise).
	Ratio float64
	// Canceled reports that the context was canceled: Runs hold partial
	// state and downstream evaluation was skipped.
	Canceled bool
	// Env is the environment the experiment ran against, for reuse in
	// follow-up Run calls (build it once, run many specs).
	Env *Env
}

// ScaleByName resolves the named experiment scale: "test", "bench" (also
// ""), or "full".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "test":
		return TestScale(), nil
	case "bench", "":
		return BenchScale(), nil
	case "full":
		return FullScale(), nil
	default:
		return Scale{}, fmt.Errorf("experiments: unknown scale %q", name)
	}
}

// Run is the unified experiment entrypoint: it resolves the Spec into an
// environment, executes the selected experiment under ctx, and returns a
// typed Result. Cancellation is honored once per engine tick; a canceled
// experiment returns the partial Result with Canceled set and a nil error.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	if spec.Experiment == "" {
		spec.Experiment = ExpProtocol
	}
	// The fleetscan scale workload builds no environment (a 10k-vehicle
	// dataset collection would dwarf the measurement), so it short-circuits
	// before scale resolution.
	if spec.Experiment == ExpFleetScan {
		return runFleetScan(ctx, spec)
	}
	env := spec.Env
	if env == nil {
		var scale Scale
		if spec.Scale != nil {
			scale = *spec.Scale
		} else {
			var err error
			if scale, err = ScaleByName(spec.ScaleName); err != nil {
				return nil, err
			}
		}
		if spec.Seed != 0 {
			scale.Seed = spec.Seed
		}
		if spec.Vehicles > 0 {
			scale.Vehicles = spec.Vehicles
		}
		if spec.Duration > 0 {
			scale.TrainDuration = spec.Duration
		}
		if spec.Workers != 0 {
			scale.Workers = spec.Workers
		}
		if spec.Shards != 0 {
			scale.Shards = spec.Shards
		}
		if spec.FullCoresetRebuild {
			scale.FullCoresetRebuild = true
		}
		if spec.StreamTrace {
			scale.StreamTrace = true
		}
		if spec.TracePath != "" {
			scale.TracePath = spec.TracePath
		}
		var err error
		if env, err = BuildEnv(scale); err != nil {
			return nil, err
		}
		// Run owns the env it built: release trace resources (window file
		// handles, temporary stream spills) once the experiment completes.
		// Caller-supplied envs stay open — the caller closes them.
		defer env.Close()
	}
	if spec.Telemetry != nil {
		env.Telemetry = spec.Telemetry
	}
	if spec.Faults.Enabled() {
		env.Cfg.Faults = spec.Faults
	}

	res := &Result{Experiment: spec.Experiment, Env: env}
	var err error
	switch spec.Experiment {
	case ExpProtocol:
		name := spec.Protocol
		if name == "" {
			name = ProtoLbChat
		}
		var run *ProtocolRun
		if run, err = env.runProtocol(ctx, name, spec.Lossless, spec.Config); err == nil {
			env.flushRuns(run)
			res.Runs = []*ProtocolRun{run}
		}
	case ExpFig2:
		res.Runs, err = env.fig2(ctx, spec.Lossless)
	case ExpFig3:
		var lb, sco *ProtocolRun
		if lb, sco, res.Ratio, err = env.fig3(ctx, spec.Lossless); err == nil {
			res.Runs = []*ProtocolRun{lb, sco}
		}
	case ExpTable2:
		res.Table, res.Runs, err = env.benchmarkTable(ctx, true)
	case ExpTable3:
		res.Table, res.Runs, err = env.benchmarkTable(ctx, false)
	case ExpTable4:
		res.Table, res.Runs, err = env.table4(ctx)
	case ExpTable5:
		res.Table, res.Runs, err = env.ablationTable(ctx,
			"Table V: driving success rate with equal comp. ratio (%)", ProtoEqualComp)
	case ExpTable6:
		res.Table, res.Runs, err = env.ablationTable(ctx,
			"Table VI: driving success rate with avg. aggregation (%)", ProtoAvgAgg)
	case ExpTable7:
		res.Table, res.Runs, err = env.ablationTable(ctx,
			"Table VII: driving success rate with sharing coreset only (%)", ProtoSCO)
	case ExpRouteShare:
		res.Table, res.Runs, err = env.routeSharingStudy(ctx)
	case ExpMethods:
		res.Table, res.Runs, err = env.coresetMethodStudy(ctx, spec.Lossless)
	case ExpAdaptive:
		res.Table, res.Runs, err = env.adaptiveCoresetStudy(ctx, spec.Lossless)
	case ExpHetero:
		res.Table, res.Runs, err = env.heterogeneityStudy(ctx, spec.Lossless)
	case ExpQuant:
		res.Table, res.Runs, err = env.compressionSchemeStudy(ctx, spec.Lossless)
	case ExpFaultSweep:
		res.Table, res.Runs, err = env.faultSweep(ctx)
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q", spec.Experiment)
	}
	if err != nil {
		return nil, err
	}
	res.Canceled = anyCanceled(res.Runs)
	return res, nil
}

// CommTable renders the communication-efficiency report for a set of runs:
// over-the-air byte demand per protocol against the loss it bought — the
// Fig. 6-style tradeoff, from each run's telemetry summary.
func CommTable(runs []*ProtocolRun) *metrics.Table {
	cols := make([]string, 0, len(runs))
	live := make([]*ProtocolRun, 0, len(runs))
	for _, r := range runs {
		if r != nil && r.Comm != nil {
			cols = append(cols, string(r.Name))
			live = append(live, r)
		}
	}
	tbl := metrics.NewTable("Communication efficiency: bytes on air vs final loss", cols...)
	row := func(label string, f func(r *ProtocolRun) float64) {
		vals := make([]float64, len(live))
		for i, r := range live {
			vals[i] = f(r)
		}
		tbl.AddRow(label, vals...)
	}
	const mb = 1.0 / (1 << 20)
	row("chats completed", func(r *ProtocolRun) float64 {
		_, done, _ := r.Comm.Chats()
		return float64(done)
	})
	row("model MB requested", func(r *ProtocolRun) float64 {
		m, _ := r.Comm.BytesRequested()
		return float64(m) * mb
	})
	row("coreset MB requested", func(r *ProtocolRun) float64 {
		_, c := r.Comm.BytesRequested()
		return float64(c) * mb
	})
	row("total MB requested", func(r *ProtocolRun) float64 {
		return float64(r.Comm.TotalBytesRequested()) * mb
	})
	row("total MB delivered", func(r *ProtocolRun) float64 {
		m, c := r.Comm.BytesDelivered()
		return float64(m+c) * mb
	})
	row("model receive rate (%)", func(r *ProtocolRun) float64 {
		return 100 * r.Recv.Rate()
	})
	// Resilience rows appear only when some run actually exercised them, so
	// fault-free reports render exactly as before the faults layer existed.
	anyCount := func(metric string) bool {
		for _, r := range live {
			if r.Comm.Reg.Counter(metric) != 0 {
				return true
			}
		}
		return false
	}
	if anyCount(telemetry.MFaultsInjected) {
		row("faults injected", func(r *ProtocolRun) float64 {
			return float64(r.Comm.Reg.Counter(telemetry.MFaultsInjected))
		})
	}
	if anyCount(telemetry.MChatResumed) {
		row("chats resumed", func(r *ProtocolRun) float64 {
			return float64(r.Comm.Reg.Counter(telemetry.MChatResumed))
		})
		row("resume MB saved", func(r *ProtocolRun) float64 {
			return float64(r.Comm.Reg.Counter(telemetry.MResumeSavedB)) * mb
		})
	}
	if anyCount(telemetry.MSalvages) {
		row("partial salvages", func(r *ProtocolRun) float64 {
			return float64(r.Comm.Reg.Counter(telemetry.MSalvages))
		})
	}
	// Shard rows appear only for sharded runs, so single-index reports
	// render exactly as before the shard layer existed.
	if anyCount(telemetry.MShardScans) {
		row("shard scans", func(r *ProtocolRun) float64 {
			return float64(r.Comm.Reg.Counter(telemetry.MShardScans))
		})
		row("shard halo guests", func(r *ProtocolRun) float64 {
			return float64(r.Comm.Reg.Counter(telemetry.MShardGuests))
		})
	}
	// Incremental-coreset rows appear only when a run refreshed through the
	// partition tree, so full-rebuild reports render exactly as before.
	if anyCount(telemetry.MCoresetLeavesRebuilt) || anyCount(telemetry.MCoresetLeavesCached) {
		row("coreset leaves rebuilt", func(r *ProtocolRun) float64 {
			return float64(r.Comm.Reg.Counter(telemetry.MCoresetLeavesRebuilt))
		})
		row("coreset leaves cached", func(r *ProtocolRun) float64 {
			return float64(r.Comm.Reg.Counter(telemetry.MCoresetLeavesCached))
		})
		row("coreset tree merges", func(r *ProtocolRun) float64 {
			return float64(r.Comm.Reg.Counter(telemetry.MCoresetTreeMerges))
		})
	}
	// Streaming-trace rows appear only when a run was driven by a sliding
	// window, so resident-trace reports render exactly as before.
	if anyCount(telemetry.MTraceLoads) {
		row("trace chunk loads", func(r *ProtocolRun) float64 {
			return float64(r.Comm.Reg.Counter(telemetry.MTraceLoads))
		})
		row("trace chunk evicts", func(r *ProtocolRun) float64 {
			return float64(r.Comm.Reg.Counter(telemetry.MTraceEvicts))
		})
		row("trace chunk prefetches", func(r *ProtocolRun) float64 {
			return float64(r.Comm.Reg.Counter(telemetry.MTracePrefetches))
		})
		// Fetch-pipeline rows appear only when some run actually retried or
		// blocked on a fetch — i.e. remote or degraded chunk sources.
		if anyCount(telemetry.MTraceFetchRetries) || anyCount(telemetry.MTraceFetchWaitNs) {
			row("trace fetch retries", func(r *ProtocolRun) float64 {
				return float64(r.Comm.Reg.Counter(telemetry.MTraceFetchRetries))
			})
			row("trace fetch wait (ms)", func(r *ProtocolRun) float64 {
				return float64(r.Comm.Reg.Counter(telemetry.MTraceFetchWaitNs)) / 1e6
			})
		}
	}
	// Scheduler rows appear only when some run counted scheduler work.
	if anyCount(telemetry.MSchedDueDequeued) || anyCount(telemetry.MSchedBucketsTouched) {
		row("sched due dequeued", func(r *ProtocolRun) float64 {
			return float64(r.Comm.Reg.Counter(telemetry.MSchedDueDequeued))
		})
		row("sched buckets touched", func(r *ProtocolRun) float64 {
			return float64(r.Comm.Reg.Counter(telemetry.MSchedBucketsTouched))
		})
	}
	if anyCount(telemetry.MSchedShardBatches) {
		row("sched shard batches", func(r *ProtocolRun) float64 {
			return float64(r.Comm.Reg.Counter(telemetry.MSchedShardBatches))
		})
	}
	row("final probe loss (x1000)", func(r *ProtocolRun) float64 {
		return 1000 * r.Curve.Final()
	})
	return tbl
}

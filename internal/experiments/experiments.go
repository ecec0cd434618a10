package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"lbchat/internal/baselines"
	"lbchat/internal/bev"
	"lbchat/internal/core"
	"lbchat/internal/dataset"
	"lbchat/internal/eval"
	"lbchat/internal/geom"
	"lbchat/internal/metrics"
	"lbchat/internal/model"
	"lbchat/internal/parallel"
	"lbchat/internal/radio"
	"lbchat/internal/simrand"
	"lbchat/internal/telemetry"
	"lbchat/internal/trace"
	"lbchat/internal/traceserve"
	"lbchat/internal/world"
)

// Scale sets the size of every experiment ingredient.
type Scale struct {
	// Name labels output.
	Name string
	// Vehicles is the expert fleet size (the paper runs 32).
	Vehicles int
	// BackgroundCars and Pedestrians populate the data-collection world.
	BackgroundCars, Pedestrians int
	// CollectTicks is the number of 2 fps data-collection ticks (the paper
	// collects for one hour: 7200 ticks).
	CollectTicks int
	// TraceTicks is the number of 2 fps mobility-trace ticks driving
	// encounters (the paper records 120 extra hours).
	TraceTicks int
	// TrainDuration is the co-simulation virtual time (s).
	TrainDuration float64
	// ProbeFrames sizes the held-out probe set for loss curves.
	ProbeFrames int
	// EvalTrials is the trial count per driving condition.
	EvalTrials int
	// EvalFleetSample is how many fleet models are evaluated and averaged
	// per protocol.
	EvalFleetSample int
	// RoutesPerCondition sizes the driving benchmark suite.
	RoutesPerCondition int
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds parallelism at every level: concurrent protocol runs
	// within a harness, per-vehicle work inside each engine tick, and
	// fleet-evaluation rollouts. 0 means one worker per available CPU; 1
	// forces the fully serial paths. Output is bit-identical at any setting.
	Workers int
	// Shards partitions engine encounter scans into grid regions
	// (core.Config.Shards); 0 or 1 keeps the single-index path. Output is
	// bit-identical at any setting.
	Shards int
	// FullCoresetRebuild disables the incremental partition-tree coreset
	// refresh (core.Config.DisableIncrementalCoreset), selecting the
	// original full Algorithm-1 rebuild arm instead (DESIGN.md §14). The
	// two arms produce equal-quality summaries but are distinct sampling
	// processes; each is individually bit-identical at any Workers/Shards.
	FullCoresetRebuild bool
	// StreamTrace drives engine runs from a bounded sliding-window trace
	// source instead of the resident columnar trace (DESIGN.md §12).
	// Without a TracePath the recorded trace is spilled to a temporary
	// LBTC file (removed by Env.Close); results are bit-identical either
	// way — streaming only bounds the trace working set.
	StreamTrace bool
	// TracePath, when set, loads the mobility trace from this LBTC file
	// (e.g. a worldgen -trace-out recording) instead of recording one from
	// the world. The file's vehicle count must match Vehicles.
	TracePath string
	// TraceSource, when non-nil, is a pre-opened mobility source supplied
	// by the caller (cli.OpenTrace); it overrides recording and TracePath
	// loading. Streamed runs still reopen fresh windows from TracePath,
	// since a window's cursor only moves forward.
	TraceSource trace.Source
	// TraceURL, when set, pages the mobility trace from a remote chunk
	// server (cmd/trace-serve) at this base URL instead of a local file.
	// Remote traces always stream — each run gets a fresh window over a
	// shared retrying client — and take precedence over TraceSource and
	// TracePath. Results are bit-identical to the resident and
	// local-streamed paths.
	TraceURL string
}

// TestScale is a minimal configuration for unit tests.
func TestScale() Scale {
	return Scale{
		Name:     "test",
		Vehicles: 4, BackgroundCars: 10, Pedestrians: 30,
		CollectTicks: 240, TraceTicks: 1600,
		TrainDuration: 400, ProbeFrames: 48,
		EvalTrials: 4, EvalFleetSample: 1, RoutesPerCondition: 3,
		Seed: 1,
	}
}

// BenchScale is the default benchmark configuration: large enough to show
// the paper's orderings, small enough to regenerate every artifact on one
// CPU core in minutes.
func BenchScale() Scale {
	return Scale{
		Name:     "bench",
		Vehicles: 12, BackgroundCars: 50, Pedestrians: 250,
		CollectTicks: 1500, TraceTicks: 14400,
		TrainDuration: 2400, ProbeFrames: 96,
		EvalTrials: 16, EvalFleetSample: 3, RoutesPerCondition: 8,
		Seed: 7,
	}
}

// FullScale mirrors the paper: 32 expert vehicles, 50 background cars, 250
// pedestrians, long traces.
func FullScale() Scale {
	return Scale{
		Name:     "full",
		Vehicles: 32, BackgroundCars: 50, Pedestrians: 250,
		CollectTicks: 3600, TraceTicks: 28800,
		TrainDuration: 3600, ProbeFrames: 128,
		EvalTrials: 24, EvalFleetSample: 4, RoutesPerCondition: 10,
		Seed: 7,
	}
}

// Env is the shared workload every protocol runs against.
type Env struct {
	Scale Scale
	Map   *world.Map
	// Trace is the env-level mobility source — resident, or a metadata
	// window over the backing stream when the scale streams. Streamed
	// protocol runs do not share it: each run opens a fresh window over
	// streamPath (a window's cursor only moves forward).
	Trace    trace.Source
	Probe    []dataset.Weighted
	Suite    *eval.Suite
	Cfg      core.Config
	datasets []*dataset.Dataset // master copies; runs get fresh clones

	// Telemetry, when non-nil, receives every run's full event stream
	// (e.g. a JSONL sink). Concurrent protocol runs buffer their events
	// and drain them in harness order after the parallel phase, so the
	// sink sees a deterministic stream at any worker count. Per-run
	// aggregate summaries (ProtocolRun.Comm) are collected regardless.
	Telemetry telemetry.Sink

	// streamPath is the LBTC file per-run windows reopen; empty for
	// resident envs. ownsStream marks a temporary spill Close removes, and
	// traceCloser owns the env-level window's file handle.
	streamPath  string
	ownsStream  bool
	traceCloser io.Closer
	// remote is the shared chunk-server client remote envs page through;
	// per-run windows all fetch via it (the client is concurrency-safe and
	// its LRU is shared). Close releases it after the env-level window.
	remote *traceserve.Client
}

// Close releases the env's trace resources: the env-level window's file
// handle and, for spilled recordings, the temporary LBTC file. Safe to
// call on resident envs and idempotent.
func (e *Env) Close() error {
	var first error
	if e.traceCloser != nil {
		first = e.traceCloser.Close()
		e.traceCloser = nil
	}
	if e.ownsStream && e.streamPath != "" {
		if err := os.Remove(e.streamPath); err != nil && first == nil {
			first = err
		}
		e.ownsStream = false
	}
	if e.remote != nil {
		if err := e.remote.Close(); err != nil && first == nil {
			first = err
		}
		e.remote = nil
	}
	return first
}

// envWindowConfig is how env-owned windows are opened: default spans (the
// engine reserves its own lookahead) with background prefetch on.
func envWindowConfig() trace.WindowConfig {
	return trace.WindowConfig{Prefetch: true}
}

// buildTrace resolves the scale's mobility-trace source: a remote chunk
// server, a caller-supplied source, an LBTC file, or a recording from the
// world (resident, or spilled to a temporary stream when the scale
// streams). It returns the env fields it populates.
func buildTrace(scale Scale, w *world.World) (src trace.Source, streamPath string, owns bool, closer io.Closer, remote *traceserve.Client, err error) {
	switch {
	case scale.TraceURL != "":
		remote, err = traceserve.Dial(scale.TraceURL, traceserve.ClientConfig{})
		if err != nil {
			return nil, "", false, nil, nil, fmt.Errorf("experiments: dialing trace server: %w", err)
		}
		win := trace.NewWindowSource(remote, envWindowConfig())
		// The window's own Close drains its prefetches; the shared client
		// is released by Env.Close after every window is done.
		src, closer = win, win
	case scale.TraceSource != nil:
		src = scale.TraceSource
		if scale.StreamTrace {
			streamPath = scale.TracePath
		}
	case scale.TracePath != "":
		if scale.StreamTrace {
			var win *trace.Window
			win, closer, err = trace.OpenWindowFile(scale.TracePath, envWindowConfig())
			if err != nil {
				return nil, "", false, nil, nil, fmt.Errorf("experiments: opening trace window: %w", err)
			}
			src, streamPath = win, scale.TracePath
		} else {
			f, ferr := os.Open(scale.TracePath)
			if ferr != nil {
				return nil, "", false, nil, nil, fmt.Errorf("experiments: opening trace: %w", ferr)
			}
			tr, rerr := trace.ReadTrace(f)
			f.Close()
			if rerr != nil {
				return nil, "", false, nil, nil, fmt.Errorf("experiments: reading trace %s: %w", scale.TracePath, rerr)
			}
			src = tr
		}
	case scale.StreamTrace:
		// Record through a ChunkWriter straight to a temporary spill so
		// the full trace is never resident, then open a window over it.
		f, ferr := os.CreateTemp("", "lbchat-trace-*.lbtc")
		if ferr != nil {
			return nil, "", false, nil, nil, fmt.Errorf("experiments: creating trace spill: %w", ferr)
		}
		streamPath, owns = f.Name(), true
		cw := trace.NewChunkWriter(f, 0.5, len(w.Experts), trace.DefaultChunkTicks)
		recErr := trace.RecordStream(w, scale.TraceTicks, 0.5, cw)
		if cerr := cw.Close(); recErr == nil {
			recErr = cerr
		}
		if cerr := f.Close(); recErr == nil {
			recErr = cerr
		}
		if recErr != nil {
			os.Remove(streamPath)
			return nil, "", false, nil, nil, fmt.Errorf("experiments: spilling trace: %w", recErr)
		}
		var win *trace.Window
		win, closer, err = trace.OpenWindowFile(streamPath, envWindowConfig())
		if err != nil {
			os.Remove(streamPath)
			return nil, "", false, nil, nil, fmt.Errorf("experiments: reopening trace spill: %w", err)
		}
		src = win
	default:
		src = trace.Record(w, scale.TraceTicks, 0.5)
	}
	return src, streamPath, owns, closer, remote, nil
}

// BuildEnv constructs the workload: generate the map, spawn the fleet,
// collect per-vehicle datasets at 2 fps, record the mobility trace, build
// the held-out probe set and the driving benchmark suite.
func BuildEnv(scale Scale) (*Env, error) {
	m, err := world.NewMap(world.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("experiments: building map: %w", err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = scale.Seed
	cfg.Workers = scale.Workers
	cfg.Shards = scale.Shards
	cfg.DisableIncrementalCoreset = scale.FullCoresetRebuild

	rng := simrand.New(scale.Seed)
	w, err := world.New(m, world.SpawnConfig{
		Experts:        scale.Vehicles,
		BackgroundCars: scale.BackgroundCars,
		Pedestrians:    scale.Pedestrians,
	}, rng.Derive("collect-world"))
	if err != nil {
		return nil, fmt.Errorf("experiments: spawning world: %w", err)
	}
	ras := bev.NewRasterizer(bev.DefaultConfig(), m)
	datasets := world.CollectDataset(w, ras, cfg.Model.NumWaypoints, scale.CollectTicks, 0.5)

	// The paper records additional mobility (beyond the collection hour) to
	// drive encounters; we keep stepping the same world. RecordStream spills
	// the identical positions when the scale streams, so streamed and
	// resident envs see the same trajectories bit for bit.
	tr, streamPath, owns, closer, remote, err := buildTrace(scale, w)
	if err != nil {
		return nil, err
	}
	env := &Env{
		Scale: scale, Map: m, Trace: tr, Cfg: cfg, datasets: datasets,
		streamPath: streamPath, ownsStream: owns, traceCloser: closer,
		remote: remote,
	}
	if tr.NumVehicles() != scale.Vehicles {
		env.Close()
		return nil, fmt.Errorf("experiments: trace has %d vehicles, scale %s wants %d",
			tr.NumVehicles(), scale.Name, scale.Vehicles)
	}
	probe, err := eval.ProbeSet(m, bev.DefaultConfig(), cfg.Model.NumWaypoints, scale.ProbeFrames, scale.Seed+1000)
	if err != nil {
		env.Close()
		return nil, fmt.Errorf("experiments: building probe: %w", err)
	}
	suite, err := eval.BuildSuite(m, eval.SuiteConfig{
		RoutesPerCondition: scale.RoutesPerCondition,
		Seed:               scale.Seed + 2000,
	})
	if err != nil {
		env.Close()
		return nil, fmt.Errorf("experiments: building eval suite: %w", err)
	}
	env.Probe, env.Suite = probe, suite
	return env, nil
}

// FreshDatasets returns per-run dataset clones: protocols expand their local
// datasets in place, so each run starts from pristine copies (sample
// payloads are shared — they are immutable).
func (e *Env) FreshDatasets() []*dataset.Dataset {
	out := make([]*dataset.Dataset, len(e.datasets))
	for i, d := range e.datasets {
		out[i] = dataset.FromWeighted(append([]dataset.Weighted(nil), d.Items()...))
	}
	return out
}

// RSUPositions returns the road-side-unit deployment: a subset of the
// road-cross intersections, as in [29] — RSU coverage is sparse enough that
// vehicles spend real time out of range (every third cross, which on the
// default map leaves coverage holes in both town and rural areas).
func (e *Env) RSUPositions() []geom.Point {
	var out []geom.Point
	crosses := 0
	for _, n := range e.Map.Nodes {
		if len(n.Out) >= 3 {
			if crosses%3 == 0 {
				out = append(out, n.Pos)
			}
			crosses++
		}
	}
	return out
}

// ProtocolName identifies a runnable protocol or variant.
type ProtocolName string

// The protocols and variants of §IV.
const (
	ProtoLbChat    ProtocolName = "LbChat"
	ProtoProxSkip  ProtocolName = "ProxSkip"
	ProtoRSUL      ProtocolName = "RSU-L"
	ProtoDFLDDS    ProtocolName = "DFL-DDS"
	ProtoDP        ProtocolName = "DP"
	ProtoSCO       ProtocolName = "SCO"
	ProtoEqualComp ProtocolName = "LbChat-EqualComp"
	ProtoAvgAgg    ProtocolName = "LbChat-AvgAgg"
	ProtoNoPrio    ProtocolName = "LbChat-NoPrio"
	ProtoAdaptive  ProtocolName = "LbChat-AdaptiveCS"
	ProtoNoResume  ProtocolName = "LbChat-NoResume"
)

// BenchmarkProtocols lists the Fig. 2 / Tables II–III lineup in the paper's
// column order.
var BenchmarkProtocols = []ProtocolName{ProtoProxSkip, ProtoRSUL, ProtoDFLDDS, ProtoDP, ProtoLbChat}

// newProtocol constructs a protocol instance by name.
func (e *Env) newProtocol(name ProtocolName) (core.Protocol, error) {
	switch name {
	case ProtoLbChat:
		return core.NewLbChat(), nil
	case ProtoSCO:
		return core.NewSCO(), nil
	case ProtoEqualComp:
		return core.NewLbChatVariant(string(name), core.Variant{EqualCompression: true}), nil
	case ProtoAvgAgg:
		return core.NewLbChatVariant(string(name), core.Variant{AverageAggregation: true}), nil
	case ProtoNoPrio:
		return core.NewLbChatVariant(string(name), core.Variant{NoPrioritization: true}), nil
	case ProtoAdaptive:
		return core.NewLbChatVariant(string(name), core.Variant{AdaptiveCoresetSize: true}), nil
	case ProtoNoResume:
		return core.NewLbChatVariant(string(name), core.Variant{NoResumption: true}), nil
	case ProtoProxSkip:
		return baselines.NewProxSkip(), nil
	case ProtoRSUL:
		return baselines.NewRSUL(e.RSUPositions()), nil
	case ProtoDFLDDS:
		return baselines.NewDFLDDS(), nil
	case ProtoDP:
		return baselines.NewDP(), nil
	default:
		return nil, fmt.Errorf("experiments: unknown protocol %q", name)
	}
}

// ProtocolRun is one protocol training run's outputs.
type ProtocolRun struct {
	Name ProtocolName
	// Lossless records the wireless regime the run used.
	Lossless bool
	// Curve is the probe-loss trajectory (Figs. 2–3).
	Curve metrics.Curve
	// Recv aggregates the fleet's model-receive outcomes (§IV-C).
	Recv metrics.ReceiveStats
	// Fleet holds every vehicle's final model.
	Fleet []*model.Policy
	// Comm aggregates the run's telemetry into counters and histograms
	// (chat counts, over-the-air bytes per payload, ψ distribution). It is
	// always collected — the Summary sink is cheap.
	Comm *telemetry.Summary
	// Canceled marks a run cut short by context cancellation. Curve, Recv
	// and Fleet hold the partial state at the stop point.
	Canceled bool

	// events buffers the run's full event stream while the Env has a user
	// sink attached; the harness drains it in deterministic order.
	events *telemetry.MemorySink
}

// RunProtocol trains the fleet under one protocol and wireless regime.
// cfgMut, when non-nil, adjusts the engine config (coreset-size sweeps).
//
// Deprecated: new callers should use the package-level Run with
// Spec{Experiment: ExpProtocol}; this wrapper remains for incremental
// migration and is equivalent to a background-context run.
func (e *Env) RunProtocol(name ProtocolName, lossless bool, cfgMut func(*core.Config)) (*ProtocolRun, error) {
	run, err := e.runProtocol(context.Background(), name, lossless, cfgMut)
	if err != nil {
		return nil, err
	}
	e.flushRuns(run)
	return run, nil
}

// runProtocol is the core runner: it brackets the run with
// RunStarted/RunFinished telemetry, honors ctx cancellation (returning a
// partial run with Canceled set and a nil error), and leaves the event
// buffer attached for the caller to drain via flushRuns — concurrent
// callers drain in harness order to keep the user sink deterministic.
func (e *Env) runProtocol(ctx context.Context, name ProtocolName, lossless bool, cfgMut func(*core.Config)) (*ProtocolRun, error) {
	cfg := e.Cfg
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	proto, err := e.newProtocol(name)
	if err != nil {
		return nil, err
	}
	sum := telemetry.NewSummary()
	sink := telemetry.Sink(sum)
	var buf *telemetry.MemorySink
	if e.Telemetry != nil {
		buf = telemetry.NewMemorySink()
		sink = telemetry.Tee(sum, buf)
	}
	cfg.Telemetry = sink
	src, srcCloser, err := e.openRunTrace()
	if err != nil {
		return nil, fmt.Errorf("experiments: trace for %s: %w", name, err)
	}
	if srcCloser != nil {
		defer srcCloser.Close()
	}
	sink.Emit(telemetry.RunStarted{Protocol: string(name), Lossless: lossless})
	eng, err := core.NewEngine(cfg, src, e.FreshDatasets(), radio.NewModel(lossless), e.Probe)
	if err != nil {
		return nil, fmt.Errorf("experiments: engine for %s: %w", name, err)
	}
	canceled := false
	if err := eng.RunContext(ctx, proto, e.Scale.TrainDuration); err != nil {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("experiments: running %s: %w", name, err)
		}
		canceled = true
	}
	sink.Emit(telemetry.RunFinished{
		Protocol: string(name), Time: eng.Now(),
		FinalLoss: eng.LossCurve.Final(), Canceled: canceled,
	})
	run := &ProtocolRun{
		Name: name, Lossless: lossless,
		Curve: eng.LossCurve, Recv: eng.FleetReceiveStats(),
		Comm: sum, Canceled: canceled, events: buf,
	}
	for _, v := range eng.Vehicles {
		run.Fleet = append(run.Fleet, v.Policy)
	}
	return run, nil
}

// openRunTrace returns the mobility source for one protocol run. Resident
// envs share Env.Trace (and return a nil closer); streamed envs open a
// fresh window over the backing stream — or over the shared remote client
// — because a window's cursor is forward-only and concurrent harness runs
// each need their own.
func (e *Env) openRunTrace() (trace.Source, io.Closer, error) {
	if e.remote != nil {
		win := trace.NewWindowSource(e.remote, envWindowConfig())
		return win, win, nil
	}
	if e.streamPath != "" {
		win, closer, err := trace.OpenWindowFile(e.streamPath, envWindowConfig())
		if err != nil {
			return nil, nil, err
		}
		return win, closer, nil
	}
	if _, windowed := e.Trace.(trace.Windowed); windowed {
		return nil, nil, fmt.Errorf("experiments: windowed env trace has no backing stream to reopen")
	}
	return e.Trace, nil, nil
}

// flushRuns drains buffered per-run event streams into the Env's user
// sink in the given order. Called after parallel phases so a shared sink
// (JSONL file) sees whole runs in harness order regardless of scheduling.
func (e *Env) flushRuns(runs ...*ProtocolRun) {
	if e.Telemetry == nil {
		return
	}
	for _, r := range runs {
		if r != nil && r.events != nil {
			r.events.Drain(e.Telemetry)
			r.events = nil
		}
	}
}

// anyCanceled reports whether any run in the set was cut short.
func anyCanceled(runs []*ProtocolRun) bool {
	for _, r := range runs {
		if r != nil && r.Canceled {
			return true
		}
	}
	return false
}

// EvalFleet computes fleet-averaged driving success rates for every
// condition: EvalFleetSample models spread across the fleet are each run on
// EvalTrials trials and the rates averaged — the per-model average is what
// the paper reports ("driving success rate on average").
func (e *Env) EvalFleet(fleet []*model.Policy) map[eval.Condition]float64 {
	ev := eval.NewEvaluator(e.Suite)
	ev.NormalTraffic = world.SpawnConfig{
		BackgroundCars: e.Scale.BackgroundCars,
		Pedestrians:    e.Scale.Pedestrians,
	}
	sample := e.Scale.EvalFleetSample
	if sample < 1 {
		sample = 1
	}
	if sample > len(fleet) {
		sample = len(fleet)
	}
	// Fan the (condition, fleet-sample) grid out across workers. Each task
	// clones its policy — the same fleet model appears in several tasks, and
	// policies are not concurrency-safe; a clone has identical parameters, so
	// identical predictions. Rates come back in task-index order and are
	// reduced per condition in k order, so the float averages match the
	// serial nested loops bit for bit.
	type task struct {
		cond eval.Condition
		k    int
	}
	tasks := make([]task, 0, len(eval.Conditions)*sample)
	for _, cond := range eval.Conditions {
		for k := 0; k < sample; k++ {
			tasks = append(tasks, task{cond, k})
		}
	}
	rates := parallel.Map(parallel.Resolve(e.Scale.Workers), len(tasks), func(t int) float64 {
		cond, k := tasks[t].cond, tasks[t].k
		idx := k * len(fleet) / sample
		seed := e.Scale.Seed*1_000_003 + uint64(k)*501 + uint64(cond)*77
		return ev.SuccessRate(fleet[idx].Clone(), cond, e.Scale.EvalTrials, seed)
	})
	out := make(map[eval.Condition]float64, len(eval.Conditions))
	for ci, cond := range eval.Conditions {
		var sum float64
		for k := 0; k < sample; k++ {
			sum += rates[ci*sample+k]
		}
		out[cond] = sum / float64(sample)
	}
	return out
}

// SuccessTable renders per-protocol driving success rates as a paper-style
// table with one column per protocol, in the given order.
func (e *Env) SuccessTable(title string, order []ProtocolName, rates map[ProtocolName]map[eval.Condition]float64) *metrics.Table {
	cols := make([]string, len(order))
	for i, n := range order {
		cols[i] = string(n)
	}
	tbl := metrics.NewTable(title, cols...)
	for _, cond := range eval.Conditions {
		vals := make([]float64, len(order))
		for i, n := range order {
			vals[i] = rates[n][cond]
		}
		tbl.AddRow(cond.String(), vals...)
	}
	return tbl
}

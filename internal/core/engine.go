package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"lbchat/internal/compress"
	"lbchat/internal/coreset"
	"lbchat/internal/dataset"
	"lbchat/internal/faults"
	"lbchat/internal/geom"
	"lbchat/internal/metrics"
	"lbchat/internal/model"
	"lbchat/internal/parallel"
	"lbchat/internal/radio"
	"lbchat/internal/sched"
	"lbchat/internal/shard"
	"lbchat/internal/simrand"
	"lbchat/internal/spatial"
	"lbchat/internal/telemetry"
	"lbchat/internal/trace"
)

// Config parameterizes the co-simulation.
type Config struct {
	// Seed drives every random stream in the run.
	Seed uint64
	// TickSeconds is the engine step (s).
	TickSeconds float64
	// TrainInterval is the virtual time between local training steps (s).
	TrainInterval float64
	// BatchSize is the per-step training batch.
	BatchSize int
	// RecordInterval is the loss-curve sampling period (s).
	RecordInterval float64
	// TimeBudget is T_B, the per-pair exchange budget (15 s in the paper).
	TimeBudget float64
	// ContactHorizon caps route-based contact-duration estimation (s).
	ContactHorizon float64
	// CoresetSize is the coreset budget |C| (150 frames in the paper).
	CoresetSize int
	// CoresetMethod selects the construction algorithm (Algorithm 1 layered
	// sampling by default; §V notes sensitivity- and clustering-based
	// alternatives plug in unchanged).
	CoresetMethod coreset.Method
	// CoresetRefresh is the minimum age (s) before a vehicle rebuilds its
	// coreset from scratch with Algorithm 1; between rebuilds the cheap
	// merge-and-reduce path maintains it.
	CoresetRefresh float64
	// LayeringSample bounds how many local samples are scored to layer the
	// dataset during coreset construction (computation guard).
	LayeringSample int
	// EvalSubset bounds how many coreset samples value assessments use.
	EvalSubset int
	// PsiSamples are the compression levels sampled when fitting φ.
	PsiSamples []float64
	// LambdaC is the Eq. (7) time-award coefficient (loss units per second).
	LambdaC float64
	// ChatCooldown is the minimum time between chats initiated by one
	// vehicle (s); it models the duty cycle of the exchange radio.
	ChatCooldown float64
	// PairCooldown is the minimum re-chat interval for one vehicle pair (s).
	PairCooldown float64
	// BandwidthMinBps and BandwidthMaxBps bound per-vehicle available
	// bandwidth, sampled uniformly per vehicle.
	BandwidthMinBps, BandwidthMaxBps float64
	// PaperModelBytes is the over-the-air size of one uncompressed model.
	// The simulation trains compact stand-in networks, but the radio layer
	// must see the PAPER's payload economics — a 52 MB imitation model
	// takes ≈13.4 s at 31 Mbps, comparable to T_B, which is the whole
	// tension LbChat's compression optimization resolves.
	PaperModelBytes int
	// PaperFrameBytes is the over-the-air size of one coreset frame (the
	// paper's 150-frame coreset is ≈0.6 MB ⇒ 4 kB per frame).
	PaperFrameBytes int
	// CompressionScheme selects how model payloads are compressed for the
	// air: top-k delta sparsification [22] (default) or unbiased stochastic
	// quantization — the alternative §III-C notes can be applied unchanged.
	CompressionScheme CompressionScheme
	// CompressionConcentration calibrates the stand-in model's top-k
	// degradation to a large net's. Big over-parameterized models tolerate
	// top-k sparsification gracefully (updates concentrate in few large
	// coordinates [20][22]); a compact dense stand-in does not. When a
	// payload is compressed to byte-fraction ψ, the stand-in keeps
	// ψ^CompressionConcentration of its delta coordinates, reproducing the
	// gentle loss-vs-ψ curve the paper's 52 MB model would show. 1 disables
	// the calibration.
	CompressionConcentration float64
	// LogChats prints per-chat decision traces (value assessments, fitted φ
	// samples, Eq. (7) solutions) to standard error — a debugging aid.
	LogChats bool
	// Workers bounds the engine's per-tick parallelism (local training and
	// probe evaluation fan out across vehicles). 0 means one worker per
	// available CPU; 1 forces the serial path. Results are bit-identical at
	// every worker count: vehicles touch only private state during the
	// parallel phases and float reductions run in vehicle-index order.
	Workers int
	// Telemetry receives the run's structured event stream (chats,
	// transfers, coreset maintenance, train steps, contact windows). nil
	// disables telemetry at ~zero hot-path cost: every emission site checks
	// the sink before constructing an event. Telemetry never consumes
	// simulation randomness, so run results are bit-identical with any sink
	// (or none), and events are emitted in deterministic order at every
	// worker count.
	Telemetry telemetry.Sink
	// Faults configures the deterministic fault-injection layer
	// (internal/faults, DESIGN.md §9). The zero value disables it: no
	// injector is built, no extra randomness is drawn, and runs behave
	// exactly as without the layer.
	Faults faults.Config
	// DisableIncrementalCoreset forces EnsureCoreset down the original full
	// Algorithm-1 rebuild — rescoring a LayeringSample-bounded subsample of
	// the whole dataset every CoresetRefresh interval — instead of the
	// merge-and-reduce partition tree that rebuilds only dirty leaves
	// (DESIGN.md §14). The two arms produce equal-weight, comparable-quality
	// summaries but not identical ones (they score different sample pools),
	// so the flag selects an arm rather than a bit-identical fast path; each
	// arm is individually deterministic at every worker and shard count. It
	// exists as the A/B reference for quality tests and the full-rebuild
	// benchmark baseline.
	DisableIncrementalCoreset bool
	// Shards partitions encounter scans into grid regions (internal/shard,
	// DESIGN.md §11): each region enumerates its radio-range pairs locally
	// (with halo copies of border vehicles) on the parallel pool, and the
	// per-region outputs merge back into the canonical (A, B) order. 0 or 1
	// keeps today's single-index path; any value produces bit-identical
	// results — sharding changes only how the scan is scheduled.
	Shards int
	// TraceWindowBehind is the trailing slack (s) a bounded sliding-window
	// trace source retains behind the engine cursor (DESIGN.md §12). The
	// engine reserves its own leading span (ContactHorizon + TimeBudget)
	// automatically; this knob only affects memory, never results, and 0
	// takes the trace package default. Ignored for resident traces.
	TraceWindowBehind float64
	// Model configures the policy architecture.
	Model model.Config
}

// DefaultConfig returns the experiment defaults (paper values where the
// paper gives them).
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		TickSeconds:     1,
		TrainInterval:   2,
		BatchSize:       16,
		RecordInterval:  60,
		TimeBudget:      15,
		ContactHorizon:  120,
		CoresetSize:     150,
		CoresetMethod:   coreset.MethodLayered,
		CoresetRefresh:  120,
		LayeringSample:  384,
		EvalSubset:      64,
		PsiSamples:      []float64{0.05, 0.2, 0.5, 1.0},
		LambdaC:         0.0008,
		ChatCooldown:    75,
		PairCooldown:    150,
		BandwidthMinBps: 20e6,
		BandwidthMaxBps: 31e6,
		PaperModelBytes: 52_000_000,
		PaperFrameBytes: 4_000,

		CompressionConcentration: 1.0 / 3,
		Model:                    model.DefaultConfig(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.TickSeconds <= 0:
		return fmt.Errorf("core: non-positive tick %g", c.TickSeconds)
	case c.TrainInterval <= 0:
		return fmt.Errorf("core: non-positive train interval %g", c.TrainInterval)
	case c.BatchSize <= 0:
		return fmt.Errorf("core: non-positive batch size %d", c.BatchSize)
	case c.TimeBudget <= 0:
		return fmt.Errorf("core: non-positive time budget %g", c.TimeBudget)
	case c.CoresetSize <= 0:
		return fmt.Errorf("core: non-positive coreset size %d", c.CoresetSize)
	case c.BandwidthMinBps <= 0 || c.BandwidthMaxBps < c.BandwidthMinBps:
		return fmt.Errorf("core: invalid bandwidth range [%g, %g]", c.BandwidthMinBps, c.BandwidthMaxBps)
	case c.PaperModelBytes <= 0 || c.PaperFrameBytes <= 0:
		return fmt.Errorf("core: non-positive paper payload sizes (%d, %d)", c.PaperModelBytes, c.PaperFrameBytes)
	case c.Shards < 0:
		return fmt.Errorf("core: negative shard count %d", c.Shards)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return c.Model.Validate()
}

// Vehicle is one fleet member's live training state.
type Vehicle struct {
	// ID indexes the vehicle in the fleet and the mobility trace.
	ID int
	// Policy is the local model x_i.
	Policy *model.Policy
	// Data is the (expanding) local dataset D_i.
	Data *dataset.Dataset
	// Core is the current coreset C_i (nil until first built).
	Core *coreset.Coreset
	// Tree is the vehicle's merge-and-reduce partition tree over Data,
	// lazily created by the incremental EnsureCoreset path (nil until the
	// first incremental refresh, and always nil when
	// Config.DisableIncrementalCoreset is set). Absorbs extend it so
	// appended ranges mark their covering leaves dirty.
	Tree *coreset.Tree
	// CoreBuiltAt is when the coreset was last rebuilt via Algorithm 1.
	CoreBuiltAt float64
	// Bandwidth is the vehicle's available bandwidth B_i (bits/s).
	Bandwidth float64
	// BusyUntil blocks new chats while a pairwise exchange is in flight.
	BusyUntil float64
	// NextChatAt enforces the chat cooldown.
	NextChatAt float64
	// Recv counts model-transfer outcomes toward the §IV-C receive rate.
	Recv metrics.ReceiveStats

	// LocalWeight is the uniform original weight w(d) for absorbed samples.
	LocalWeight float64
	// CoresetSizeOverride, when positive, replaces Config.CoresetSize for
	// this vehicle — the adaptive-coreset-size variant tunes it per vehicle
	// from observed contact durations.
	CoresetSizeOverride int
	// ContactEMA tracks an exponential moving average of this vehicle's
	// observed contact durations (s); 0 until the first encounter.
	ContactEMA float64

	nextTrain float64
	lastChat  map[int]float64
	rng       *simrand.Rand
}

// RNG returns the vehicle's private random stream.
func (v *Vehicle) RNG() *simrand.Rand { return v.rng }

// Protocol is a pluggable communication strategy evaluated on the engine.
type Protocol interface {
	// Name labels metrics and output rows.
	Name() string
	// Setup runs once before the simulation loop.
	Setup(e *Engine) error
	// OnTick runs every engine tick after local training and event
	// processing; it is where encounters are detected and exchanges happen.
	OnTick(e *Engine, now float64)
}

// Engine is the co-simulation.
type Engine struct {
	Cfg      Config
	Vehicles []*Vehicle
	// Trace is the fleet mobility source: a resident *trace.Trace or a
	// bounded sliding *trace.Window. The engine advances it once per tick
	// and only ever reads [now, now + ContactHorizon + TimeBudget], which
	// is the span it reserves on windowed sources.
	Trace trace.Source
	Radio *radio.Model
	Probe []dataset.Weighted

	// LossCurve is the average probe loss over time.
	LossCurve metrics.Curve
	// Events is the deferred-effect queue (transfer completions).
	Events sched.Queue

	rng        *simrand.Rand
	now        float64
	nextRecord float64
	initFlat   []float64
	// deltaScratch holds CompressDelta's model delta, one model's worth.
	// Exchanges run serially on the engine goroutine, and TopK copies the
	// kept values out, so no caller sees the buffer.
	deltaScratch []float64

	// tickIndex counts completed engine ticks; it is the integer key of the
	// due-time calendar (e.now accumulates float rounding, tickIndex never
	// does).
	tickIndex int64
	// invTick is 1/TickSeconds, hoisted so dueTick multiplies instead of
	// divides on every re-enqueue.
	invTick float64
	// calendar is the due-time calendar queue over vehicle ids (DESIGN.md
	// §15): each vehicle is enqueued at the tick its nextTrain comes due and
	// re-enqueued after every step, so discovering the tick's due set costs
	// O(due), not O(fleet). Buckets are keyed never-late (see dueTick) and
	// lazily re-checked at dequeue, so float drift between e.now and
	// tickIndex can cost a harmless early pop but never a late one.
	calendar *sched.Calendar
	// dueIDs and popScratch are trainTick's reused id scratch: the tick's
	// due set in ascending vehicle order, and the raw calendar pop feeding
	// it. Ids, not pointers, so the scratch pins no departed vehicles.
	dueIDs     []int32
	popScratch []int32
	// allIDs is the static identity id list [0, n), the whole-fleet working
	// set probe evaluation dispatches over.
	allIDs []int32
	// stepFn, stepObsFn, and probeFn are the per-vehicle phase bodies
	// (stepDue, stepDueObserved, probeOne) bound once at construction, so
	// dispatching a tick's phases allocates no closures.
	stepFn    func(i int)
	stepObsFn func(i int)
	probeFn   func(i int)

	// tel and obs cache the configured telemetry sink and its optional
	// Metrics side channel (wall times, shard, scheduler, coreset-cache and
	// trace-window statistics, never the event stream); both nil when
	// telemetry is disabled.
	tel telemetry.Sink
	obs telemetry.Metrics
	// stepScratch carries per-vehicle training outcomes out of the parallel
	// phase so events are emitted serially in vehicle-index order.
	stepScratch []stepOutcome
	// contactOpen tracks open contact windows (key {a,b}, a < b → open
	// time) for contact open/close telemetry; nil when telemetry is off.
	contactOpen map[[2]int]float64
	// faults is the run's fault injector; nil when Cfg.Faults is the zero
	// value, in which case every fault hook is a no-op.
	faults *faults.Injector

	// spatialIdx accelerates radio-range queries (candidate pairs, contact
	// scans); its cell size is the radio range. The pts/pair/free/open
	// slices are reused scratch for the per-tick rebuild and enumeration,
	// and matchTaken is GreedyMatch's reusable vehicle-taken set. All of
	// them are touched only from the serial section of a tick.
	spatialIdx  *spatial.Index
	spatialPts  []geom.Point
	pairScratch []spatial.Pair
	freeScratch []int
	openScratch [][2]int
	matchTaken  []bool
	// shardScan replaces spatialIdx for pair enumeration when
	// Cfg.Shards > 1.
	shardScan *shard.Scanner
	// grouper batches per-vehicle phase work (train steps, probe
	// evaluations) by owning grid region when Cfg.Shards > 1, using the same
	// region geometry as shardScan; lossScratch is the reused per-vehicle
	// loss buffer probe evaluation reduces from in id order.
	grouper     *shard.Grouper
	lossScratch []float64
}

// stepOutcome is one vehicle's training work within one tick.
type stepOutcome struct {
	steps  int
	loss   float64
	wallNs int64
}

// NewEngine builds a fleet over the given mobility trace and local datasets.
// All vehicles start from an identical model initialization (the paper's
// assumption) but distinct random streams.
//
// The trace may be resident or a bounded sliding window (trace.Source);
// windowed sources are reserved to the engine's lookahead — ContactHorizon
// plus TimeBudget past the cursor — and advanced once per tick, so results
// are bit-identical either way while a streamed run's trace working set
// stays O(window) chunks.
func NewEngine(cfg Config, tr trace.Source, datasets []*dataset.Dataset, rm *radio.Model, probe []dataset.Weighted) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tr.NumVehicles() != len(datasets) {
		return nil, fmt.Errorf("core: trace has %d vehicles, got %d datasets", tr.NumVehicles(), len(datasets))
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	root := simrand.New(cfg.Seed)
	e := &Engine{
		Cfg:   cfg,
		Trace: tr,
		Radio: rm,
		Probe: probe,
		rng:   root.Derive("engine"),
		tel:   cfg.Telemetry,
	}
	e.spatialIdx = spatial.New(rm.Params.MaxRangeMeters)
	if cfg.Shards > 1 {
		e.shardScan = shard.NewScanner(cfg.Shards, cfg.Workers)
		e.grouper = shard.NewGrouper(cfg.Shards)
	}
	e.invTick = 1 / cfg.TickSeconds
	e.stepFn = e.stepDue
	e.stepObsFn = e.stepDueObserved
	e.probeFn = e.probeOne
	e.calendar = sched.NewCalendar(len(datasets))
	e.obs, _ = e.tel.(telemetry.Metrics)
	if e.tel != nil {
		e.contactOpen = make(map[[2]int]float64)
	}
	if w, ok := tr.(trace.Windowed); ok {
		// The engine's deepest lookahead past the cursor: a contact scan
		// reaches ContactHorizon ahead and an in-flight transfer samples
		// distances up to its deadline (≤ TimeBudget) past its start, with
		// one tick of slack for the snap-to-tick clamp.
		w.Reserve(cfg.TraceWindowBehind, cfg.ContactHorizon+cfg.TimeBudget+cfg.TickSeconds)
		if e.obs != nil {
			w.SetChunkObserver(e.countChunkOp)
		}
		if err := w.Advance(0); err != nil {
			return nil, fmt.Errorf("core: loading initial trace window: %w", err)
		}
	}
	if cfg.Faults.Enabled() {
		e.faults = faults.NewInjector(cfg.Faults, root.Derive("faults"), tr.NumVehicles())
	}
	initPolicy, err := model.New(cfg.Model, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: building reference init: %w", err)
	}
	e.initFlat = initPolicy.Flat()
	for i, d := range datasets {
		pol, err := model.New(cfg.Model, cfg.Seed) // same seed: identical init
		if err != nil {
			return nil, fmt.Errorf("core: building vehicle %d policy: %w", i, err)
		}
		vr := root.DeriveIndexed("vehicle", i)
		e.Vehicles = append(e.Vehicles, &Vehicle{
			ID:          i,
			Policy:      pol,
			Data:        d,
			Bandwidth:   vr.Uniform(cfg.BandwidthMinBps, cfg.BandwidthMaxBps),
			LocalWeight: 1,
			lastChat:    make(map[int]float64),
			rng:         vr,
			// Stagger training so vehicles do not all step on the same tick.
			nextTrain: vr.Uniform(0, cfg.TrainInterval),
		})
	}
	e.allIDs = make([]int32, len(e.Vehicles))
	for i := range e.allIDs {
		e.allIDs[i] = int32(i)
	}
	for _, v := range e.Vehicles {
		e.calendar.Schedule(int32(v.ID), e.dueTick(v.nextTrain))
	}
	return e, nil
}

// countChunkOp counts one trace-window chunk operation on the Metrics side
// channel, so streamed and resident runs emit byte-identical events.
func (e *Engine) countChunkOp(op trace.ChunkOp) {
	switch op.Kind {
	case trace.OpLoad:
		e.obs.Count(telemetry.MTraceLoads, 1)
		if op.Retries > 0 {
			e.obs.Count(telemetry.MTraceFetchRetries, int64(op.Retries))
		}
		if op.WaitNs > 0 {
			e.obs.Count(telemetry.MTraceFetchWaitNs, op.WaitNs)
		}
	case trace.OpEvict:
		e.obs.Count(telemetry.MTraceEvicts, 1)
	case trace.OpPrefetch:
		e.obs.Count(telemetry.MTracePrefetches, 1)
		e.obs.Observe(telemetry.MTracePrefetchDepth, float64(op.Depth))
	}
	e.obs.Observe(telemetry.MTraceResident, float64(op.Resident))
}

// Now returns the current virtual time (s).
func (e *Engine) Now() float64 { return e.now }

// Run drives the co-simulation for duration seconds of virtual time under
// the given protocol.
func (e *Engine) Run(p Protocol, duration float64) error {
	return e.RunContext(context.Background(), p, duration)
}

// RunContext drives the co-simulation for duration seconds of virtual time
// under the given protocol, stopping early when ctx is canceled. The
// cancellation check runs once per tick; on cancellation the engine returns
// ctx.Err() with its state (loss curve, vehicles, receive stats) intact and
// consistent up to the last completed tick, so callers can surface a partial
// result.
//
// A windowed trace source is advanced to the cursor tick before each step;
// a chunk decode failure aborts the run with the position-annotated error,
// and a lookup that escapes the reserved window (a *trace.WindowViolation
// panic from the strict-window path) is returned as an error rather than
// crashing the process.
func (e *Engine) RunContext(ctx context.Context, p Protocol, duration float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if v, ok := r.(*trace.WindowViolation); ok {
				err = fmt.Errorf("core: trace lookup escaped the reserved window at t=%gs: %w", e.now, v)
				return
			}
			panic(r)
		}
	}()
	if err := p.Setup(e); err != nil {
		return fmt.Errorf("core: protocol %s setup: %w", p.Name(), err)
	}
	e.LossCurve.Name = p.Name()
	e.recordLoss() // t = 0 baseline
	e.nextRecord = e.Cfg.RecordInterval
	for e.now < duration {
		if err := ctx.Err(); err != nil {
			e.closeContacts()
			return err
		}
		if err := e.advanceTrace(); err != nil {
			return err
		}
		e.Events.RunUntil(e.now)
		e.faultsTick()
		e.scanContacts()
		e.trainTick()
		p.OnTick(e, e.now)
		if e.now >= e.nextRecord {
			e.recordLoss()
			e.nextRecord += e.Cfg.RecordInterval
		}
		e.now += e.Cfg.TickSeconds
		e.tickIndex++
	}
	e.Events.RunUntil(duration)
	e.recordLoss()
	e.closeContacts()
	return nil
}

// advanceTrace moves a windowed trace source's cursor to the current tick.
// Resident traces make this a no-op.
func (e *Engine) advanceTrace() error {
	dt := e.Trace.DT()
	if dt <= 0 {
		return nil
	}
	if err := e.Trace.Advance(int(e.now / dt)); err != nil {
		return fmt.Errorf("core: advancing trace window to t=%gs: %w", e.now, err)
	}
	return nil
}

// TelemetryEnabled reports whether the engine has a telemetry sink, so
// protocols can skip building expensive event payloads.
func (e *Engine) TelemetryEnabled() bool { return e.tel != nil }

// Emit forwards an event to the configured telemetry sink; without one it
// is a no-op. Protocol implementations should guard construction of
// non-trivial events with TelemetryEnabled.
func (e *Engine) Emit(ev telemetry.Event) {
	if e.tel != nil {
		e.tel.Emit(ev)
	}
}

// scanContacts diffs the fleet's in-range pair set against the previous
// tick and emits contact open/close events. It runs only with telemetry
// enabled. It enumerates in-range pairs via the spatial index (or sharded
// scanner) and merges them with the sorted open-contact set; every pair
// produces at most one event and both sequences are (a, b)-ascending, so
// the merged event stream equals a full O(N²) pairwise diff.
func (e *Engine) scanContacts() {
	if e.tel == nil {
		return
	}
	maxRange := e.Radio.Params.MaxRangeMeters
	// One contiguous row read covers every vehicle this tick; the copy into
	// scratch keeps the slice valid across the window's next Advance.
	pts := append(e.spatialPts[:0], e.Trace.RowAt(e.now)...)
	e.spatialPts = pts
	inRange := e.rangePairs(pts, maxRange)
	open := e.openScratch[:0]
	for key := range e.contactOpen {
		open = append(open, key)
	}
	e.openScratch = open
	sort.Slice(open, func(i, j int) bool {
		if open[i][0] != open[j][0] {
			return open[i][0] < open[j][0]
		}
		return open[i][1] < open[j][1]
	})
	i, j := 0, 0
	for i < len(inRange) || j < len(open) {
		var cmp int
		switch {
		case i >= len(inRange):
			cmp = 1
		case j >= len(open):
			cmp = -1
		default:
			in, op := inRange[i], open[j]
			switch {
			case in.A != op[0]:
				cmp = in.A - op[0]
			default:
				cmp = in.B - op[1]
			}
		}
		switch {
		case cmp < 0: // newly in range
			key := [2]int{inRange[i].A, inRange[i].B}
			e.contactOpen[key] = e.now
			e.tel.Emit(telemetry.ContactOpen{Time: e.now, A: key[0], B: key[1]})
			i++
		case cmp > 0: // left range
			key := open[j]
			openedAt := e.contactOpen[key]
			delete(e.contactOpen, key)
			e.tel.Emit(telemetry.ContactClose{Time: e.now, A: key[0], B: key[1], Duration: e.now - openedAt})
			j++
		default: // still in contact
			i++
			j++
		}
	}
}

// closeContacts flushes still-open contact windows at the end (or
// cancellation) of a run, in pair-index order.
func (e *Engine) closeContacts() {
	if e.tel == nil || len(e.contactOpen) == 0 {
		return
	}
	for a := 0; a < len(e.Vehicles); a++ {
		for b := a + 1; b < len(e.Vehicles); b++ {
			key := [2]int{a, b}
			if openedAt, open := e.contactOpen[key]; open {
				delete(e.contactOpen, key)
				e.tel.Emit(telemetry.ContactClose{Time: e.now, A: a, B: b, Duration: e.now - openedAt})
			}
		}
	}
}

// workers resolves the engine's per-tick parallelism.
func (e *Engine) workers() int { return parallel.Resolve(e.Cfg.Workers) }

// rangePairs enumerates the pairs of pts within distance r of each other in
// canonical ascending (A, B) order, through the sharded scanner when
// Cfg.Shards > 1 and the single spatial index otherwise. Both paths produce
// the identical pair sequence (the sharded merge restores canonical order
// and applies the same in-range predicate), so callers are oblivious to the
// topology. The result aliases e.pairScratch.
func (e *Engine) rangePairs(pts []geom.Point, r float64) []spatial.Pair {
	if e.shardScan != nil {
		e.pairScratch = e.shardScan.Scan(e.pairScratch[:0], pts, r)
		if e.obs != nil {
			for _, st := range e.shardScan.Stats() {
				e.obs.Count(telemetry.MShardScans, 1)
				e.obs.Count(telemetry.MShardPairs, int64(st.Pairs))
				e.obs.Count(telemetry.MShardGuests, int64(st.Guests))
				e.obs.Observe(telemetry.MShardLocals, float64(st.Locals))
			}
		}
		return e.pairScratch
	}
	e.spatialIdx.Rebuild(pts)
	e.pairScratch = e.spatialIdx.Pairs(e.pairScratch[:0], r)
	return e.pairScratch
}

// dueTickEps bounds how close the tick-offset quotient must sit to an
// integer before dueTick refuses to round it up: far wider than any float
// drift the accumulated e.now can carry, far narrower than a real schedule
// offset.
const dueTickEps = 1e-7

// dueTick maps a virtual due time onto the calendar's integer tick key:
// the first tick whose now reaches at — the ceiling of the tick offset —
// except within dueTickEps of an integer quotient, where float error could
// over-round and fire a tick LATE (after the vehicle came due); there it
// conservatively floors instead. A conservative-early pop is always
// safe: calendarDue re-checks nextTrain against now and re-enqueues.
func (e *Engine) dueTick(at float64) int64 {
	if at <= e.now {
		return e.tickIndex
	}
	q := (at - e.now) * e.invTick
	k := int64(q)
	if q-float64(k) > dueTickEps {
		k++
	}
	return e.tickIndex + k
}

// reDueTick is dueTick for re-enqueues from the current tick's pop: at
// least one tick ahead, so a conservative-early pop cannot respin in place.
func (e *Engine) reDueTick(at float64) int64 {
	if t := e.dueTick(at); t > e.tickIndex {
		return t
	}
	return e.tickIndex + 1
}

// calendarDue discovers the tick's due set by popping the calendar queue:
// O(1) on an idle tick, O(due) otherwise — the due set a per-tick scan of
// the whole fleet would find, at none of its O(fleet) cost. Popped ids
// arrive in ascending vehicle order and each is re-checked against its
// float due time: a conservative-early pop goes back on the wheel, and a
// departed vehicle's schedule advances past now before it is re-enqueued
// for its post-absence step, so it skips its due steps (the model stays
// frozen, and stale on rejoin) without burst-training on return — churn
// moves wheel entries forward, it never strands or leaks them.
func (e *Engine) calendarDue(due []int32) ([]int32, int) {
	popped, buckets := e.calendar.PopDue(e.tickIndex, e.popScratch[:0])
	e.popScratch = popped
	if e.faults == nil {
		// Fault-free fast path: every on-time pop is due.
		for _, id := range popped {
			v := e.Vehicles[id]
			if v.nextTrain > e.now {
				e.calendar.Schedule(id, e.reDueTick(v.nextTrain))
				continue
			}
			due = append(due, id)
		}
		return due, buckets
	}
	for _, id := range popped {
		v := e.Vehicles[id]
		if v.nextTrain > e.now {
			e.calendar.Schedule(id, e.reDueTick(v.nextTrain))
			continue
		}
		if e.faults.Away(v.ID) {
			for v.nextTrain <= e.now {
				v.nextTrain += e.Cfg.TrainInterval
			}
			e.calendar.Schedule(id, e.reDueTick(v.nextTrain))
			continue
		}
		due = append(due, id)
	}
	return due, buckets
}

// dispatchPhase runs fn(i) for every position i in ids — a per-vehicle
// phase where each index touches only its own vehicle's state and writes
// results to index-addressed scratch. Sharded engines dispatch it as
// shard-major batches: ids grouped by owning grid region (the encounter
// scan's ownership), one parallel task per occupied region, so a batch's
// vehicles are spatially colocated — the layout a future multi-process
// shard split needs. Unsharded engines fan out per vehicle. Grouping only
// reorders execution; outputs reduce in canonical id order either way, so
// results are bit-identical at any workers × shards. Returns the number of
// shard batches dispatched (0 when unsharded).
func (e *Engine) dispatchPhase(ids []int32, fn func(i int)) int {
	if e.grouper == nil || len(ids) <= 1 {
		parallel.ForEach(e.workers(), len(ids), fn)
		return 0
	}
	// One contiguous row read covers every vehicle this tick; the copy into
	// scratch keeps the slice valid across the window's next Advance.
	pts := append(e.spatialPts[:0], e.Trace.RowAt(e.now)...)
	e.spatialPts = pts
	e.grouper.Group(ids, pts)
	batches := e.grouper.Batches()
	parallel.ForEach(e.workers(), batches, func(b int) {
		for _, pos := range e.grouper.Batch(b) {
			fn(int(pos))
		}
	})
	return batches
}

// stepDue runs vehicle dueIDs[i]'s pending local-SGD steps — the
// unobserved fast path: no outcome recording, no per-call scratch.
func (e *Engine) stepDue(i int) {
	v := e.Vehicles[e.dueIDs[i]]
	for v.nextTrain <= e.now {
		if batch := v.Data.SampleBatch(e.Cfg.BatchSize, v.rng); len(batch) > 0 {
			v.Policy.TrainStep(batch)
		}
		v.nextTrain += e.Cfg.TrainInterval
	}
}

// stepDueObserved is stepDue recording the vehicle's outcome (and wall
// time, when the sink takes side-channel metrics) into index-addressed
// stepScratch for trainTick's serial emission pass.
func (e *Engine) stepDueObserved(i int) {
	v := e.Vehicles[e.dueIDs[i]]
	var out stepOutcome
	var start time.Time
	if e.obs != nil {
		start = time.Now()
	}
	for v.nextTrain <= e.now {
		batch := v.Data.SampleBatch(e.Cfg.BatchSize, v.rng)
		if len(batch) > 0 {
			out.loss = v.Policy.TrainStep(batch)
			out.steps++
		}
		v.nextTrain += e.Cfg.TrainInterval
	}
	if e.obs != nil {
		out.wallNs = time.Since(start).Nanoseconds()
	}
	e.stepScratch[i] = out
}

// trainTick runs every vehicle's due local-SGD steps. Each vehicle touches
// only its own policy, dataset cursor, and private RNG stream, so the due
// vehicles train concurrently; training order across vehicles never mattered
// (no shared state), so the result is bit-identical to the serial loop.
func (e *Engine) trainTick() {
	due, buckets := e.calendarDue(e.dueIDs[:0])
	e.dueIDs = due
	if len(due) == 0 {
		if e.obs != nil {
			e.countSched(0, buckets, 0)
		}
		return
	}
	// With telemetry on, the parallel phase records each vehicle's outcome
	// into index-addressed scratch; events are then emitted serially in
	// vehicle-index order so the stream is identical at every worker count.
	// The two phase bodies are pre-bound methods (stepFn/stepObsFn), not
	// per-tick closures, so a quiet tick allocates nothing.
	fn := e.stepFn
	if e.tel != nil {
		if cap(e.stepScratch) < len(due) {
			e.stepScratch = make([]stepOutcome, len(due))
		}
		fn = e.stepObsFn
	}
	batches := e.dispatchPhase(due, fn)
	if e.obs != nil {
		e.countSched(len(due), buckets, batches)
	}
	// Re-enqueue each stepped vehicle at its next due tick, serially — the
	// wheel is single-writer scratch like every engine index.
	for _, id := range due {
		e.calendar.Schedule(id, e.reDueTick(e.Vehicles[id].nextTrain))
	}
	if e.tel == nil {
		return
	}
	for i, id := range due {
		out := e.stepScratch[i]
		if out.steps == 0 {
			continue
		}
		e.tel.Emit(telemetry.TrainStep{Time: e.now, Vehicle: e.Vehicles[id].ID, Steps: out.steps, Loss: out.loss})
		if e.obs != nil {
			e.obs.Observe(telemetry.MTrainWallNs, float64(out.wallNs))
		}
	}
}

// countSched counts one phase's scheduling work — due vehicles dequeued,
// wheel buckets examined, shard-major batches dispatched — on the Metrics
// side channel; each call creates all three counters, zeros included.
func (e *Engine) countSched(due, buckets, batches int) {
	e.obs.Count(telemetry.MSchedDueDequeued, int64(due))
	e.obs.Count(telemetry.MSchedBucketsTouched, int64(buckets))
	e.obs.Count(telemetry.MSchedShardBatches, int64(batches))
}

// probeLossMean evaluates every vehicle on the probe set (in parallel — the
// probe is read-only and each policy is private, dispatched shard-major on
// sharded engines) and reduces the losses from the engine-held scratch in
// vehicle-index order, so the float sum is bit-identical at any worker and
// shard count and steady-state probes allocate nothing.
func (e *Engine) probeLossMean() float64 {
	n := len(e.Vehicles)
	if cap(e.lossScratch) < n {
		e.lossScratch = make([]float64, n)
	}
	losses := e.lossScratch[:n]
	batches := e.dispatchPhase(e.allIDs, e.probeFn)
	if e.obs != nil && batches > 0 {
		e.countSched(0, 0, batches)
	}
	var sum float64
	for _, l := range losses {
		sum += l
	}
	return sum / float64(n)
}

// probeOne evaluates vehicle i on the probe set into the loss scratch.
func (e *Engine) probeOne(i int) {
	e.lossScratch[i] = e.Vehicles[i].Policy.Loss(e.Probe)
}

func (e *Engine) recordLoss() {
	if len(e.Probe) == 0 {
		return
	}
	loss := e.probeLossMean()
	e.LossCurve.Add(e.now, loss)
	if e.tel != nil {
		e.tel.Emit(telemetry.LossRecorded{Time: e.now, Loss: loss})
	}
}

// AvgProbeLoss returns the fleet's current mean loss on the probe set.
func (e *Engine) AvgProbeLoss() float64 {
	if len(e.Probe) == 0 {
		return math.NaN()
	}
	return e.probeLossMean()
}

// Distance returns the current distance between two vehicles.
func (e *Engine) Distance(a, b int) float64 {
	return e.Trace.Distance(a, b, e.now)
}

// Contact estimates the remaining contact duration between two vehicles
// from their shared routes.
func (e *Engine) Contact(a, b int) float64 {
	return e.Trace.ContactDuration(a, b, e.now, e.Radio.Params.MaxRangeMeters, e.Cfg.ContactHorizon)
}

// Neighbors returns vehicle IDs currently within radio range of v.
func (e *Engine) Neighbors(v int) []int {
	return e.Trace.Neighbors(v, e.now, e.Radio.Params.MaxRangeMeters)
}

// FleetReceiveStats aggregates the model-receive counters across vehicles.
func (e *Engine) FleetReceiveStats() metrics.ReceiveStats {
	var s metrics.ReceiveStats
	for _, v := range e.Vehicles {
		s.Merge(v.Recv)
	}
	return s
}

// SimulateTransfer plays a payload transfer from vehicle a to vehicle b
// starting now, bounded by deadline seconds, over the live trace geometry.
// The payload is reported to telemetry as a model transfer; use
// SimulateTransferPayload to label coreset payloads.
func (e *Engine) SimulateTransfer(bytes, a, b int, deadline float64) radio.TransferResult {
	return e.SimulateTransferPayload(telemetry.PayloadModel, bytes, a, b, deadline)
}

// SimulateTransferPayload is SimulateTransfer with an explicit telemetry
// payload label (telemetry.PayloadModel or telemetry.PayloadCoreset).
func (e *Engine) SimulateTransferPayload(payload string, bytes, a, b int, deadline float64) radio.TransferResult {
	start := e.now
	bw := math.Min(e.Vehicles[a].Bandwidth, e.Vehicles[b].Bandwidth)
	dist := func(elapsed float64) float64 { return e.Trace.Distance(a, b, start+elapsed) }
	// With bursts configured, layer the link's episode timeline over the
	// loss table and remember the strongest boost the transfer saw.
	var boost func(elapsed float64) float64
	var burstPER float64
	if e.faults != nil {
		if link := e.faults.LinkBoost(a, b); link != nil {
			boost = func(elapsed float64) float64 {
				p := link(start + elapsed)
				if p > burstPER {
					burstPER = p
				}
				return p
			}
		}
	}
	res := e.Radio.SimulateTransferPerturbed(bytes, dist, boost, bw, deadline, e.rng)
	if burstPER > 0 {
		e.Emit(telemetry.FaultInjected{Time: e.now, Fault: telemetry.FaultBurstLoss, A: a, B: b, Value: burstPER})
	}
	if e.tel != nil {
		e.tel.Emit(telemetry.Transfer{
			Time: e.now, From: a, To: b, Payload: payload,
			BytesRequested: bytes, BytesDelivered: res.BytesDelivered,
			Completed: res.Completed, Elapsed: res.Elapsed, Truncated: res.Truncated,
		})
	}
	return res
}

// RNG returns the engine's own random stream (pairing decisions etc.).
func (e *Engine) RNG() *simrand.Rand { return e.rng }

// ModelWireBytes returns the over-the-air size of one uncompressed model
// (the paper-scale S of the compression ratio φ = S/S_c).
func (e *Engine) ModelWireBytes() int { return e.Cfg.PaperModelBytes }

// CompressedModelBytes returns the over-the-air size of a model compressed
// to level ψ.
func (e *Engine) CompressedModelBytes(psi float64) int {
	if psi <= 0 {
		return 0
	}
	if psi > 1 {
		psi = 1
	}
	return int(psi * float64(e.Cfg.PaperModelBytes))
}

// CoresetWireBytes returns the over-the-air size of a coreset: frames × the
// paper's per-frame size.
func (e *Engine) CoresetWireBytes(frames int) int {
	return frames * e.Cfg.PaperFrameBytes
}

// CompressionScheme identifies a model-payload compression method.
type CompressionScheme int

// Compression schemes.
const (
	// SchemeTopK is top-k delta sparsification with index-value encoding
	// (the paper's default, [22][23]).
	SchemeTopK CompressionScheme = iota
	// SchemeQuantize is unbiased stochastic uniform quantization of the
	// delta, with the bit width chosen to meet the ψ byte budget.
	SchemeQuantize
)

// CompressReconstruct compresses a model to relative payload size ψ under
// the configured scheme and returns the receiver-side reconstruction. This
// is what every exchange path uses: the sender evaluates exactly what the
// receiver will materialize.
func (e *Engine) CompressReconstruct(flat []float64, psi float64) []float64 {
	if psi <= 0 {
		return nil
	}
	if e.Cfg.CompressionScheme == SchemeQuantize {
		delta := make([]float64, len(flat))
		for i, v := range flat {
			delta[i] = v - e.initFlat[i]
		}
		bits := int(psi*32 + 0.5)
		if bits < 1 {
			bits = 1
		}
		if bits > compress.MaxQuantBits {
			bits = compress.MaxQuantBits
		}
		q, err := compress.Quantize(delta, bits, e.rng)
		if err != nil {
			return nil
		}
		out := append([]float64(nil), e.initFlat...)
		for i, dv := range q.Dense() {
			out[i] += dv
		}
		return out
	}
	return e.ReconstructDelta(e.CompressDelta(flat, psi))
}

// CompressDelta top-k sparsifies a model's DELTA from the fleet's shared
// initialization at level ψ. Vehicles exchange sparsified deltas rather than
// raw parameters: every peer holds the same initialization (§II-A), so a
// receiver reconstructs the compressed model exactly, and dropping small
// delta coordinates degrades the model far more gracefully than zeroing raw
// weights [22].
func (e *Engine) CompressDelta(flat []float64, psi float64) *compress.Sparse {
	if cap(e.deltaScratch) < len(flat) {
		e.deltaScratch = make([]float64, len(flat))
	}
	delta := e.deltaScratch[:len(flat)]
	for i, v := range flat {
		delta[i] = v - e.initFlat[i]
	}
	keep := psi
	if c := e.Cfg.CompressionConcentration; c > 0 && c != 1 && psi > 0 && psi < 1 {
		keep = math.Pow(psi, c)
	}
	return compress.TopK(delta, int(keep*float64(len(delta))))
}

// ReconstructDelta materializes a model from a sparsified delta:
// x̂ = x_init + sparse(Δ).
func (e *Engine) ReconstructDelta(sp *compress.Sparse) []float64 {
	out := append([]float64(nil), e.initFlat...)
	for i, idx := range sp.Indices {
		out[idx] += sp.Values[i]
	}
	return out
}

package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"strings"

	"lbchat/internal/core"
	"lbchat/internal/eval"
	"lbchat/internal/experiments"
	"lbchat/internal/geom"
	"lbchat/internal/metrics"
	"lbchat/internal/model"
	"lbchat/internal/radio"
	"lbchat/internal/shard"
	"lbchat/internal/spatial"
	"lbchat/internal/telemetry"
	"lbchat/internal/trace"
	"lbchat/internal/world"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	// setup generates the workload's inputs from the seed. dir is a
	// scratch directory the instance may write files into.
	setup func(ctx context.Context, seed uint64, z sizes, dir string) (instance, error)
}

// preparer is an instance that must reset its inputs before each
// iteration; measure calls prepare outside the timed part.
type preparer interface {
	prepare()
}

// instance is a set-up workload, ready to run iterations.
type instance interface {
	// run executes one iteration. tr is nil on untraced iterations; on
	// traced ones the instance records its spans there and adds the
	// span-derived per-layer metrics to the outcome.
	run(ctx context.Context, tr *tracer) (outcome, error)
	close() error
}

// outcome is what one iteration produced.
type outcome struct {
	// digest covers every deterministic output; each iteration must
	// reproduce the first one's.
	digest uint64
	// layer holds the per-layer and quality metrics of the iteration.
	layer map[string]float64
	// verify, when non-nil, is an expensive output check run outside the
	// timed part, on the first iteration only (later ones must match its
	// digest).
	verify func() error
}

// workloads are the benchmark's workloads. BENCHMARK.json and the package
// doc say why each was chosen.
var workloads = []workload{
	{"lbchat-lossy", setupLossy},
	{"sco-stream", setupSCO},
	{"drive-eval", setupEval},
	{"fleetscan", setupFleet},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes fixes how much work each workload does per iteration.
type sizes struct {
	// base sizes the co-simulation environments: traffic, data
	// collection, probe set and driving suite.
	base experiments.Scale

	lossyVehicles int
	lossyDuration float64

	scoVehicles int
	scoDuration float64

	evalTrainDuration float64
	evalTrials        int

	fleetVehicles int
	fleetTicks    int
	// oracleTicks is how many ticks of the first fleetscan iteration are
	// checked against the brute-force pair oracle.
	oracleTicks int
}

// benchSizes are the benchmark's sizes. The environment matches
// bench_test.go's benchScale (the BenchmarkLbChatWorkers1 sizing) except
// that the co-simulations run shorter and the trace is cut to what they
// read, so one iteration takes seconds.
func benchSizes() sizes {
	base := experiments.BenchScale()
	base.Vehicles = 6
	base.CollectTicks = 900
	base.ProbeFrames = 64
	base.EvalTrials = 8
	base.EvalFleetSample = 2
	base.RoutesPerCondition = 5
	return sizes{
		base:          base,
		lossyVehicles: 6, lossyDuration: 300,
		scoVehicles: 12, scoDuration: 150,
		evalTrainDuration: 400, evalTrials: 12,
		fleetVehicles: 10240, fleetTicks: 60, oracleTicks: 3,
	}
}

// smokeSizes shrink every workload to a fraction of a second per
// iteration, for tests.
func smokeSizes() sizes {
	base := experiments.TestScale()
	base.CollectTicks = 120
	base.ProbeFrames = 16
	base.RoutesPerCondition = 1
	return sizes{
		base:          base,
		lossyVehicles: 3, lossyDuration: 60,
		scoVehicles: 4, scoDuration: 40,
		evalTrainDuration: 20, evalTrials: 1,
		fleetVehicles: 256, fleetTicks: 6, oracleTicks: 2,
	}
}

const (
	// envSeed generates every co-simulation environment and the
	// drive-eval fleet; the package doc says why it is not the workload
	// seed.
	envSeed = 7
	// scoShards is sco-stream's shard count.
	scoShards = 2
	// evalTrainVehicles is the size of the fleet drive-eval trains, and
	// evalFleetSample how many of its policies the rollouts drive.
	evalTrainVehicles = 2
	evalFleetSample   = 1
)

// traceMarginTicks is how far past a co-simulation's end the recorded
// trace reaches: the engine reads up to ContactHorizon + TimeBudget + one
// tick (136 s at the defaults) ahead of its clock, 272 ticks at 2 fps.
const traceMarginTicks = 400

// scale returns the co-simulation environment for one workload.
func (z sizes) scale(vehicles int, duration float64) experiments.Scale {
	s := z.base
	s.Seed = envSeed
	s.Vehicles = vehicles
	s.TrainDuration = duration
	s.TraceTicks = int(2*duration) + traceMarginTicks
	s.Workers = 1
	return s
}

// cosim is a co-simulation workload: one protocol training a fleet.
type cosim struct {
	env      *experiments.Env
	name     experiments.ProtocolName
	newProto func() core.Protocol
	lossless bool
	// seed seeds the engine's random streams.
	seed uint64
	// tracePath, when set, is the LBTC file each iteration pages its
	// trace from through a bounded window; otherwise the env's resident
	// trace is used.
	tracePath string
}

func setupLossy(_ context.Context, seed uint64, z sizes, _ string) (instance, error) {
	env, err := experiments.BuildEnv(z.scale(z.lossyVehicles, z.lossyDuration))
	if err != nil {
		return nil, err
	}
	return &cosim{env: env, seed: seed, name: experiments.ProtoLbChat, newProto: func() core.Protocol { return core.NewLbChat() }}, nil
}

func setupSCO(_ context.Context, seed uint64, z sizes, dir string) (instance, error) {
	s := z.scale(z.scoVehicles, z.scoDuration)
	s.Shards = scoShards
	env, err := experiments.BuildEnv(s)
	if err != nil {
		return nil, err
	}
	path, err := writeLBTC(env.Trace, dir)
	if err != nil {
		env.Close()
		return nil, err
	}
	return &cosim{
		env: env, seed: seed, name: experiments.ProtoSCO, newProto: func() core.Protocol { return core.NewSCO() },
		lossless: true, tracePath: path,
	}, nil
}

// writeLBTC spills a resident trace to an LBTC file in dir.
func writeLBTC(src trace.Source, dir string) (string, error) {
	tr, ok := src.(*trace.Trace)
	if !ok {
		return "", fmt.Errorf("env trace is %T, want a resident *trace.Trace", src)
	}
	f, err := os.CreateTemp(dir, "trace-*.lbtc")
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	err = tr.Encode(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", fmt.Errorf("writing LBTC trace: %w", err)
	}
	return f.Name(), nil
}

func (c *cosim) close() error {
	err := c.env.Close()
	if c.tracePath != "" {
		if rerr := os.Remove(c.tracePath); err == nil {
			err = rerr
		}
	}
	return err
}

// cosimRun is one co-simulation's outputs.
type cosimRun struct {
	curve metrics.Curve
	recv  metrics.ReceiveStats
	comm  *telemetry.Summary
	fleet []*model.Policy
}

func (c *cosim) run(ctx context.Context, tr *tracer) (outcome, error) {
	root := int32(noParent)
	if tr != nil {
		root = tr.open(spanIteration, noParent)
	}
	r, err := c.train(ctx, tr, root)
	if tr != nil {
		tr.close(root)
	}
	if err != nil {
		return outcome{}, err
	}
	out := outcome{digest: r.digest(), layer: r.layers()}
	if tr != nil {
		s := tr.summary(spanTick)
		chat := s.seconds(spanChat)
		out.layer["core.chat_busy_s"] = chat
		out.layer["core.chat_us"] = ratio(chat*1e6, out.layer["core.chat_sessions"])
		out.layer["core.other_s"] = s.seconds(spanIteration) - out.layer["model.train_busy_s"] - chat
		addTickStats(out.layer, s.durs[spanTick])
		out.layer["trace.fetch_busy_s"] = s.seconds(spanFetch)
	}
	return out, r.check()
}

// addTickStats reports the tick-time median and tail in microseconds.
func addTickStats(layer map[string]float64, ticks []float64) {
	layer["core.ticks"] = float64(len(ticks))
	layer["core.tick_p50_us"] = median(ticks) / 1e3
	if p, ok := tailPercentile(len(ticks)); ok {
		layer["core.tick_tail_us"] = percentile(ticks, p) / 1e3
	} else {
		layer["core.tick_tail_us"] = percentile(ticks, 100) / 1e3
	}
}

// train runs one co-simulation. Untraced runs on a resident trace go
// through experiments.Run, the path the CLIs and BenchmarkLbChatWorkers1
// take; traced and streamed runs build the engine directly so decorators
// can sit at the layer boundaries. Both paths must give the same digest.
func (c *cosim) train(ctx context.Context, tr *tracer, root int32) (*cosimRun, error) {
	if tr == nil && c.tracePath == "" {
		res, err := experiments.Run(ctx, experiments.Spec{
			Experiment: experiments.ExpProtocol, Protocol: c.name, Lossless: c.lossless, Env: c.env,
			Config: func(cfg *core.Config) { cfg.Seed = c.seed },
		})
		if err != nil {
			return nil, err
		}
		if res.Canceled {
			return nil, ctx.Err()
		}
		run := res.Runs[0]
		return &cosimRun{curve: run.Curve, recv: run.Recv, comm: run.Comm, fleet: run.Fleet}, nil
	}
	cfg := c.env.Cfg
	cfg.Seed = c.seed
	sum := telemetry.NewSummary()
	cfg.Telemetry = sum
	src := c.env.Trace
	if c.tracePath != "" {
		fs, err := trace.OpenFileSource(c.tracePath)
		if err != nil {
			return nil, err
		}
		defer fs.Close()
		var cs trace.ChunkSource = fs
		if tr != nil {
			cs = timedChunks{ChunkSource: fs, tr: tr}
		}
		win := trace.NewWindowSource(cs, trace.WindowConfig{Prefetch: true})
		defer win.Close()
		src = win
	}
	proto := c.newProto()
	var timed *timedProtocol
	if tr != nil {
		timed = &timedProtocol{Protocol: proto, tr: tr, root: root, tick: noParent}
		proto = timed
	}
	eng, err := core.NewEngine(cfg, src, c.env.FreshDatasets(), radio.NewModel(c.lossless), c.env.Probe)
	if err != nil {
		return nil, err
	}
	err = eng.RunContext(ctx, proto, c.env.Scale.TrainDuration)
	if timed != nil {
		timed.finish()
	}
	if err != nil {
		return nil, err
	}
	r := &cosimRun{curve: eng.LossCurve, recv: eng.FleetReceiveStats(), comm: sum}
	for _, v := range eng.Vehicles {
		r.fleet = append(r.fleet, v.Policy)
	}
	return r, nil
}

// deterministicMetric reports whether a Summary metric is a program
// output that must repeat bit for bit. Wall times and the trace window's
// chunk traffic, which follows the prefetcher's timing, are not.
func deterministicMetric(name string) bool {
	return name != telemetry.MTrainWallNs && !strings.HasPrefix(name, "trace.")
}

func (r *cosimRun) digest() uint64 {
	d := newDigest()
	for _, p := range r.curve.Points {
		d.float(p.Time)
		d.float(p.Value)
	}
	d.int(int64(r.recv.Attempts))
	d.int(int64(r.recv.Successes))
	reg := r.comm.Reg
	for _, name := range reg.CounterNames() {
		if deterministicMetric(name) {
			d.str(name)
			d.int(reg.Counter(name))
		}
	}
	for _, name := range reg.HistNames() {
		if deterministicMetric(name) {
			h := reg.Hist(name)
			d.str(name)
			for _, c := range h.Counts {
				d.int(c)
			}
			d.float(h.Sum)
		}
	}
	for _, p := range r.fleet {
		d.floats(p.Flat())
	}
	return d.sum()
}

// check verifies the run's outputs are sane: a finite, positive loss
// curve, receive counts within their attempts, no more chats completed
// than started, and finite model parameters.
func (r *cosimRun) check() error {
	if len(r.curve.Points) == 0 {
		return errors.New("empty loss curve")
	}
	for _, p := range r.curve.Points {
		if !(p.Value > 0) || math.IsInf(p.Value, 0) {
			return fmt.Errorf("probe loss %v at t=%gs", p.Value, p.Time)
		}
	}
	if r.recv.Successes < 0 || r.recv.Successes > r.recv.Attempts {
		return fmt.Errorf("receive stats %d/%d", r.recv.Successes, r.recv.Attempts)
	}
	if initiated, completed, _ := r.comm.Chats(); completed > initiated {
		return fmt.Errorf("%d chats completed of %d initiated", completed, initiated)
	}
	for i, p := range r.fleet {
		for _, x := range p.Flat() {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("vehicle %d has non-finite parameters", i)
			}
		}
	}
	return nil
}

// layers returns the per-layer metrics the program counted itself, in
// its telemetry summary, and the run's quality.
func (r *cosimRun) layers() map[string]float64 {
	reg := r.comm.Reg
	counter := func(name string) float64 { return float64(reg.Counter(name)) }
	steps := counter(telemetry.MTrainSteps)
	trainNs := histSum(reg, telemetry.MTrainWallNs)
	initiated, completed, _ := r.comm.Chats()
	rebuilt, cached := counter(telemetry.MCoresetLeavesRebuilt), counter(telemetry.MCoresetLeavesCached)
	return map[string]float64{
		"final_mloss": 1000 * r.curve.Final(),
		"recv_rate":   receiveRate(r.recv),

		"model.train_steps":   steps,
		"model.train_busy_s":  trainNs / 1e9,
		"model.train_step_us": ratio(trainNs/1e3, steps),

		"core.chat_sessions":        float64(initiated),
		"core.chat_completed_ratio": ratio(float64(completed), float64(initiated)),

		"coreset.leaves_rebuilt":  rebuilt,
		"coreset.leaves_cached":   cached,
		"coreset.cache_hit_ratio": ratio(cached, rebuilt+cached),
		"coreset.absorbed_frames": counter(telemetry.MCoresetAbsorbFrames),

		"radio.bytes_on_air": histSum(reg, telemetry.MTransferBytes),
		"radio.truncated":    counter(telemetry.MTransferTruncate),

		"sched.due_dequeued":    counter(telemetry.MSchedDueDequeued),
		"sched.buckets_touched": counter(telemetry.MSchedBucketsTouched),

		"trace.fetch_wait_s": counter(telemetry.MTraceFetchWaitNs) / 1e9,
		"trace.chunk_loads":  counter(telemetry.MTraceLoads),

		"shard.pairs": counter(telemetry.MShardPairs),
	}
}

// histSum returns the sum of a Summary histogram's observations (0 when
// nothing was observed).
func histSum(reg *telemetry.Registry, name string) float64 {
	if h := reg.Hist(name); h != nil {
		return h.Sum
	}
	return 0
}

// receiveRate is the model receive rate in percent, 0 when no model was
// sent (coreset-only sharing).
func receiveRate(s metrics.ReceiveStats) float64 {
	if s.Attempts == 0 {
		return 0
	}
	return 100 * s.Rate()
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// driveEval is the driving-evaluation workload.
type driveEval struct {
	env   *experiments.Env
	fleet []*model.Policy
	// trainLoss and trainRecv are the fleet's training quality.
	trainLoss, trainRecv float64
}

// setupEval trains the fleet drive-eval drives. It ignores the workload
// seed: a rollout lasts until the policy crashes, strays or arrives, so
// rollouts drawn from different seeds differ in length, and the eval's
// work with them (over five seeds at 60 rollouts, run time had an
// interquartile range of 21% of its median). Fleet, routes and traffic
// all come from envSeed.
func setupEval(ctx context.Context, _ uint64, z sizes, _ string) (instance, error) {
	s := z.scale(evalTrainVehicles, z.evalTrainDuration)
	s.EvalTrials = z.evalTrials
	s.EvalFleetSample = evalFleetSample
	env, err := experiments.BuildEnv(s)
	if err != nil {
		return nil, err
	}
	res, err := experiments.Run(ctx, experiments.Spec{Experiment: experiments.ExpProtocol, Protocol: experiments.ProtoLbChat, Env: env})
	if err == nil && res.Canceled {
		err = ctx.Err()
	}
	if err != nil {
		env.Close()
		return nil, err
	}
	run := res.Runs[0]
	return &driveEval{
		env: env, fleet: run.Fleet,
		trainLoss: 1000 * run.Curve.Final(), trainRecv: receiveRate(run.Recv),
	}, nil
}

func (d *driveEval) close() error { return d.env.Close() }

func (d *driveEval) run(_ context.Context, tr *tracer) (outcome, error) {
	var rates map[eval.Condition]float64
	if tr == nil {
		rates = d.env.EvalFleet(d.fleet)
	} else {
		rates = d.tracedEvalFleet(tr)
	}
	dg := newDigest()
	var sum float64
	var bad error
	for _, cond := range eval.Conditions {
		r := rates[cond]
		dg.float(r)
		sum += r
		if !(r >= 0 && r <= 100) && bad == nil {
			bad = fmt.Errorf("success rate %v for %v", r, cond)
		}
	}
	s := d.env.Scale
	out := outcome{digest: dg.sum(), layer: map[string]float64{
		"success_pct": sum / float64(len(eval.Conditions)),
		"final_mloss": d.trainLoss,
		"recv_rate":   d.trainRecv,
		"eval.trials": float64(len(eval.Conditions) * d.sample() * s.EvalTrials),
	}}
	if tr != nil {
		sp := tr.summary()
		steps := float64(sp.count[spanPredict])
		predict := sp.seconds(spanPredict)
		out.layer["eval.control_steps"] = steps
		out.layer["eval.predict_busy_s"] = predict
		out.layer["eval.predict_us"] = ratio(predict*1e6, steps)
		out.layer["eval.sim_busy_s"] = sp.selfSeconds(spanEvalRate)
		out.layer["eval.step_us"] = ratio(sp.seconds(spanEvalRate)*1e6, steps)
	}
	return out, bad
}

func (d *driveEval) sample() int {
	return max(1, min(d.env.Scale.EvalFleetSample, len(d.fleet)))
}

// tracedEvalFleet is Env.EvalFleet at one worker with a timed driver: the
// same policies, trials and seeds, so its rates must equal EvalFleet's
// bit for bit (the digest check enforces it).
func (d *driveEval) tracedEvalFleet(tr *tracer) map[eval.Condition]float64 {
	s := d.env.Scale
	ev := eval.NewEvaluator(d.env.Suite)
	ev.NormalTraffic = world.SpawnConfig{BackgroundCars: s.BackgroundCars, Pedestrians: s.Pedestrians}
	root := tr.open(spanIteration, noParent)
	defer tr.close(root)
	sample := d.sample()
	out := make(map[eval.Condition]float64, len(eval.Conditions))
	for _, cond := range eval.Conditions {
		var sum float64
		for k := 0; k < sample; k++ {
			idx := k * len(d.fleet) / sample
			seed := s.Seed*1_000_003 + uint64(k)*501 + uint64(cond)*77
			id := tr.open(spanEvalRate, root)
			sum += ev.SuccessRate(timedDriver{Driver: d.fleet[idx].Clone(), tr: tr, parent: id}, cond, s.EvalTrials, seed)
			tr.close(id)
		}
		out[cond] = sum / float64(sample)
	}
	return out
}

// fleetScanDensityCell mirrors the fleetscan experiment's arena scaling:
// one vehicle per 250 m × 250 m, so the in-range neighbourhood stays the
// same at any fleet size.
const fleetScanDensityCell = 250.0

// fleetScan is the contact-scan workload: experiments.ExpFleetScan's
// unsharded loop (fleet tick, resident trace append, index rebuild, pair
// enumeration), driven from here so each tick's pairs can be checked.
type fleetScan struct {
	seed         uint64
	n, ticks     int
	side, radius float64
	oracleTick   map[int]bool
	// verified is set once an iteration's pairs went through the oracle;
	// later iterations stop copying their oracle ticks, since they are
	// checked by digest only.
	verified bool
	// fleet is the pristine fleet the next iteration ticks.
	fleet *shard.Fleet
}

func setupFleet(_ context.Context, seed uint64, z sizes, _ string) (instance, error) {
	f := &fleetScan{
		seed: seed, n: z.fleetVehicles, ticks: z.fleetTicks,
		side:       fleetScanDensityCell * math.Sqrt(float64(z.fleetVehicles)),
		radius:     radio.NewModel(false).Params.MaxRangeMeters,
		oracleTick: map[int]bool{},
	}
	for k := 0; k < z.oracleTicks; k++ {
		f.oracleTick[k*(f.ticks-1)/max(1, z.oracleTicks-1)] = true
	}
	f.prepare()
	return f, nil
}

// prepare generates the fleet the next iteration ticks, outside the timed
// part, as experiments.ExpFleetScan does before it starts its clock. The
// fleet is the workload's input, regenerated from the seed for every
// iteration because ticking mutates it.
func (f *fleetScan) prepare() {
	if f.fleet == nil {
		f.fleet = shard.NewFleet(f.seed, f.n, f.side)
	}
}

func (f *fleetScan) close() error { return nil }

const fleetScanDT = 0.5

// run ticks the fleet the last prepare generated.
func (f *fleetScan) run(ctx context.Context, tr *tracer) (outcome, error) {
	root := int32(noParent)
	if tr != nil {
		root = tr.open(spanIteration, noParent)
	}
	fleet := f.fleet
	f.fleet = nil
	ix := spatial.New(f.radius)
	resident := trace.New(fleetScanDT, f.n)
	var pairs []spatial.Pair
	type snapshot struct {
		pts   []geom.Point
		pairs []spatial.Pair
	}
	var snaps []snapshot
	var h uint64
	total := 0
	for t := 0; t < f.ticks; t++ {
		if err := ctx.Err(); err != nil {
			return outcome{}, err
		}
		var id int32
		if tr != nil {
			id = tr.open(spanFleetTick, root)
		}
		fleet.Tick(fleetScanDT, 1)
		if tr != nil {
			tr.close(id)
		}
		pts := fleet.Positions()
		copy(resident.AppendRow(), pts)
		if tr != nil {
			id = tr.open(spanRebuild, root)
		}
		ix.Rebuild(pts)
		if tr != nil {
			tr.close(id)
			id = tr.open(spanPairs, root)
		}
		pairs = ix.Pairs(pairs[:0], f.radius)
		if tr != nil {
			tr.close(id)
		}
		for _, p := range pairs {
			h = h*1_000_003 + (uint64(p.A)<<32 | uint64(p.B))
		}
		total += len(pairs)
		if !f.verified && f.oracleTick[t] {
			snaps = append(snaps, snapshot{append([]geom.Point(nil), pts...), append([]spatial.Pair(nil), pairs...)})
		}
	}
	if tr != nil {
		tr.close(root)
	}
	d := newDigest()
	d.int(int64(h))
	d.int(int64(total))
	d.int(int64(resident.NumTicks()))
	out := outcome{digest: d.sum(), layer: map[string]float64{
		"spatial.pairs_per_tick": float64(total) / float64(f.ticks),
	}}
	if tr != nil {
		s := tr.summary()
		scan := s.seconds(spanRebuild) + s.seconds(spanPairs)
		out.layer["spatial.scan_busy_s"] = scan
		out.layer["spatial.scan_us_per_tick"] = scan * 1e6 / float64(f.ticks)
		out.layer["shard.fleet_tick_busy_s"] = s.seconds(spanFleetTick)
	}
	out.verify = func() error {
		f.verified = true
		for _, s := range snaps {
			if err := checkPairs(s.pts, s.pairs, f.radius); err != nil {
				return err
			}
		}
		return nil
	}
	if total == 0 {
		return out, errors.New("fleet scan found no pairs")
	}
	return out, nil
}

// checkPairs compares an index's pair list with the O(n²) brute-force
// enumeration over the shared in-range predicate, in canonical order.
func checkPairs(pts []geom.Point, got []spatial.Pair, r float64) error {
	rr := r * r
	k := 0
	for a := range pts {
		for b := a + 1; b < len(pts); b++ {
			if !spatial.WithinBall(pts[a], pts[b], r, rr) {
				continue
			}
			if k >= len(got) || got[k] != (spatial.Pair{A: a, B: b}) {
				return fmt.Errorf("pair %d: index and brute-force oracle disagree at (%d, %d)", k, a, b)
			}
			k++
		}
	}
	if k != len(got) {
		return fmt.Errorf("index found %d pairs, brute-force oracle %d", len(got), k)
	}
	return nil
}

// digest is an FNV-1a hash over the bit patterns of a run's outputs.
type digest struct {
	h   hash.Hash64
	buf []byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) int(v int64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf[:0], uint64(v))
	d.h.Write(d.buf)
}

func (d *digest) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d *digest) floats(vs []float64) {
	d.buf = d.buf[:0]
	for _, v := range vs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(v))
	}
	d.h.Write(d.buf)
}

func (d *digest) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

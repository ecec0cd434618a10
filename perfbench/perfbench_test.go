package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"lbchat/internal/experiments"
)

func TestMedianAndQuartiles(t *testing.T) {
	cases := []struct {
		xs         []float64
		med        float64
		q1, q2, q3 float64
	}{
		// Expected quartiles are Python's statistics.quantiles(xs, n=4).
		{[]float64{1, 2}, 1.5, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 2, 3},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 5.5, 8.25},
		{[]float64{10, 10, 10, 10, 10}, 10, 10, 10, 10},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n  int
		p  int
		ok bool
	}{
		{10, 0, false}, {19, 0, false}, {20, 50, true}, {100, 90, true},
		{800, 98, true}, {1000, 99, true}, {100000, 99, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, p, ok, c.p, c.ok)
		}
		if !ok {
			continue
		}
		// The rule itself: at least ten samples lie above the reported value.
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v := percentile(xs, p)
		if beyond := c.n - 1 - int(v); beyond < 10 {
			t.Errorf("n=%d p%d: %d samples beyond, want at least 10", c.n, p, beyond)
		}
		if p < 99 {
			if beyond := c.n - 1 - int(percentile(xs, p+1)); beyond >= 10 {
				t.Errorf("n=%d: p%d still has %d samples beyond; p%d is not the highest", c.n, p+1, beyond, p)
			}
		}
	}
}

// TestMetricsMatchManifest checks that every metric the benchmark emits
// is declared in BENCHMARK.json with the same unit and direction, and
// the reverse.
func TestMetricsMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var manifest struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := map[string]bool{}
	check := func(d decl, endToEnd bool) {
		declared[d.Name] = endToEnd
		if (d.Bound != nil) != endToEnd {
			t.Errorf("%s: bound present=%v, want %v", d.Name, d.Bound != nil, endToEnd)
		}
	}
	for _, d := range manifest.EndToEnd {
		check(d, true)
	}
	for _, d := range manifest.PerLayer {
		check(d, false)
	}
	emitted := map[string]bool{}
	for _, m := range metricDefs {
		if !valid.MatchString(m.name) {
			t.Errorf("metric name %q does not match %s", m.name, valid)
		}
		if emitted[m.name] {
			t.Errorf("metric %s defined twice", m.name)
		}
		emitted[m.name] = true
		endToEnd, ok := declared[m.name]
		if !ok {
			t.Errorf("metric %s is emitted but not declared in BENCHMARK.json", m.name)
			continue
		}
		if endToEnd != m.endToEnd {
			t.Errorf("metric %s: end_to_end=%v in BENCHMARK.json, %v here", m.name, endToEnd, m.endToEnd)
		}
	}
	for _, d := range append(manifest.EndToEnd, manifest.PerLayer...) {
		if !emitted[d.Name] {
			t.Errorf("metric %s is declared in BENCHMARK.json but never emitted", d.Name)
			continue
		}
		for _, m := range metricDefs {
			if m.name == d.Name && (m.unit != d.Unit || m.better != d.Better) {
				t.Errorf("metric %s: %s/%s in BENCHMARK.json, %s/%s here", d.Name, d.Unit, d.Better, m.unit, m.better)
			}
		}
	}
	var names []string
	for _, w := range manifest.Workloads {
		names = append(names, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %s is declared in BENCHMARK.json but not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json declares workloads %v, the benchmark implements %d", names, len(workloads))
	}
}

// TestScale runs every workload at smoke sizes, untraced and traced, and
// checks that it succeeds, that the traced iteration reproduces the
// untraced one bit for bit, and that each emits every metric of its kind.
// The held-out seed differs from the environment seed, so the engine seed
// must reach both the experiments.Run and the core.NewEngine path.
func TestScale(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			o := options{
				workload: w, seed: heldOutSeed, seconds: time.Millisecond, trace: true,
				spans: t.TempDir() + "/spans.jsonl", workdir: t.TempDir(), sizes: smokeSizes(),
			}
			res, err := measure(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted != 2 {
				t.Fatalf("attempted %d, failed %d: %v", res.attempted, res.failed, res.failures)
			}
			for _, trace := range []bool{false, true} {
				ms := res.metrics(trace)
				for _, m := range metricDefs {
					if _, ok := ms[m.name]; ok == (m.endToEnd == trace) {
						t.Errorf("trace=%v: metric %s present=%v", trace, m.name, ok)
					}
				}
			}
			e2e := res.metrics(false)
			for _, name := range []string{"setup_s", "run_cpu_s", "alloc_mb"} {
				if e2e[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, e2e[name].Value)
				}
			}
			if r := res.metrics(true)["bench.trace_overhead_ratio"].Value; r <= 0 {
				t.Errorf("trace overhead ratio %v", r)
			}
			if _, err := os.Stat(o.spans); err != nil {
				t.Errorf("spans not written: %v", err)
			}
		})
	}
}

// TestFleetScanMatchesExperiment checks that the fleetscan workload's
// replica of the experiment loop scans the same pairs as
// experiments.ExpFleetScan.
func TestFleetScanMatchesExperiment(t *testing.T) {
	z := smokeSizes()
	inst, err := setupFleet(context.Background(), 3, z, "")
	if err != nil {
		t.Fatal(err)
	}
	out, err := inst.run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.verify(); err != nil {
		t.Fatal(err)
	}
	res, err := experiments.Run(context.Background(), experiments.Spec{
		Experiment: experiments.ExpFleetScan, Vehicles: z.fleetVehicles, Seed: 3,
		Duration: float64(z.fleetTicks) * fleetScanDT, Workers: 1, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Table.Value("pairs per tick", "value")
	if got := out.layer["spatial.pairs_per_tick"]; got != want {
		t.Errorf("pairs per tick %v, experiment %v", got, want)
	}
}

// TestLbChatMatchesBenchmark checks that lbchat-lossy at bench_test.go's
// benchScale sizing runs the program BenchmarkLbChatWorkers1 runs: the
// same final probe loss. It trains for 1500 virtual seconds (tens of
// seconds of wall time), so -short skips it.
func TestLbChatMatchesBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("long co-simulation")
	}
	s := benchSizes().base
	s.TraceTicks = 9600
	s.TrainDuration = 1500
	s.Workers = 1
	env, err := experiments.BuildEnv(s)
	if err != nil {
		t.Fatal(err)
	}
	c := &cosim{env: env, seed: s.Seed, name: experiments.ProtoLbChat}
	defer c.close()
	out, err := c.run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// BenchmarkLbChatWorkers1 reports mloss 25.78 at this sizing.
	if got := out.layer["final_mloss"]; math.Abs(got-25.78) > 0.005 {
		t.Errorf("final_mloss %.4f, BenchmarkLbChatWorkers1 reports 25.78", got)
	}
}

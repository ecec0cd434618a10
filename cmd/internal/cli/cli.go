// Package cli collects the flag handling shared by the lbchat commands so
// -seed, -workers, -shards, -scale, -faults, -telemetry-out, -stream-trace,
// -trace-file, -trace-url, and -full-coreset-rebuild parse and behave
// identically everywhere.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"lbchat/internal/experiments"
	"lbchat/internal/faults"
	"lbchat/internal/telemetry"
	"lbchat/internal/tensor"
	"lbchat/internal/trace"
	"lbchat/internal/traceserve"
)

// Common holds the parsed shared flags.
type Common struct {
	// Seed is the root random seed (-seed). It only overrides the scale's
	// own seed when the flag was given explicitly, so e.g. -scale test
	// keeps its historical seed by default.
	Seed uint64
	// Workers bounds parallelism at every level (-workers); 0 = one per
	// CPU, 1 = serial. Results are bit-identical at any setting.
	Workers int
	// Shards partitions engine encounter scans into grid regions (-shards);
	// 0 or 1 keeps the single-index path. Results are bit-identical at any
	// setting.
	Shards int
	// ScaleName names the experiment scale (-scale): test, bench, full.
	ScaleName string
	// TelemetryOut is the JSONL event-stream output path (-telemetry-out);
	// empty disables the stream sink.
	TelemetryOut string
	// FaultsName names the fault-injection profile (-faults): off, light,
	// heavy (internal/faults). Resolve it with Faults.
	FaultsName string
	// FullCoresetRebuild selects the original full Algorithm-1 coreset
	// rebuild (-full-coreset-rebuild) instead of the default incremental
	// partition-tree refresh (DESIGN.md §14). Each arm is individually
	// bit-identical at any -workers/-shards setting.
	FullCoresetRebuild bool
	// StreamTrace drives engine runs from a bounded sliding-window trace
	// source (-stream-trace) instead of holding the whole mobility trace
	// resident. Results are bit-identical either way.
	StreamTrace bool
	// TraceFile loads the mobility trace from this LBTC file (-trace-file,
	// e.g. a worldgen -trace-out recording) instead of recording one; the
	// vehicle count is taken from the file. Resolve it with ApplyTrace.
	TraceFile string
	// TraceURL pages the mobility trace from a remote chunk server
	// (-trace-url, see cmd/trace-serve) instead of a local file. Remote
	// traces always stream through a sliding window; mutually exclusive
	// with -trace-file. Resolve it with ApplyTrace.
	TraceURL string

	fs *flag.FlagSet
}

// Register installs the shared flags on fs and returns the struct they
// parse into.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{fs: fs}
	fs.Uint64Var(&c.Seed, "seed", 7, "root random seed (default: the scale's own seed)")
	fs.IntVar(&c.Workers, "workers", 0,
		"parallel workers at every level (0 = one per CPU, 1 = serial); results are bit-identical at any setting")
	fs.IntVar(&c.Shards, "shards", 0,
		"grid-region shards for encounter scans (0 or 1 = single index); results are bit-identical at any setting")
	fs.StringVar(&c.ScaleName, "scale", "bench", "experiment scale: test, bench, or full")
	fs.StringVar(&c.TelemetryOut, "telemetry-out", "",
		"write the run's telemetry event stream as JSONL to this file")
	fs.StringVar(&c.FaultsName, "faults", "off",
		"fault-injection profile: off, light, or heavy (burst loss, window truncation, churn, corruption)")
	fs.BoolVar(&c.FullCoresetRebuild, "full-coreset-rebuild", false,
		"rebuild coresets with a full Algorithm-1 pass instead of the incremental partition tree")
	fs.BoolVar(&c.StreamTrace, "stream-trace", false,
		"stream the mobility trace through a bounded sliding window instead of holding it resident; results are bit-identical")
	fs.StringVar(&c.TraceFile, "trace-file", "",
		"load the mobility trace from this LBTC file (see worldgen -trace-out) instead of recording one")
	fs.StringVar(&c.TraceURL, "trace-url", "",
		"page the mobility trace from a trace-serve chunk server at this base URL (always streamed; excludes -trace-file)")
	return c
}

// Faults resolves the -faults profile name into a fault-injection config;
// "off" (the default) returns the zero config, which disables injection.
func (c *Common) Faults() (faults.Config, error) {
	return faults.ByName(c.FaultsName)
}

// Scale resolves -scale with the -seed and -workers overrides applied, and
// configures tensor-level parallelism to match.
func (c *Common) Scale() (experiments.Scale, error) {
	scale, err := experiments.ScaleByName(c.ScaleName)
	if err != nil {
		return experiments.Scale{}, err
	}
	if c.flagSet("seed") {
		scale.Seed = c.Seed
	}
	scale.Workers = c.Workers
	scale.Shards = c.Shards
	scale.FullCoresetRebuild = c.FullCoresetRebuild
	scale.StreamTrace = c.StreamTrace
	tensor.SetWorkers(c.Workers)
	return scale, nil
}

// OpenTrace opens an LBTC mobility-trace file as an engine-ready source:
// fully resident when stream is false, or a bounded sliding window that
// pages chunks on demand when stream is true. The returned closer releases
// the file handle and must be closed after the run (it is never nil).
func OpenTrace(path string, stream bool) (trace.Source, io.Closer, error) {
	if stream {
		src, closer, err := trace.OpenWindowFile(path, trace.WindowConfig{Prefetch: true})
		if err != nil {
			return nil, nil, fmt.Errorf("opening trace window %s: %w", path, err)
		}
		return src, closer, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("opening trace: %w", err)
	}
	defer f.Close()
	tr, err := trace.ReadTrace(f)
	if err != nil {
		return nil, nil, fmt.Errorf("reading trace %s: %w", path, err)
	}
	return tr, nopCloser{}, nil
}

type nopCloser struct{}

func (nopCloser) Close() error { return nil }

// ApplyTrace resolves -trace-file or -trace-url onto the scale. A file is
// opened through OpenTrace (resident or windowed per -stream-trace) and
// installed as the scale's trace source; a URL is dialed once for its
// stream metadata and recorded as Scale.TraceURL for the experiment layer
// to page through (remote traces always stream). Either way the scale's
// vehicle count is taken from the trace — overriding any -vehicles
// setting, which only sizes recorded traces. The returned closer must be
// closed after the run; without either flag it is a no-op and the scale is
// untouched.
func (c *Common) ApplyTrace(scale *experiments.Scale) (io.Closer, error) {
	if c.TraceFile != "" && c.TraceURL != "" {
		return nil, fmt.Errorf("-trace-file and -trace-url are mutually exclusive")
	}
	if c.TraceURL != "" {
		probe, err := traceserve.Dial(c.TraceURL, traceserve.ClientConfig{})
		if err != nil {
			return nil, err
		}
		probe.Close()
		scale.TraceURL = c.TraceURL
		scale.Vehicles = probe.NumVehicles()
		scale.TraceTicks = probe.NumTicks()
		return nopCloser{}, nil
	}
	if c.TraceFile == "" {
		return nopCloser{}, nil
	}
	src, closer, err := OpenTrace(c.TraceFile, c.StreamTrace)
	if err != nil {
		return nil, err
	}
	scale.TraceSource = src
	scale.TracePath = c.TraceFile
	scale.Vehicles = src.NumVehicles()
	scale.TraceTicks = src.NumTicks()
	return closer, nil
}

// flagSet reports whether the named flag was given explicitly.
func (c *Common) flagSet(name string) bool {
	set := false
	c.fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// OpenSink opens the -telemetry-out JSONL sink, or returns nil when the
// flag is unset. The caller must Close a non-nil sink to flush it.
func (c *Common) OpenSink() (telemetry.Sink, error) {
	if c.TelemetryOut == "" {
		return nil, nil
	}
	f, err := os.Create(c.TelemetryOut)
	if err != nil {
		return nil, fmt.Errorf("opening -telemetry-out: %w", err)
	}
	return telemetry.NewJSONL(f), nil
}

// CloseSink closes a sink from OpenSink and reports where the stream went.
// Safe on nil sinks and best-effort: errors are returned for the caller to
// surface.
func (c *Common) CloseSink(sink telemetry.Sink) error {
	if sink == nil {
		return nil
	}
	if err := sink.Close(); err != nil {
		return fmt.Errorf("closing -telemetry-out: %w", err)
	}
	fmt.Printf("Wrote telemetry event stream to %s\n", c.TelemetryOut)
	return nil
}

// SignalContext returns a context canceled on SIGINT/SIGTERM, so long
// experiment runs stop at the next engine tick and report partial results.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// WorkersLabel formats a worker count for output ("auto" for 0).
func WorkersLabel(n int) string {
	if n <= 0 {
		return "auto"
	}
	return fmt.Sprintf("%d", n)
}

package repolint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoShadowedBuiltins is the repository-wide assertion: no Go file in
// the module may declare a name that shadows a predeclared identifier.
func TestNoShadowedBuiltins(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatalf("ModuleRoot: %v", err)
	}
	findings, err := ShadowedBuiltins(root)
	if err != nil {
		t.Fatalf("ShadowedBuiltins: %v", err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestNoConcreteTraceParams is the repository-wide assertion: outside
// internal/trace, no function may take the concrete trace.Trace or
// trace.Window as a parameter — consumers go through trace.Source so the
// resident and streamed implementations stay interchangeable.
func TestNoConcreteTraceParams(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatalf("ModuleRoot: %v", err)
	}
	findings, err := ConcreteTraceParams(root)
	if err != nil {
		t.Fatalf("ConcreteTraceParams: %v", err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestDetectsConcreteTraceParams pins down the signature forms the checker
// must catch, and the ones it must deliberately allow.
func TestDetectsConcreteTraceParams(t *testing.T) {
	src := `package p

import tr "lbchat/internal/trace"

func f(t *tr.Trace) {}                  // pointer param
func g(w tr.Window, n int) {}           // value param
func h(fn func(*tr.Trace)) {}           // func-typed param's param
func ok1(s tr.Source) {}                // interface param: allowed
func ok2(w tr.Windowed) {}              // capability param: allowed
func ok3() *tr.Trace { return nil }     // concrete result: allowed
func ok4(cfg tr.WindowConfig) {}        // config struct: allowed

type i interface {
	m(*tr.Window) // interface method param
}
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := ConcreteTraceParams(dir)
	if err != nil {
		t.Fatalf("ConcreteTraceParams: %v", err)
	}
	if len(findings) != 4 {
		t.Fatalf("got %d findings, want 4:\n%s", len(findings), strings.Join(findings, "\n"))
	}
	for _, f := range findings {
		if strings.Contains(f, "ok") || strings.Contains(f, "Source") && !strings.Contains(f, "accept") {
			t.Errorf("allowed form wrongly flagged: %s", f)
		}
	}
}

// TestConcreteTraceParamsExemptsTracePackage: the trace package's own files
// (and files that never import it) produce no findings.
func TestConcreteTraceParamsExemptsTracePackage(t *testing.T) {
	dir := t.TempDir()
	inTrace := filepath.Join(dir, "internal", "trace")
	if err := os.MkdirAll(inTrace, 0o755); err != nil {
		t.Fatal(err)
	}
	own := `package trace

import tr "lbchat/internal/trace"

func internalHelper(t *tr.Trace) {}
`
	if err := os.WriteFile(filepath.Join(inTrace, "x.go"), []byte(own), 0o644); err != nil {
		t.Fatal(err)
	}
	noImport := `package p

type Trace struct{}

func f(t *Trace) {} // unrelated local type named Trace
`
	if err := os.WriteFile(filepath.Join(dir, "y.go"), []byte(noImport), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := ConcreteTraceParams(dir)
	if err != nil {
		t.Fatalf("ConcreteTraceParams: %v", err)
	}
	if len(findings) != 0 {
		t.Errorf("unexpected findings:\n%s", strings.Join(findings, "\n"))
	}
}

// TestNoDirectCoresetBuilds is the repository-wide assertion: outside the
// coreset package and the engine's construction layer, no non-test code may
// call coreset.Build/BuildWith directly — coresets flow through
// Engine.EnsureCoreset so the partition tree and the A/B arm flag apply.
func TestNoDirectCoresetBuilds(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatalf("ModuleRoot: %v", err)
	}
	findings, err := DirectCoresetBuilds(root)
	if err != nil {
		t.Fatalf("DirectCoresetBuilds: %v", err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestDetectsDirectCoresetBuilds pins down the call forms the checker must
// catch, and the ones it must deliberately allow.
func TestDetectsDirectCoresetBuilds(t *testing.T) {
	src := `package p

import cs "lbchat/internal/coreset"

func bad1() { cs.Build(nil, nil, 10, nil) }                   // direct Build
func bad2() { cs.BuildWith(cs.MethodLayered, nil, nil, 10, nil) } // direct BuildWith
func ok1() { cs.FromDataset(nil) }                            // wrapping: allowed
func ok2() { cs.MergeReduce(nil, nil, 10, nil) }              // maintenance: allowed
func ok3() { cs.NewTree(cs.TreeConfig{}) }                    // tree: allowed
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := DirectCoresetBuilds(dir)
	if err != nil {
		t.Fatalf("DirectCoresetBuilds: %v", err)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2:\n%s", len(findings), strings.Join(findings, "\n"))
	}
	for _, f := range findings {
		if strings.Contains(f, "ok") {
			t.Errorf("allowed form wrongly flagged: %s", f)
		}
	}
}

// TestDirectCoresetBuildsExemptions: the coreset package itself, the
// engine's coreset_mgmt.go, test files, the examples tree, and files that
// never import the package produce no findings.
func TestDirectCoresetBuildsExemptions(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	call := `import cs "lbchat/internal/coreset"

func f() { cs.Build(nil, nil, 10, nil) }
`
	write(filepath.Join("internal", "coreset", "x.go"), "package coreset\n\n"+call)
	write(filepath.Join("internal", "core", "coreset_mgmt.go"), "package core\n\n"+call)
	write(filepath.Join("internal", "core", "x_test.go"), "package core\n\n"+call)
	write(filepath.Join("examples", "demo", "main.go"), "package main\n\n"+call)
	write("y.go", `package p

type coreset struct{}

func (coreset) Build() {}

func g() { var c coreset; c.Build() } // unrelated local type: allowed
`)
	findings, err := DirectCoresetBuilds(dir)
	if err != nil {
		t.Fatalf("DirectCoresetBuilds: %v", err)
	}
	if len(findings) != 0 {
		t.Errorf("unexpected findings:\n%s", strings.Join(findings, "\n"))
	}
}

// TestNoHotPathFleetScans is the repository-wide assertion: the engine's
// per-tick hot-path functions (trainTick, probeLossMean, recordLoss,
// calendarDue, dispatchPhase) may not range over the full Vehicles slice —
// due work comes from the calendar queue and batched work from the shard
// grouper, so empty ticks stay O(1).
func TestNoHotPathFleetScans(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatalf("ModuleRoot: %v", err)
	}
	findings, err := HotPathFleetScans(root)
	if err != nil {
		t.Fatalf("HotPathFleetScans: %v", err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestDetectsHotPathFleetScans pins down the loop forms the checker must
// catch inside hot-path functions, and the contexts it must deliberately
// allow.
func TestDetectsHotPathFleetScans(t *testing.T) {
	src := `package core

type engine struct{ Vehicles []int }

func (e *engine) trainTick() {
	for range e.Vehicles { // fleet scan in a hot path
	}
}

func (e *engine) probeLossMean() {
	for _, v := range e.Vehicles { // fleet scan in a hot path
		_ = v
	}
}

func (e *engine) calendarDue(due []int32) []int32 {
	for _, id := range due { // due-set iteration: allowed
		_ = id
	}
	return due
}

func (e *engine) FleetReceiveStats() {
	for range e.Vehicles { // end-of-run aggregation, not a hot path: allowed
	}
}
`
	dir := t.TempDir()
	coreDir := filepath.Join(dir, "internal", "core")
	if err := os.MkdirAll(coreDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(coreDir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := HotPathFleetScans(dir)
	if err != nil {
		t.Fatalf("HotPathFleetScans: %v", err)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2:\n%s", len(findings), strings.Join(findings, "\n"))
	}
	for _, f := range findings {
		if strings.Contains(f, "FleetReceiveStats") || strings.Contains(f, "calendarDue") {
			t.Errorf("allowed form wrongly flagged: %s", f)
		}
	}
}

// TestHotPathFleetScansExemptsTestsAndOutsideCore: test files inside
// internal/core and hot-named functions outside internal/core produce no
// findings.
func TestHotPathFleetScansExemptsTestsAndOutsideCore(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	scan := `type engine struct{ Vehicles []int }

func (e *engine) trainTick() {
	for range e.Vehicles {
	}
}
`
	write(filepath.Join("internal", "core", "x_test.go"), "package core\n\n"+scan)
	write(filepath.Join("internal", "other", "x.go"), "package other\n\n"+scan)
	findings, err := HotPathFleetScans(dir)
	if err != nil {
		t.Fatalf("HotPathFleetScans: %v", err)
	}
	if len(findings) != 0 {
		t.Errorf("unexpected findings:\n%s", strings.Join(findings, "\n"))
	}
}

// TestDetectsShadowingForms pins down the declaration sites the checker
// must catch, and the ones it must deliberately ignore.
func TestDetectsShadowingForms(t *testing.T) {
	src := `package p

func cap() {}                  // function name

func f(len int) (min int) {   // param and named result
	max := 1                   // short declaration
	var new int                // var spec
	const copy = 2             // const spec
	for clear := range []int{} { _ = clear } // range key
	g := func(delete string) {} // func literal param
	_ = g
	_, _, _ = max, new, copy
	return
}

type append struct{}           // type name

type ok struct {
	len int                    // struct field: must NOT be flagged
}

func (o ok) close() {}         // method name: must NOT be flagged
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := ShadowedBuiltins(dir)
	if err != nil {
		t.Fatalf("ShadowedBuiltins: %v", err)
	}
	want := []string{"cap", "len", "min", "max", "new", "copy", "clear", "delete", "append"}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(findings), len(want), strings.Join(findings, "\n"))
	}
	for _, name := range want {
		hit := false
		for _, f := range findings {
			if strings.Contains(f, `"`+name+`"`) {
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("no finding for shadowed builtin %q in:\n%s", name, strings.Join(findings, "\n"))
		}
	}
	for _, f := range findings {
		if strings.Contains(f, `"close"`) || strings.Contains(f, `"ok"`) {
			t.Errorf("field/method name wrongly flagged: %s", f)
		}
	}
}

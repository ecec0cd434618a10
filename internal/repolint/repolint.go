package repolint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// ShadowedBuiltins parses every .go file under root and returns one
// "path:line:col: name" finding per declaration whose name shadows a
// predeclared identifier — anything in the types.Universe scope, which
// covers the builtin functions (append, cap, clear, copy, delete, len,
// make, max, min, new, ...), the predeclared types, and the constants
// true/false/iota/nil. Checked declaration sites: short variable
// declarations, range clauses, var/const specs, type names, function
// names, and func parameter/result/receiver lists. Struct fields and
// method names are not checked — they are selector-qualified and cannot
// shadow anything. The blank identifier is always allowed.
func ShadowedBuiltins(root string) ([]string, error) {
	var findings []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		rel, relErr := filepath.Rel(root, path)
		if relErr != nil {
			rel = path
		}
		checkFile(fset, rel, file, &findings)
		return nil
	})
	return findings, err
}

// checkFile appends a finding for each shadowing declaration in one file.
func checkFile(fset *token.FileSet, path string, file *ast.File, findings *[]string) {
	flag := func(id *ast.Ident) {
		if id == nil || id.Name == "_" {
			return
		}
		if types.Universe.Lookup(id.Name) == nil {
			return
		}
		pos := fset.Position(id.Pos())
		*findings = append(*findings,
			fmt.Sprintf("%s:%d:%d: declaration shadows builtin %q", path, pos.Line, pos.Column, id.Name))
	}
	flagFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				flag(name)
			}
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						flag(id)
					}
				}
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				if id, ok := n.Key.(*ast.Ident); ok {
					flag(id)
				}
				if id, ok := n.Value.(*ast.Ident); ok {
					flag(id)
				}
			}
		case *ast.ValueSpec:
			for _, name := range n.Names {
				flag(name)
			}
		case *ast.TypeSpec:
			flag(n.Name)
			flagFields(n.TypeParams)
		case *ast.FuncDecl:
			if n.Recv == nil {
				// Method names are selector-qualified; only plain
				// functions can shadow a builtin at the call site.
				flag(n.Name)
			}
			flagFields(n.Recv)
		case *ast.FuncType:
			// Covers both declarations and literals: FuncDecl.Type and
			// FuncLit.Type are visited here.
			flagFields(n.TypeParams)
			flagFields(n.Params)
			flagFields(n.Results)
		}
		return true
	})
}

// ConcreteTraceParams parses every .go file under root and returns one
// "path:line:col: ..." finding per function parameter declared with a
// concrete mobility-source type — trace.Trace or trace.Window, with any
// number of pointer indirections — outside the trace package itself.
// Consumers must accept the trace.Source interface (or trace.Windowed for
// window-specific capabilities) so both the resident trace and the bounded
// sliding window satisfy them; a concrete parameter type quietly pins a
// call path to one implementation and breaks the streamed/resident A/B
// guarantee. Returning a concrete type is fine — constructors do — and the
// trace package's own internals are exempt.
func ConcreteTraceParams(root string) ([]string, error) {
	var findings []string
	fset := token.NewFileSet()
	tracePkgDir := filepath.Join("internal", "trace")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, relErr := filepath.Rel(root, path)
		if relErr != nil {
			rel = path
		}
		if strings.HasPrefix(rel, tracePkgDir+string(filepath.Separator)) {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		checkTraceParams(fset, rel, file, &findings)
		return nil
	})
	return findings, err
}

// checkTraceParams appends a finding for each concrete-trace parameter in
// one file. It resolves the file's local name for the trace import (usually
// "trace", but aliases count too) and then flags parameters of that
// package's Trace and Window types in every function signature — top-level
// declarations, methods, function literals, func-typed fields, and
// interface methods all share *ast.FuncType and are visited alike.
func checkTraceParams(fset *token.FileSet, path string, file *ast.File, findings *[]string) {
	local := ""
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) != "lbchat/internal/trace" {
			continue
		}
		local = "trace"
		if imp.Name != nil {
			local = imp.Name.Name
		}
	}
	if local == "" || local == "." || local == "_" {
		return
	}
	concrete := func(expr ast.Expr) string {
		for {
			star, ok := expr.(*ast.StarExpr)
			if !ok {
				break
			}
			expr = star.X
		}
		sel, ok := expr.(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != local {
			return ""
		}
		if sel.Sel.Name == "Trace" || sel.Sel.Name == "Window" {
			return local + "." + sel.Sel.Name
		}
		return ""
	}
	ast.Inspect(file, func(n ast.Node) bool {
		ft, ok := n.(*ast.FuncType)
		if !ok || ft.Params == nil {
			return true
		}
		for _, f := range ft.Params.List {
			name := concrete(f.Type)
			if name == "" {
				continue
			}
			pos := fset.Position(f.Type.Pos())
			*findings = append(*findings, fmt.Sprintf(
				"%s:%d:%d: parameter typed with concrete %s; accept trace.Source (or trace.Windowed) instead",
				path, pos.Line, pos.Column, name))
		}
		return true
	})
}

// DirectCoresetBuilds parses every .go file under root and returns one
// "path:line:col: ..." finding per call to coreset.Build or
// coreset.BuildWith outside the construction layer. Coresets must be built
// through the engine's EnsureCoreset (internal/core/coreset_mgmt.go), which
// routes every refresh through the partition tree or the full-rebuild arm —
// a direct Build call bypasses the incremental cache, the A/B arm flag, and
// the telemetry side channel. Exempt: the coreset package itself, the
// engine's coreset_mgmt.go, test files, and the examples tree (pedagogical
// standalone programs).
func DirectCoresetBuilds(root string) ([]string, error) {
	var findings []string
	fset := token.NewFileSet()
	coresetPkgDir := filepath.Join("internal", "coreset")
	mgmtFile := filepath.Join("internal", "core", "coreset_mgmt.go")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "examples" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, relErr := filepath.Rel(root, path)
		if relErr != nil {
			rel = path
		}
		if strings.HasPrefix(rel, coresetPkgDir+string(filepath.Separator)) || rel == mgmtFile {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		checkCoresetBuilds(fset, rel, file, &findings)
		return nil
	})
	return findings, err
}

// checkCoresetBuilds appends a finding for each direct coreset-construction
// call in one file. It resolves the file's local name for the coreset import
// (aliases count too) and flags calls to that package's Build and BuildWith.
func checkCoresetBuilds(fset *token.FileSet, path string, file *ast.File, findings *[]string) {
	local := ""
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) != "lbchat/internal/coreset" {
			continue
		}
		local = "coreset"
		if imp.Name != nil {
			local = imp.Name.Name
		}
	}
	if local == "" || local == "." || local == "_" {
		return
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != local {
			return true
		}
		if sel.Sel.Name != "Build" && sel.Sel.Name != "BuildWith" {
			return true
		}
		pos := fset.Position(call.Pos())
		*findings = append(*findings, fmt.Sprintf(
			"%s:%d:%d: direct %s.%s call; build coresets through Engine.EnsureCoreset so the partition tree and arm flag apply",
			path, pos.Line, pos.Column, local, sel.Sel.Name))
		return true
	})
}

// hotPathFuncs are the engine's per-tick hot-path functions: the ones that
// run every tick (or every probe) and therefore must scale with the due or
// batched working set, never with fleet size.
var hotPathFuncs = map[string]bool{
	"trainTick":     true,
	"probeLossMean": true,
	"recordLoss":    true,
	"calendarDue":   true,
	"dispatchPhase": true,
}

// HotPathFleetScans parses every non-test .go file under root's
// internal/core and returns one "path:line:col: ..." finding per
// `for ... range e.Vehicles` loop inside a per-tick hot-path function
// (hotPathFuncs). The calendar queue exists precisely so empty ticks cost
// O(1) and due ticks cost O(due); a fleet-sized range in one of these
// functions silently reverts the engine to the O(N)-per-tick regime the
// scheduler replaced (DESIGN.md §15). Everything outside the hot set —
// construction, end-of-run aggregation, the encounter scan's own spatial
// index — is exempt.
func HotPathFleetScans(root string) ([]string, error) {
	var findings []string
	fset := token.NewFileSet()
	coreDir := filepath.Join(root, "internal", "core")
	err := filepath.WalkDir(coreDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		rel, relErr := filepath.Rel(root, path)
		if relErr != nil {
			rel = path
		}
		checkHotPathScans(fset, rel, file, &findings)
		return nil
	})
	return findings, err
}

// checkHotPathScans appends a finding for each fleet-sized range statement
// inside a hot-path function in one file. It flags `range X.Vehicles` for
// any receiver X — the selector, not the receiver name, is the signature of
// a fleet scan.
func checkHotPathScans(fset *token.FileSet, path string, file *ast.File, findings *[]string) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || !hotPathFuncs[fn.Name.Name] {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			sel, ok := rng.X.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Vehicles" {
				return true
			}
			pos := fset.Position(rng.Pos())
			*findings = append(*findings, fmt.Sprintf(
				"%s:%d:%d: fleet-sized range over Vehicles in per-tick hot path %s; use the calendar queue's due set or the shard batcher instead",
				path, pos.Line, pos.Column, fn.Name.Name))
			return true
		})
	}
}

// ModuleRoot walks upward from dir to the enclosing go.mod directory.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

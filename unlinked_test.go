// Package repro holds no product code: its one test keeps internal/ free
// of functions no shipped binary links, and lists what only the paper's
// reproduction links beside what a served binary links.
package repro

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// servedBinaries are the binaries that run the system: the daemon, its
// load generator, its client and its model-store tool. Every other binary
// the repository ships — sembench, the examples and the benchmark —
// reproduces the paper on top of them.
var servedBinaries = map[string]bool{"cmd-edged": true, "cmd-semcli": true, "cmd-semkb": true, "cmd-semload": true}

// TestNoUnlinkedFunctions builds every binary the repository ships —
// ./cmd/*, ./examples/* and the benchmark — with inlining off (so an
// inlined callee still has a symbol), and checks two lists of the
// functions with a body under internal/, each entry "symbol reason":
//   - testdata/unlinked.keep lists exactly those no binary links. A
//     function only tests reach is either deleted, moved into a _test.go
//     file, or kept on purpose and said so.
//   - testdata/reproonly.keep lists exactly those of a served package (one
//     whose functions a served binary links) that only sembench, an
//     example or the benchmark links: the variants the product tree keeps
//     beside the serve path for the reproduction, each with its reason.
func TestNoUnlinkedFunctions(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary with -gcflags=all=-l")
	}
	served, linked := linkedSymbols(t)
	fns := internalFunctions(t)
	servedPkg := make(map[string]bool)
	for _, fn := range fns {
		if served[fn.sym] {
			servedPkg[fn.pkg] = true
		}
	}
	unlinked := make(map[string]bool)
	reproOnly := make(map[string]bool)
	for _, fn := range fns {
		switch {
		case !linked[fn.sym]:
			unlinked[fn.sym] = true
		case servedPkg[fn.pkg] && !served[fn.sym]:
			reproOnly[fn.sym] = true
		}
	}
	checkKeepList(t, filepath.Join("testdata", "unlinked.keep"), "in no binary", unlinked)
	checkKeepList(t, filepath.Join("testdata", "reproonly.keep"),
		"in a served package and linked only by sembench, an example or bench", reproOnly)
}

// checkKeepList fails for every function in want that the keep file at
// path does not list, and for every entry of the file that is not in
// want: a stale entry, or one the rule no longer selects.
func checkKeepList(t *testing.T, path, rule string, want map[string]bool) {
	t.Helper()
	keep := readKeepList(t, path)
	var missing []string
	for sym := range want {
		if keep[sym] == "" {
			missing = append(missing, sym)
		}
	}
	for sym := range keep {
		if !want[sym] {
			t.Errorf("%s lists %s, which is not a function under internal/ %s: drop it", path, sym, rule)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("%d functions under internal/ are %s (delete them, or add each to %s with its reason):\n  %s",
			len(missing), rule, path, strings.Join(missing, "\n  "))
	}
}

// linkedSymbols returns the symbols of the served binaries and of every
// shipped binary, generic instantiations folded onto the function's own
// name.
func linkedSymbols(t *testing.T) (served, linked map[string]bool) {
	t.Helper()
	out := t.TempDir()
	var bins []string
	goBuild := func(bin string, args ...string) {
		t.Helper()
		bin = filepath.Join(out, bin)
		cmd := exec.Command("go", append(append([]string{"build"}, args...), "-gcflags=all=-l", "-o", bin, ".")...)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%v: %v\n%s", cmd.Args, err, msg)
		}
		bins = append(bins, bin)
	}
	for _, pattern := range []string{"cmd/*", "examples/*"} {
		dirs, err := filepath.Glob(pattern)
		if err != nil || len(dirs) == 0 {
			t.Fatalf("no packages match %s (%v)", pattern, err)
		}
		for _, dir := range dirs {
			goBuild(strings.ReplaceAll(dir, "/", "-"), "-C", dir)
		}
	}
	goBuild("bench", "-C", "bench")

	served, linked = make(map[string]bool), make(map[string]bool)
	for _, bin := range bins {
		isServed := servedBinaries[filepath.Base(bin)]
		syms, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(syms))
		for sc.Scan() {
			// "address type name"; a generic function's name carries its
			// instantiation ("define[go.shape.struct {...}]"), spaces included.
			if f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3); len(f) == 3 {
				name, _, _ := strings.Cut(f[2], "[")
				linked[name] = true
				if isServed {
					served[name] = true
				}
			}
		}
	}
	return served, linked
}

// function is one function or method with a body under internal/: its
// package's import path and its symbol as nm spells it.
type function struct{ pkg, sym string }

// internalFunctions returns the functions and methods with a body in the
// non-test files under internal/ that this platform compiles. init
// functions are skipped: the linker names them init.0, init.1, … and a
// linked package always runs them.
func internalFunctions(t *testing.T) []function {
	t.Helper()
	var fns []function
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		dir, name := filepath.Split(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "repro/" + filepath.ToSlash(filepath.Clean(dir))
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			sym := pkg + "."
			if fn.Recv != nil {
				// No type under internal/ is generic, so a receiver is T or *T.
				if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
					sym += "(*" + star.X.(*ast.Ident).Name + ")."
				} else {
					sym += fn.Recv.List[0].Type.(*ast.Ident).Name + "."
				}
			}
			fns = append(fns, function{pkg, sym + fn.Name.Name})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fns
}

// readKeepList parses "symbol reason…" lines; blank lines and # comments
// are skipped, and a symbol without a reason is an error.
func readKeepList(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	keep := make(map[string]string)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			t.Fatalf("%s:%d: %s has no reason", path, i+1, sym)
		}
		keep[sym] = reason
	}
	return keep
}

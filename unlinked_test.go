// Package repro holds no product code: its one test keeps internal/ free
// of functions no shipped binary links.
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

// TestNoUnlinkedFunctions builds every binary the repository ships —
// ./cmd/*, ./examples/* and the benchmark — with inlining off (so an
// inlined callee still has a symbol), and fails for any function with a
// body under internal/ that is in none of them and not listed, with its
// reason, in testdata/unlinked.keep. A function only tests reach is either
// deleted, moved into a _test.go file, or kept on purpose and said so.
func TestNoUnlinkedFunctions(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary with -gcflags=all=-l")
	}
	linked := linkedSymbols(t)
	keep := readKeepList(t, filepath.Join("testdata", "unlinked.keep"))
	var unlinked []string
	for _, sym := range internalFunctions(t) {
		switch {
		case linked[sym] && keep[sym] != "":
			t.Errorf("%s is linked into a binary: drop it from testdata/unlinked.keep", sym)
		case !linked[sym] && keep[sym] == "":
			unlinked = append(unlinked, sym)
		}
		delete(keep, sym)
	}
	for sym := range keep {
		t.Errorf("testdata/unlinked.keep lists %s, which is not a function under internal/", sym)
	}
	if len(unlinked) > 0 {
		t.Errorf("%d functions under internal/ are in no binary (delete them, or add each to testdata/unlinked.keep with its reason):\n  %s",
			len(unlinked), strings.Join(unlinked, "\n  "))
	}
}

// linkedSymbols returns every symbol of every shipped binary, generic
// instantiations folded onto the function's own name.
func linkedSymbols(t *testing.T) map[string]bool {
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

	linked := make(map[string]bool)
	for _, bin := range bins {
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
			}
		}
	}
	return linked
}

// internalFunctions returns, spelled as nm spells them, the functions and
// methods with a body in the non-test files under internal/ that this
// platform compiles. init functions are skipped: the linker names them
// init.0, init.1, … and a linked package always runs them.
func internalFunctions(t *testing.T) []string {
	t.Helper()
	var syms []string
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
			syms = append(syms, sym+fn.Name.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(syms)
	return syms
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

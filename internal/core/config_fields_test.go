package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestConfigFieldsHaveSetters keeps Config from growing knobs nothing
// turns: every field must be assigned by some non-test file outside this
// package and examples/ — a binary's wiring (edged, mesh), an experiment
// behind a pinned table, or the benchmark (bench/replay.go). A field only
// tests and examples set is an option with one value in use: make it a
// constant.
//
// Codec is the one deliberate exception: it is how the core, edge and
// edged tests pretrain a small model instead of the full-size one, and
// without it every system-level test costs a full pretraining.
func TestConfigFieldsHaveSetters(t *testing.T) {
	root := filepath.Join("..", "..")
	set := map[string]bool{"Codec": true}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == filepath.Join("internal", "core") || rel == "examples" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		collectConfigSetters(file, set)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	file, err := parser.ParseFile(fset, "system.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	fields := 0
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.TypeSpec)
		if !ok || spec.Name.Name != "Config" {
			return true
		}
		for _, f := range spec.Type.(*ast.StructType).Fields.List {
			for _, name := range f.Names {
				fields++
				if !set[name.Name] {
					t.Errorf("Config.%s is assigned by no non-test file outside internal/core and examples/: delete the field and keep its one value as a constant", name.Name)
				}
			}
		}
		return false
	})
	if fields == 0 {
		t.Fatal("found no Config struct in system.go")
	}
}

// collectConfigSetters records in set every core.Config field the file
// assigns: the keys of core.Config{…} literals, and x.Field = … where the
// file declares x as a core.Config (a parameter, or x := core.Config{…}).
func collectConfigSetters(file *ast.File, set map[string]bool) {
	isConfig := func(e ast.Expr) bool {
		if lit, ok := e.(*ast.CompositeLit); ok {
			e = lit.Type
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Config" {
			return false
		}
		x, ok := sel.X.(*ast.Ident)
		return ok && x.Name == "core" // no file imports the package under another name
	}
	vars := map[string]bool{} // identifiers declared as core.Config, in source order
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if isConfig(n) {
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						set[kv.Key.(*ast.Ident).Name] = true
					}
				}
			}
		case *ast.Field: // parameters
			if isConfig(n.Type) {
				for _, name := range n.Names {
					vars[name.Name] = true
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				switch lhs := lhs.(type) {
				case *ast.Ident:
					if n.Tok == token.DEFINE && i < len(n.Rhs) && isConfig(n.Rhs[i]) {
						vars[lhs.Name] = true
					}
				case *ast.SelectorExpr:
					if x, ok := lhs.X.(*ast.Ident); ok && vars[x.Name] {
						set[lhs.Sel.Name] = true
					}
				}
			}
		}
		return true
	})
}

package tokenpicker

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPublicSurfaceReferenced keeps the root package a facade over what the
// CLIs and examples use: every name topick.go exports must be an Err*
// sentinel (the kept functions return them) or be referenced as
// tokenpicker.<Name> by some Go file under cmd/ or examples/. A re-export
// with no user fails here instead of accumulating.
func TestPublicSurfaceReferenced(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	for _, dir := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			local := ""
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "tokenpicker" {
					local = "tokenpicker"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			if local == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
						used[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(used) == 0 {
		t.Fatal("no tokenpicker.<Name> reference found under cmd/ or examples/")
	}

	f, err := parser.ParseFile(fset, "topick.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				exported = append(exported, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					exported = append(exported, s.Name.Name)
				case *ast.ValueSpec:
					for _, name := range s.Names {
						exported = append(exported, name.Name)
					}
				}
			}
		}
	}
	for _, name := range exported {
		if ast.IsExported(name) && !strings.HasPrefix(name, "Err") && !used[name] {
			t.Errorf("topick.go exports %s, but nothing under cmd/ or examples/ references tokenpicker.%s: delete it", name, name)
		}
	}
}

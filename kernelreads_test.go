package freepart

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// elementReadExemptions lists the element-wise tensor reads allowed inside
// a loop under internal/framework, keyed "file:line", with the reason.
// Keep it empty unless a loop genuinely cannot read its operand in one
// access.
var elementReadExemptions = map[string]string{}

// TestNoElementReadsInFrameworkLoops pins the one-access operand read: a
// framework kernel reads a tensor operand through Tensor.Values, one
// checked load of its region, never element by element. Every .At or
// .AtFlat call is a locked, permission-checked MMU access, so one inside a
// loop multiplies the MMU's cost by the trip count. Tests are exempt.
func TestNoElementReadsInFrameworkLoops(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	err := filepath.WalkDir(filepath.Join("internal", "framework"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, call := range elementReadsInLoops(f) {
			pos := fset.Position(call.Pos())
			key := fmt.Sprintf("%s:%d", filepath.ToSlash(pos.Filename), pos.Line)
			if _, ok := elementReadExemptions[key]; ok {
				used[key] = true
				continue
			}
			name := call.Fun.(*ast.SelectorExpr).Sel.Name
			t.Errorf("%s: .%s inside a loop reads a tensor element by element; read the operand once with Values", pos, name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range elementReadExemptions {
		if !used[key] {
			t.Errorf("exemption %s matches no element read in a loop; remove it", key)
		}
	}
}

// elementReadsInLoops returns the .At and .AtFlat calls that run once per
// iteration of an enclosing for or range loop: in a for statement's
// condition, post statement or body, or in a range statement's body.
func elementReadsInLoops(f *ast.File) []*ast.CallExpr {
	var found []*ast.CallExpr
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				walk(n.Init, inLoop)
				walk(n.Cond, true)
				walk(n.Post, true)
				walk(n.Body, true)
				return false
			case *ast.RangeStmt:
				walk(n.X, inLoop)
				walk(n.Body, true)
				return false
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && inLoop && (sel.Sel.Name == "At" || sel.Sel.Name == "AtFlat") {
					found = append(found, n)
				}
			}
			return true
		})
	}
	walk(f, false)
	return found
}

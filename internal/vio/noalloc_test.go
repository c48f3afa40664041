package vio

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoAllocatingMatrixCalls keeps the filter on the arena: outside
// NewFilter and the covariance buffers' growth path, no function of this
// package may call an allocating matrix kernel or make a float slice. (The
// image front end's own buffers are not matrices and are not covered.)
func TestNoAllocatingMatrixCalls(t *testing.T) {
	forbidden := []string{"mathx.NewMat", ".T()", ".MulMat(", ".Block(", "mathx.Eye(", "make([]float64",
		".Cholesky()", ".CholeskySolve(", ".CholeskySolveMat(", ".QR()", ".Nullspace()", ".MulVecN("}
	allowed := map[string]bool{"NewFilter": true, "nextCov": true}
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		file, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil || allowed[fn.Name.Name] {
				continue
			}
			checked++
			body := string(src[fset.Position(fn.Body.Pos()).Offset:fset.Position(fn.Body.End()).Offset])
			for _, bad := range forbidden {
				if strings.Contains(body, bad) {
					t.Errorf("%s: %s calls %s: take the temporary from the filter's arena", name, fn.Name.Name, bad)
				}
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d functions checked: the scan is not seeing the package", checked)
	}
}

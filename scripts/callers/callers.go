package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Kind says why a finding is reported.
type Kind string

const (
	// Dead: no non-test file of the module uses the object.
	Dead Kind = "dead"
	// Local: the object is exported, and only its own package's non-test
	// files use it.
	Local Kind = "local"
)

// Finding is one object the caller rule reports.
type Finding struct {
	Kind Kind
	// Name is the package path below internal/, a dot, and the object's
	// name; a method is Type.Method: "netxr/wire.Reader.Release".
	Name string
	// Pos is the declaration, relative to the module root.
	Pos string
}

// listedPackage is the part of `go list -json` the loader reads.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Export       string
	Standard     bool
	GoFiles      []string
	Imports      []string
	TestImports  []string
	XTestImports []string
	Module       *struct{ Path string }
}

// stdInterfaces are the standard-library interfaces whose methods a value
// reaches through an `any` or a standard-library call: a method that
// implements one is exempt. io stands for every interface of package io.
var stdInterfaces = map[string][]string{
	"fmt":            {"Stringer"},
	"encoding/json":  {"Marshaler", "Unmarshaler"},
	"flag":           {"Value"},
	"sort":           {"Interface"},
	"container/heap": {"Interface"},
	"net/http":       {"Handler"},
	"io":             nil,
}

// errorMethods are the methods errors.Is and errors.As look for on an
// error value.
var errorMethods = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// tracked is one object under internal/.
type tracked struct {
	obj  types.Object
	name string          // Finding.Name
	recv *types.TypeName // for a method, its receiver's type
}

// Find loads the module rooted at dir (non-test files only), and returns
// every finding under its internal/ directory, sorted by name.
func Find(dir string) ([]Finding, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := goList(dir)
	if err != nil {
		return nil, err
	}
	var module string
	for _, p := range pkgs {
		if p.Module != nil && !p.Standard {
			module = p.Module.Path
			break
		}
	}
	if module == "" {
		return nil, fmt.Errorf("no module package under %s", dir)
	}
	internalPrefix := module + "/internal/"

	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})

	type unit struct {
		path  string
		files []*ast.File
		info  *types.Info
	}
	var units []unit
	importedByCode := map[string]bool{}
	importedByTests := map[string]bool{}
	// go list -deps prints a package after everything it imports
	for _, p := range pkgs {
		if p.Standard || p.Module == nil || p.Module.Path != module {
			continue
		}
		for _, q := range p.Imports {
			importedByCode[q] = true
		}
		for _, q := range append(p.TestImports, p.XTestImports...) {
			importedByTests[q] = true
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Types:      map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", p.ImportPath, err)
		}
		checked[p.ImportPath] = tp
		units = append(units, unit{p.ImportPath, files, info})
	}

	// the objects under internal/, except those of a package only tests import
	objs := map[types.Object]*tracked{}
	for _, u := range units {
		if !strings.HasPrefix(u.path, internalPrefix) {
			continue
		}
		if !importedByCode[u.path] && importedByTests[u.path] {
			continue
		}
		short := strings.TrimPrefix(u.path, internalPrefix)
		scope := checked[u.path].Scope()
		for _, n := range scope.Names() {
			o := scope.Lookup(n)
			if n == "_" || n == "init" || n == "main" {
				continue
			}
			objs[o] = &tracked{obj: o, name: short + "." + n}
			tn, ok := o.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				objs[m] = &tracked{obj: m, name: short + "." + n + "." + m.Name(), recv: tn}
			}
		}
	}

	// every use of a tracked object, and the objects used outside their
	// package: named or selected there, or in the type of one that is (a
	// type's exported fields are part of its type)
	// uses maps an object to the top-level declaration around each use
	uses := map[types.Object][][]types.Object{}
	external := map[types.Object]bool{}
	var work []types.Object
	mark := func(o types.Object, from string) {
		if o != nil && o.Pkg() != nil && o.Pkg().Path() != from && !external[o] {
			external[o] = true
			work = append(work, o)
		}
	}
	ifaces := map[*types.Interface]bool{}
	for _, u := range units {
		for _, f := range u.files {
			decls := topLevel(f, u.info)
			enclosing := func(pos token.Pos) []types.Object {
				i := sort.Search(len(decls), func(i int) bool { return decls[i].end >= pos })
				if i < len(decls) && decls[i].pos <= pos {
					return decls[i].objs
				}
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if o := origin(u.info.Uses[n]); objs[o] != nil {
						uses[o] = append(uses[o], enclosing(n.Pos()))
						mark(o, u.path)
					}
				case *ast.SelectorExpr:
					sel := u.info.Selections[n]
					if sel == nil {
						break
					}
					// a field or method selected outside the package uses its
					// receiver type, and every embedded type on the way there
					t, idx := sel.Recv(), sel.Index()
					for i := 0; ; i++ {
						if tn := namedOf(t); tn != nil {
							mark(tn, u.path)
						}
						st, ok := deref(t).Underlying().(*types.Struct)
						if i == len(idx)-1 || !ok {
							break
						}
						t = st.Field(idx[i]).Type()
					}
					if fn, ok := sel.Obj().(*types.Func); ok {
						if tn := recvTypeName(fn); tn != nil {
							mark(tn, u.path)
						}
					}
				}
				return true
			})
		}
		for _, tv := range u.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces[it] = true
			}
		}
		for _, o := range u.info.Defs {
			if tn, ok := o.(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces[it] = true
				}
			}
		}
	}
	ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
	for path, names := range stdInterfaces {
		if _, ok := exports[path]; !ok {
			continue
		}
		p, err := gc.Import(path)
		if err != nil {
			return nil, err
		}
		if names == nil {
			names = p.Scope().Names()
		}
		for _, n := range names {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces[it] = true
				}
			}
		}
	}

	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		var t types.Type
		if tn, ok := o.(*types.TypeName); ok {
			t = tn.Type().Underlying()
		} else {
			t = o.Type()
		}
		walkType(t, map[types.Type]bool{}, func(tn *types.TypeName) { mark(tn, "") })
	}

	var out []Finding
	for o, t := range objs {
		if t.recv != nil && implementsIface(t.recv, o.(*types.Func), ifaces) {
			continue
		}
		used := false
		for _, decl := range uses[o] {
			if !selfUse(t, decl) {
				used = true
				break
			}
		}
		position := fset.Position(o.Pos())
		file, err := filepath.Rel(dir, position.Filename)
		if err != nil {
			return nil, err
		}
		pos := fmt.Sprintf("%s:%d", filepath.ToSlash(file), position.Line)
		switch {
		case !used && !external[o]:
			out = append(out, Finding{Dead, t.name, pos})
		case o.Exported() && !external[o]:
			out = append(out, Finding{Local, t.name, pos})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// selfUse reports whether decl, the declaration around a use of t, is t's
// own declaration or, for a type, one of its methods.
func selfUse(t *tracked, decl []types.Object) bool {
	for _, d := range decl {
		if d == t.obj {
			return true
		}
		if tn, ok := t.obj.(*types.TypeName); ok {
			if fn, ok := d.(*types.Func); ok && recvTypeName(fn) == tn {
				return true
			}
		}
	}
	return false
}

// implementsIface reports whether method m of recv implements a method of
// one of ifaces.
func implementsIface(recv *types.TypeName, m *types.Func, ifaces map[*types.Interface]bool) bool {
	named := recv.Type().(*types.Named)
	if errorMethods[m.Name()] {
		errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
		if types.Implements(named, errIface) || types.Implements(types.NewPointer(named), errIface) {
			return true
		}
	}
	for it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj == nil {
			continue
		}
		if named.TypeParams().Len() > 0 {
			return true
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

type declRange struct {
	pos, end token.Pos
	objs     []types.Object
}

// topLevel lists f's top-level declarations, in order, with the objects
// each declares.
func topLevel(f *ast.File, info *types.Info) []declRange {
	var out []declRange
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			out = append(out, declRange{d.Pos(), d.End(), []types.Object{info.Defs[d.Name]}})
		case *ast.GenDecl:
			for _, s := range d.Specs {
				var objs []types.Object
				switch s := s.(type) {
				case *ast.TypeSpec:
					objs = append(objs, info.Defs[s.Name])
				case *ast.ValueSpec:
					for _, n := range s.Names {
						objs = append(objs, info.Defs[n])
					}
				}
				out = append(out, declRange{s.Pos(), s.End(), objs})
			}
		}
	}
	return out
}

// walkType calls visit for every named type t is built from.
func walkType(t types.Type, seen map[types.Type]bool, visit func(*types.TypeName)) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		visit(t.Origin().Obj())
		for i := 0; i < t.TypeArgs().Len(); i++ {
			walkType(t.TypeArgs().At(i), seen, visit)
		}
	case *types.Pointer:
		walkType(t.Elem(), seen, visit)
	case *types.Slice:
		walkType(t.Elem(), seen, visit)
	case *types.Array:
		walkType(t.Elem(), seen, visit)
	case *types.Chan:
		walkType(t.Elem(), seen, visit)
	case *types.Map:
		walkType(t.Key(), seen, visit)
		walkType(t.Elem(), seen, visit)
	case *types.Signature:
		for i := 0; i < t.Params().Len(); i++ {
			walkType(t.Params().At(i).Type(), seen, visit)
		}
		for i := 0; i < t.Results().Len(); i++ {
			walkType(t.Results().At(i).Type(), seen, visit)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				walkType(f.Type(), seen, visit)
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			walkType(t.Method(i).Type(), seen, visit)
		}
	}
}

// origin maps an instantiated object back to its generic declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedOf is the declared type behind t or *t, or nil.
func namedOf(t types.Type) *types.TypeName {
	if n, ok := deref(t).(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// recvTypeName is the type a method is declared on, or nil for a function
// or an interface method.
func recvTypeName(fn *types.Func) *types.TypeName {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	tn := namedOf(sig.Recv().Type())
	if tn == nil {
		return nil
	}
	if _, ok := tn.Type().Underlying().(*types.Interface); ok {
		return nil
	}
	return tn
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// goList runs `go list -deps -export -json ./...` in dir: every package of
// the module and everything they import, dependencies first, each with
// its compiled export data.
func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllowed names the exported internal/ identifiers that may have
// no non-test caller outside their package, each with its reason.
var surfaceAllowed = map[string]string{
	"sim.Engine.Run":       libraryAPI,
	"sim.Engine.Idle":      libraryAPI,
	"sim.Engine.LiveProcs": libraryAPI,
	"sim.Engine.Parks":     libraryAPI,
	"sim.Proc.Done":        libraryAPI,
	"faults.Plan.Validate": "ROADMAP item 6's plan fuzzer rejects malformed generated plans with it",
}

const libraryAPI = "library API: repro re-exports the type and README's \"Using the library\" documents the method"

// profileSymbol matches the fully qualified function names that
// benchmark/profile.go compares stack frames against.
var profileSymbol = regexp.MustCompile(`^repro/internal/(\w+)\.(?:\(\*(\w+)\)\.)?(\w+)$`)

// TestExportedSurface requires every exported identifier of an
// internal/ package to have a caller in another package's non-test
// code: the root facade, cmd/, examples/, benchmark/ or another
// internal/ package. An export that only tests, or only its own
// package, call is surface nothing needs; delete or unexport it. A
// method whose name some interface declares is skipped, since it may be
// called through that interface. The pass type-checks the non-test
// files from source with go/types; the standard library comes from the
// gc importer.
//
// benchmark/ also names functions by string: it attributes profile
// samples to a layer by "repro/internal/<pkg>.<func>" and
// "repro/internal/<pkg>.(*T).method" literals. Each must name a
// function or method that exists, since a rename would silently zero
// that layer's metric, and each counts as a caller of what it names.
func TestExportedSurface(t *testing.T) {
	s := loadSurface(t)
	named := s.profileSymbols(t)
	var bad []string
	for _, e := range s.exported(named) {
		reason, allowed := surfaceAllowed[e.name]
		switch {
		case e.outside && allowed:
			t.Errorf("%s is allowlisted (%s) but %s calls it: drop the entry", e.name, reason, e.caller)
		case !e.outside && !allowed:
			if e.inside {
				bad = append(bad, e.name+" (used only inside its package: unexport it)")
			} else {
				bad = append(bad, e.name+" (no non-test caller: delete it)")
			}
		}
	}
	for name := range surfaceAllowed {
		if !s.declared[name] {
			t.Errorf("allowlist entry %s names nothing exported", name)
		}
	}
	if len(bad) > 0 {
		t.Errorf("%d exported internal/ identifiers have no non-test caller outside their package:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
}

// profileSymbols resolves every profile symbol literal in benchmark/'s
// non-test files and returns the functions, methods and receiver types
// they name.
func (s *surface) profileSymbols(t *testing.T) []types.Object {
	var named []types.Object
	for _, f := range s.files["repro/benchmark"] {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			v, _ := strconv.Unquote(lit.Value)
			m := profileSymbol.FindStringSubmatch(v)
			if m == nil {
				return true
			}
			objs := s.resolve("repro/internal/"+m[1], m[2], m[3])
			if objs == nil {
				t.Errorf("%s: %q names no function or method", s.fset.Position(lit.Pos()), v)
			}
			named = append(named, objs...)
			return true
		})
	}
	if len(named) == 0 {
		t.Error("no profile symbol literal found in benchmark/: the check is vacuous")
	}
	return named
}

// surface is the module's non-test code, type-checked package by package.
type surface struct {
	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*types.Package
	files    map[string][]*ast.File
	infos    map[string]*types.Info
	declared map[string]bool
}

// loadSurface checks the root facade and every package under internal/,
// cmd/, examples/ and benchmark/, with the module's packages resolved
// from source.
func loadSurface(t *testing.T) *surface {
	t.Helper()
	s := &surface{
		fset:     token.NewFileSet(),
		pkgs:     map[string]*types.Package{},
		files:    map[string][]*ast.File{},
		infos:    map[string]*types.Info{},
		declared: map[string]bool{},
	}
	s.std = importer.ForCompiler(s.fset, "gc", nil)
	for _, pattern := range []string{"internal/*", "cmd/*", "examples/*"} {
		dirs, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range dirs {
			if _, err := s.Import("repro/" + dir); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, path := range []string{"repro", "repro/benchmark"} {
		if _, err := s.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// Import resolves a module package from its source directory and any
// other path through the gc importer.
func (s *surface) Import(path string) (*types.Package, error) {
	if pkg, ok := s.pkgs[path]; ok {
		return pkg, nil
	}
	dir := strings.TrimPrefix(path, "repro/")
	if path == "repro" {
		dir = "."
	} else if dir == path {
		return s.std.Import(path)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		if _, none := err.(*build.NoGoError); none {
			return types.NewPackage(path, filepath.Base(dir)), nil
		}
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := (&types.Config{Importer: s}).Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path], s.files[path], s.infos[path] = pkg, files, info
	return pkg, nil
}

// exportedUse is one exported internal/ identifier and where non-test
// code refers to it.
type exportedUse struct {
	name    string // e.g. "sim.Engine.Run" or "faults.CrashAt"
	inside  bool   // its own package refers to it
	outside bool   // another package refers to it
	caller  string // one such package
}

// exported lists every exported identifier of the internal/ packages:
// package-level constants, variables, types and functions, and the
// exported methods of named types whose name no interface declares.
// The named objects count as called from benchmark/.
func (s *surface) exported(named []types.Object) []exportedUse {
	byObj := map[types.Object]*exportedUse{}
	var all []*exportedUse
	add := func(obj types.Object, name string) {
		e := &exportedUse{name: name}
		byObj[obj] = e
		all = append(all, e)
		s.declared[name] = true
	}
	ifaceMethods := s.interfaceMethods()
	for path, pkg := range s.pkgs {
		if !strings.HasPrefix(path, "repro/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if obj.Exported() {
				add(obj, pkg.Name()+"."+n)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !ifaceMethods[m.Name()] {
					add(m, pkg.Name()+"."+n+"."+m.Name())
				}
			}
		}
	}
	for path, info := range s.infos {
		for _, obj := range info.Uses {
			if v, ok := obj.(*types.Var); ok && v.Embedded() {
				obj = typeName(v.Type()) // x.T selects the field that embeds T
			}
			e := byObj[origin(obj)]
			if e == nil {
				continue
			}
			if obj.Pkg().Path() == path {
				e.inside = true
			} else if !e.outside {
				e.outside, e.caller = true, path
			}
		}
	}
	for _, obj := range named {
		if e := byObj[obj]; e != nil && !e.outside {
			e.outside, e.caller = true, "repro/benchmark"
		}
	}
	out := make([]exportedUse, len(all))
	for i, e := range all {
		out[i] = *e
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// interfaceMethods is the set of method names that some interface
// declares: every interface type the module's code writes, and every
// interface in the scope of a package it imports (fmt.Stringer,
// sort.Interface, error, ...).
func (s *surface) interfaceMethods() map[string]bool {
	names := map[string]bool{"Error": true}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	for path, info := range s.infos {
		for _, tv := range info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		for _, imp := range s.pkgs[path].Imports() {
			scope := imp.Scope()
			for _, n := range scope.Names() {
				if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
	}
	return names
}

// resolve returns the function name declared by the package at path,
// or, when recv is set, the method name of the named type recv together
// with that type; nil when there is none.
func (s *surface) resolve(path, recv, name string) []types.Object {
	pkg := s.pkgs[path]
	if pkg == nil {
		return nil
	}
	if recv == "" {
		if fn, ok := pkg.Scope().Lookup(name).(*types.Func); ok {
			return []types.Object{fn}
		}
		return nil
	}
	tn, _ := pkg.Scope().Lookup(recv).(*types.TypeName)
	if tn == nil {
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == name {
			return []types.Object{tn, m}
		}
	}
	return nil
}

// typeName is the declared name of t or of what t points to.
func typeName(t types.Type) types.Object {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// origin maps a use of an instantiated generic function, method or
// field back to the object its declaration defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case nil:
		return nil
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

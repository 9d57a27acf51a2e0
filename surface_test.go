package spider

// The module's source-level checks: one stdlib loader (go/parser +
// go/types) type-checks every non-test package, and the tests below read
// its syntax and type information.
//
//   - Surface: every exported func, method, const or var under internal/
//     has a use in non-test code (cmd/, examples/ and this package count),
//     or satisfies some interface, or sits on surfaceAllowlist naming the
//     other package's test that calls it.
//   - Fuzz inventory: every package exporting a Decode*/Parse*/Read* func
//     that takes []byte or an io.Reader has a Fuzz* target.
//   - No write-only state: every struct field under internal/ without a
//     json tag is read by non-test code or sits on fieldAllowlist naming
//     the test that reads it, and every unexported package-level
//     declaration there is used.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// surfaceAllowlist holds the exported identifiers under internal/ that no
// non-test code uses but a test in another package calls. Each key is
// "pkg.Name" or "pkg.Type.Method" (pkg is the import path below the
// module); each value is the test file, relative to the module root, that
// calls it.
var surfaceAllowlist = map[string]string{
	"internal/sim.CarrierPool.Len":  "internal/scenario/freelist_test.go",
	"internal/sim.Carriers.Len":     "internal/scenario/freelist_test.go",
	"internal/sim.Carriers.Pool":    "internal/scenario/freelist_test.go",
	"internal/sim.Kernel.RunAll":    "internal/dhcp/dhcp_test.go",
	"internal/sim.Kernel.SlotCap":   "internal/shard/arena_test.go",
	"internal/tcpsim.SegPool.Len":   "internal/scenario/freelist_test.go",
	"internal/wifi.Frame.PoolOwned": "internal/core/txq_test.go",
	"internal/wifi.ProtoPing":       "internal/core/driver_test.go",
}

// srcPackage is one type-checked non-test package of the module.
type srcPackage struct {
	Path  string // import path
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// srcModule is a type-checked module: its packages in dependency order.
type srcModule struct {
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*srcPackage
}

// loadModule parses and type-checks every non-test package below root,
// skipping testdata and dot/underscore directories. The standard library
// is type-checked from source.
func loadModule(root string) (*srcModule, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		ip := modPath
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		files[ip] = append(files[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	pkgs, err := checkPackages(fset, files)
	if err != nil {
		return nil, err
	}
	return &srcModule{Path: modPath, Fset: fset, Pkgs: pkgs}, nil
}

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// checkPackages type-checks the given packages (import path -> parsed
// files) in dependency order. Imports outside the set come from the
// standard library's source.
func checkPackages(fset *token.FileSet, files map[string][]*ast.File) ([]*srcPackage, error) {
	std := importer.ForCompiler(fset, "source", nil)
	done := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := done[path]; ok {
			return p, nil
		}
		if _, ok := files[path]; ok {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return std.Import(path)
	})
	var out []*srcPackage
	visiting := map[string]bool{}
	var visit func(path string) error
	visit = func(path string) error {
		if done[path] != nil || visiting[path] {
			return nil
		}
		visiting[path] = true
		fs := files[path]
		for _, f := range fs {
			for _, is := range f.Imports {
				dep := strings.Trim(is.Path.Value, `"`)
				if _, ok := files[dep]; ok {
					if err := visit(dep); err != nil {
						return err
					}
				}
			}
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Instances:  map[*ast.Ident]types.Instance{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(path, fset, fs, info)
		if err != nil {
			return err
		}
		done[path] = p
		out = append(out, &srcPackage{Path: path, Files: fs, Types: p, Info: info})
		return nil
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// objectName is "pkg.Name" or "pkg.Type.Method", pkg relative to the
// module path.
func objectName(modPath string, obj types.Object) string {
	pkg := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), modPath), "/")
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return pkg + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return pkg + "." + obj.Name()
}

// unusedExported lists, sorted, every exported package-level func, const
// or var and every exported method declared in a package under internal/
// that no code in m refers to and, for a method, that satisfies no
// interface type m or its imports mention.
func unusedExported(m *srcModule) []string {
	used := map[types.Object]bool{}
	for _, p := range m.Pkgs {
		for _, obj := range p.Info.Uses {
			used[origin(obj)] = true
		}
	}
	ifaces, instances := interfaceTypes(m)
	var out []string
	for _, p := range m.Pkgs {
		if !strings.HasPrefix(p.Path, m.Path+"/internal/") {
			continue
		}
		for _, obj := range p.Info.Defs {
			if obj == nil || !obj.Exported() || used[obj] {
				continue
			}
			switch o := obj.(type) {
			case *types.Const, *types.Var:
				if o.Parent() != p.Types.Scope() {
					continue // locals, fields and parameters
				}
			case *types.Func:
				recv := o.Type().(*types.Signature).Recv()
				if recv == nil {
					break
				}
				if _, ok := recv.Type().Underlying().(*types.Interface); ok {
					continue // interface methods are contracts, not surface
				}
				if satisfiesInterface(o, ifaces, instances) {
					continue
				}
			default:
				continue
			}
			out = append(out, objectName(m.Path, obj))
		}
	}
	sort.Strings(out)
	return out
}

// origin maps a method or field of an instantiated generic type back to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// interfaceTypes collects every method-set interface the module's
// packages mention, including instantiations of generic ones (walked out
// of every typed expression, definition, use and instance), plus every
// named interface of the packages they import, transitively.
func interfaceTypes(m *srcModule) (ifaces []*types.Interface, instances map[*types.Named][]*types.Named) {
	seen := map[types.Type]bool{}
	instances = map[*types.Named][]*types.Named{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if t.TypeParams().Len() > 0 && t.TypeArgs().Len() == 0 {
				return // uninstantiated generic
			}
			if t.TypeArgs().Len() > 0 {
				instances[t.Origin()] = append(instances[t.Origin()], t)
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
			walk(t.Underlying())
		case *types.Interface:
			if t.IsMethodSet() && t.NumMethods() > 0 {
				ifaces = append(ifaces, t)
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		}
	}
	walk(types.Universe.Lookup("error").Type())
	pkgSeen := map[*types.Package]bool{}
	var walkPkg func(p *types.Package)
	walkPkg = func(p *types.Package) {
		if pkgSeen[p] {
			return
		}
		pkgSeen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				walk(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walkPkg(q)
		}
	}
	for _, p := range m.Pkgs {
		walkPkg(p.Types)
		for _, tv := range p.Info.Types {
			walk(tv.Type)
		}
		for _, obj := range p.Info.Defs {
			if obj != nil {
				walk(obj.Type())
			}
		}
		for _, obj := range p.Info.Uses {
			walk(obj.Type())
		}
		for _, inst := range p.Info.Instances {
			walk(inst.Type)
		}
	}
	return ifaces, instances
}

// satisfiesInterface reports whether fn's receiver type, or a pointer to
// it, implements an interface in ifaces that has a method named fn. A
// generic receiver type is tried at each of its instantiations.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface, instances map[*types.Named][]*types.Named) bool {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	recvs := []*types.Named{n}
	if n.TypeParams().Len() > 0 {
		recvs = instances[n.Origin()]
	}
	for _, it := range ifaces {
		if !hasMethod(it, fn.Name()) {
			continue
		}
		for _, r := range recvs {
			if types.Implements(r, it) || types.Implements(types.NewPointer(r), it) {
				return true
			}
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// moduleForTest loads the module once per test binary.
var moduleForTest = sync.OnceValues(func() (*srcModule, error) { return loadModule(".") })

func TestSurface(t *testing.T) {
	m, err := moduleForTest()
	if err != nil {
		t.Fatal(err)
	}
	unused := unusedExported(m)
	listed := map[string]bool{}
	for _, name := range unused {
		file, ok := surfaceAllowlist[name]
		if !ok {
			t.Errorf("%s: exported, but no non-test code uses it; delete it, unexport it, or allowlist the other package's test that calls it", name)
			continue
		}
		listed[name] = true
		src, err := os.ReadFile(file)
		if err != nil {
			t.Errorf("%s: allowlisted for %s: %v", name, file, err)
			continue
		}
		pkgDir, _, _ := strings.Cut(name, ".")
		ident := name[strings.LastIndex(name, ".")+1:]
		if strings.HasPrefix(file, pkgDir+"/") || !strings.Contains(string(src), ident) {
			t.Errorf("%s: allowlist entry must name another package's test that calls it, not %s", name, file)
		}
	}
	for name := range surfaceAllowlist {
		if !listed[name] {
			t.Errorf("%s: on the allowlist, but production code uses it or it is gone; drop the entry", name)
		}
	}
}

// TestFuzzInventory requires a Fuzz* target in every package that exports
// a Decode*, Parse* or Read* func taking []byte or an io.Reader: each is
// a decoder that untrusted bytes can reach.
func TestFuzzInventory(t *testing.T) {
	m, err := moduleForTest()
	if err != nil {
		t.Fatal(err)
	}
	decoders := 0
	for _, p := range m.Pkgs {
		var names []string
		for _, name := range p.Types.Scope().Names() {
			fn, ok := p.Types.Scope().Lookup(name).(*types.Func)
			if ok && fn.Exported() && takesBytes(fn) &&
				(strings.HasPrefix(name, "Decode") || strings.HasPrefix(name, "Parse") || strings.HasPrefix(name, "Read")) {
				names = append(names, name)
			}
		}
		if len(names) == 0 {
			continue
		}
		decoders += len(names)
		dir := "." + strings.TrimPrefix(p.Path, m.Path)
		ok, err := hasFuzzTarget(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("%s exports %s but has no Fuzz* target", p.Path, strings.Join(names, ", "))
		}
	}
	if decoders == 0 {
		t.Fatal("found no decoders; the inventory is not looking")
	}
}

// takesBytes reports whether a parameter of fn is a []byte or an
// io.Reader.
func takesBytes(fn *types.Func) bool {
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		switch pt := params.At(i).Type().(type) {
		case *types.Slice:
			if b, ok := pt.Elem().(*types.Basic); ok && b.Kind() == types.Byte {
				return true
			}
		case *types.Named:
			if o := pt.Obj(); o.Pkg() != nil && o.Pkg().Path() == "io" && o.Name() == "Reader" {
				return true
			}
		}
	}
	return false
}

// hasFuzzTarget reports whether a _test.go file in dir declares a
// top-level func Fuzz*.
func hasFuzzTarget(dir string) (bool, error) {
	tests, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return false, err
	}
	fset := token.NewFileSet()
	for _, path := range tests {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return false, err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Fuzz") {
				return true, nil
			}
		}
	}
	return false, nil
}

// surfaceFixture is a package under internal/ for the checker's own
// tests: one method no code uses, one that satisfies a plain interface
// and one that satisfies only an instantiation of a generic interface.
const surfaceFixture = `package a

type Owner[P any] interface{ Arrive(p P) }

type Plain interface{ Ping() }

type T struct{}

func (T) Unused()        {}
func (T) Ping()          {}
func (*T) Arrive(n int) {}

func Register[P any](o Owner[P]) {}
`

// checkFixture type-checks surfaceFixture and a main package with the
// given body, and returns what unusedExported flags.
func checkFixture(t *testing.T, body string) []string {
	t.Helper()
	return unusedExported(fixtureModule(t, map[string]string{
		"fixture/internal/a": surfaceFixture,
		"fixture/cmd/x":      "package main\n\nimport \"fixture/internal/a\"\n\nfunc main() {\n" + body + "\n}\n",
	}))
}

// fixtureModule type-checks in-memory packages (import path -> source)
// as the module "fixture".
func fixtureModule(t *testing.T, srcs map[string]string) *srcModule {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	for path, src := range srcs {
		f, err := parser.ParseFile(fset, path+"/x.go", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		files[path] = []*ast.File{f}
	}
	pkgs, err := checkPackages(fset, files)
	if err != nil {
		t.Fatal(err)
	}
	return &srcModule{Path: "fixture", Fset: fset, Pkgs: pkgs}
}

func TestSurfaceCheckerFixture(t *testing.T) {
	got := checkFixture(t, "\ta.Register[int](&a.T{})")
	if want := []string{"internal/a.T.Unused"}; !slices.Equal(got, want) {
		t.Errorf("flagged %q, want %q: an unused method is flagged, Ping (plain interface) and Arrive (Owner[int]) pass", got, want)
	}
	// Without the instantiation no interface has an Arrive(int) method,
	// so Arrive is flagged too, and so is Register, now unused itself.
	got = checkFixture(t, "\tvar _ a.T")
	if want := []string{"internal/a.Register", "internal/a.T.Arrive", "internal/a.T.Unused"}; !slices.Equal(got, want) {
		t.Errorf("without Owner[int]: flagged %q, want %q", got, want)
	}
}

// fieldAllowlist holds the struct fields under internal/ that no
// non-test code reads but a test reads as an oracle of behaviour. Each
// key is "pkg.Type.Field" (pkg is the import path below the module);
// each value is the test file, relative to the module root, that reads
// it.
var fieldAllowlist = map[string]string{
	"internal/backhaul.State.BlackholeDrops": "internal/scenario/freelist_test.go",
	"internal/dhcp.Result.Elapsed":           "internal/dhcp/dhcp_test.go",
	"internal/dhcp.Result.Retx":              "internal/dhcp/dhcp_test.go",
	"internal/mac.APStats.DownDelivered":     "internal/mac/timers_test.go",
	"internal/mac.AssocResult.Stage":         "internal/mac/mac_test.go",
}

// writeOnly lists, sorted, every struct field declared in a package
// under internal/ that code in m never reads, and every unexported
// package-level declaration there that nothing uses. A field use is a
// write when it is the selector on the left of =, op= or ++/--, or a key
// in a composite literal; every other use is a read, and so is every
// embedded field a promoted selector passes through. Fields with a json
// tag belong to documents, which code outside the module reads; they
// are skipped.
func writeOnly(m *srcModule) []string {
	read := map[types.Object]bool{}
	used := map[types.Object]bool{}
	for _, p := range m.Pkgs {
		written := map[*ast.Ident]bool{}
		lhs := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				written[sel.Sel] = true
			}
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, e := range n.Lhs {
							lhs(e)
						}
					}
				case *ast.IncDecStmt:
					lhs(n.X)
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						written[id] = true
					}
				}
				return true
			})
		}
		for id, obj := range p.Info.Uses {
			used[origin(obj)] = true
			if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
				read[origin(v)] = true
			}
		}
		for _, s := range p.Info.Selections {
			t := s.Recv()
			for _, i := range s.Index()[:len(s.Index())-1] {
				if ptr, ok := t.Underlying().(*types.Pointer); ok {
					t = ptr.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				read[origin(st.Field(i))] = true
				t = st.Field(i).Type()
			}
		}
	}
	var out []string
	for _, p := range m.Pkgs {
		if !strings.HasPrefix(p.Path, m.Path+"/internal/") {
			continue
		}
		pkg := strings.TrimPrefix(p.Path, m.Path+"/")
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if !n.Assign.IsValid() { // an alias names fields declared elsewhere
						out = appendUnread(out, read, pkg+"."+n.Name.Name, p.Info.Defs[n.Name].Type().Underlying())
					}
					return false
				case *ast.StructType: // a struct type outside a type declaration
					out = appendUnread(out, read, pkg+".struct", p.Info.TypeOf(n))
					return false
				}
				return true
			})
		}
		for id, obj := range p.Info.Defs {
			if obj == nil || id.Name == "_" || obj.Exported() || obj.Parent() != p.Types.Scope() || used[obj] {
				continue
			}
			if _, ok := obj.(*types.Func); ok && (id.Name == "init" || id.Name == "main") {
				continue
			}
			out = append(out, objectName(m.Path, obj))
		}
	}
	sort.Strings(out)
	return out
}

// appendUnread appends "prefix.Field" for every field of t, a struct
// type or a pointer, slice, array or map of one, that is not in read and
// has no json tag, descending into unnamed struct types in fields as
// "prefix.Field.Inner".
func appendUnread(out []string, read map[types.Object]bool, prefix string, t types.Type) []string {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			t = u.Elem()
			continue
		case *types.Array:
			t = u.Elem()
			continue
		case *types.Map:
			t = u.Elem()
			continue
		}
		break
	}
	st, ok := t.(*types.Struct)
	if !ok {
		return out
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() == "_" {
			continue
		}
		if _, doc := reflect.StructTag(st.Tag(i)).Lookup("json"); !doc && !read[f] {
			out = append(out, prefix+"."+f.Name())
		}
		out = appendUnread(out, read, prefix+"."+f.Name(), f.Type())
	}
	return out
}

// TestNoWriteOnlyFields: every struct field under internal/ is read by
// non-test code or allowlisted for the test that reads it, and every
// unexported package-level declaration there is used. State nothing
// reads is state every checkpoint carries for nothing.
func TestNoWriteOnlyFields(t *testing.T) {
	m, err := moduleForTest()
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, name := range writeOnly(m) {
		file, ok := fieldAllowlist[name]
		if !ok {
			t.Errorf("%s: nothing outside tests reads it; delete it, or allowlist the test that reads it", name)
			continue
		}
		listed[name] = true
		src, err := os.ReadFile(file)
		if err != nil {
			t.Errorf("%s: allowlisted for %s: %v", name, file, err)
			continue
		}
		if !strings.HasSuffix(file, "_test.go") || !strings.Contains(string(src), "."+name[strings.LastIndex(name, ".")+1:]) {
			t.Errorf("%s: allowlist entry must name a test that reads it, not %s", name, file)
		}
	}
	for name := range fieldAllowlist {
		if !listed[name] {
			t.Errorf("%s: on the allowlist, but production code reads it or it is gone; drop the entry", name)
		}
	}
}

// writeOnlyFixture is a package under internal/ for the field checker's
// own test: fields that are only assigned, only incremented, only set in
// a composite literal or only set through a nested struct; fields that
// are read, directly, after an op= write or through promotion; a field
// with a json tag; and three unused unexported declarations.
const writeOnlyFixture = `package a

type T struct {
	Written int
	Bumped  int
	Literal int
	Read    int
	Doc     int ` + "`json:\"doc\"`" + `
	Nested  struct{ Deep int }
	inner
}

type inner struct{ Promoted int }

var unusedVar int

func unusedFunc() {}

type unusedType struct{}

func New() *T { return &T{Literal: 1} }

func (t *T) Step() int {
	t.Written = 2
	t.Bumped++
	t.Read += 1
	t.Nested.Deep = 3
	return t.Read + t.Promoted
}
`

func TestWriteOnlyCheckerFixture(t *testing.T) {
	got := writeOnly(fixtureModule(t, map[string]string{"fixture/internal/a": writeOnlyFixture}))
	want := []string{
		"internal/a.T.Bumped", "internal/a.T.Literal", "internal/a.T.Nested.Deep", "internal/a.T.Written",
		"internal/a.unusedFunc", "internal/a.unusedType", "internal/a.unusedVar",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flagged %q, want %q", got, want)
	}
}

package bcpqp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported internal names that no program uses
// and that stay anyway, each with the test outside its package that needs
// it: such a test cannot reach an unexported name. An entry that names a
// type covers that type's methods too.
var exportAllowlist = map[string]string{
	"faultinject.New":                       "mbox's chaos tests and the proxy's health test wrap enforcers in injected faults: TestChaosStorm, TestHealthzQuarantineDegradedBut200",
	"faultinject.NewNetLink":                "cluster's chaos test runs the exchange over faulty links: TestChaosClusterAcceptedBytes",
	"faultinject.NetLink":                   "cluster's chaos test cuts, heals and counts its links: TestChaosClusterAcceptedBytes",
	"workload.NewFlashCrowd":                "mbox replays a flash crowd: TestChaosFlashCrowdLifecycle",
	"workload.FlashCrowd":                   "mbox replays a flash crowd: TestChaosFlashCrowdLifecycle",
	"phantom.MustNew":                       "enforcer's and mbox's tests build phantom queues: TestStageLeavesPacketAlone, TestClaimedEqualsQueued",
	"fairpolicer.MustNew":                   "mbox's model and enforcer's equivalence test build FairPolicers: FuzzEngineModel, TestBatchSingleEquivalence",
	"obs.NewAudit":                          "mbox's model and phantom's fuzz target audit against their own envelopes: FuzzEngineModel, FuzzSubmitInvariants",
	"experiments.EfficiencyRig.SubmitBurst": "the root benchmark times each scheme's datapath: BenchmarkEnforcersBatch",
	"fairpolicer.FairPolicer.MainTokens":    "harness and the proxy check a FairPolicer's bucket size: TestBuildEnforcer",
	"tbf.Policer.Bucket":                    "harness and the proxy check a policer's bucket size: TestBuildEnforcer",
	"shaper.Shaper.QueuedBytes":             "harness checks a shaper's queue size: TestBuildEnforcer",
	"shaper.Shaper.AvgQueueingDelay":        "harness compares a shaper's queueing delay with BC-PQP's: TestShaperAddsQueueingDelayBCPQPDoesNot",
	"phantom.PQP.QueueLength":               "harness and ptree read phantom queue lengths: TestBuildEnforcer, TestNoPhantomLeakOnOuterDrop",
	"phantom.PQP.MagicBytes":                "mbox's model checks magic bytes after every flush: FuzzEngineModel",
	"phantom.PQP.NumQueues":                 "the facade's defaults test: TestNewBCPQPDefaults",
	"ptree.Tree.Leaves":                     "mbox checks leaf routing: TestLeafSubmissionRoutesToNodes",
	"obs.DigestSnapshot.Encode":             "mbox pins its digests' wire bytes: TestWatcherExportGolden",
	"sim.Loop.RunAll":                       "netem's tests run their loop dry: TestBottleneckSerializes",
}

// listedPackage is the part of `go list -json` the export check reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	Export     string
	GoFiles    []string
}

// goList runs `go list -json` with args and decodes its stream of packages.
func goList(t *testing.T, args ...string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list %v: %v\n%s", args, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// TestEveryExportHasACaller type-checks the module, tests included, and
// holds every exported top-level name and every exported method that a
// non-test file under internal/ declares to two rules:
//
//	(A) some non-test file of the module refers to it, or it is on
//	    exportAllowlist;
//	(B) some file of another package, test or not, refers to it; a type
//	    also passes when a name that another package sees exposes it,
//	    through its signature, exported fields or exported methods.
//
// A method also passes both when its receiver implements an interface that
// a non-test file uses (names, takes as a parameter or spells out) and that
// interface declares the method, as String, Error or enforcer.Enforcer's
// methods do. A method's receiver and a declaration do not count as uses.
// An allowlist entry that gains a program caller, names nothing, or names no
// test outside its package fails too. Module packages are checked from
// source, the standard library from the export data `go list -export`
// names.
func TestEveryExportHasACaller(t *testing.T) {
	const module = "bcpqp"
	inModule := func(path string) bool { return path == module || strings.HasPrefix(path, module+"/") }
	listed := goList(t, "-export", "-deps", "./...")
	byPath := map[string]listedPackage{}
	var order []string // module packages, dependencies first
	for _, p := range listed {
		byPath[p.ImportPath] = p
		if !p.Standard {
			order = append(order, p.ImportPath)
		}
	}

	// Each module package's files: its own, its in-package tests and its
	// external _test package, each test file kept if this build selects it.
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	type pkgFiles struct{ src, tests, xtests []*ast.File }
	parsed := map[string]*pkgFiles{}
	var testOnly []string // standard packages that only tests import
	for _, path := range order {
		p, pf := byPath[path], &pkgFiles{}
		parsed[path] = pf
		for _, name := range p.GoFiles {
			pf.src = append(pf.src, parse(filepath.Join(p.Dir, name)))
		}
		names, err := filepath.Glob(filepath.Join(p.Dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if ok, err := build.Default.MatchFile(p.Dir, filepath.Base(name)); err != nil || !ok {
				continue
			}
			f := parse(name)
			if strings.HasSuffix(f.Name.Name, "_test") {
				pf.xtests = append(pf.xtests, f)
			} else {
				pf.tests = append(pf.tests, f)
			}
			for _, imp := range f.Imports {
				imp, _ := strconv.Unquote(imp.Path.Value)
				if _, ok := byPath[imp]; !ok && !inModule(imp) {
					testOnly = append(testOnly, imp)
				}
			}
		}
	}
	if len(testOnly) > 0 {
		for _, p := range goList(t, append([]string{"-export", "-deps"}, testOnly...)...) {
			if _, ok := byPath[p.ImportPath]; !ok {
				byPath[p.ImportPath] = p
			}
		}
	}

	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		p, ok := byPath[path]
		if !ok || p.Export == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(p.Export)
	})
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	// A file is a test file or not, and belongs to the package it tests:
	// an external _test package counts as its own package's tests.
	type fileInfo struct {
		ast  *ast.File
		home string
		test bool
	}
	var files []fileInfo
	checked := map[string]*types.Package{}
	var check func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if parsed[path] != nil {
			return check(path)
		}
		return std.Import(path)
	})
	conf := types.Config{Importer: imp}
	// check type-checks a module package together with its in-package test
	// files, which only add to it, so every importer sees one package.
	check = func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		pf := parsed[path]
		pkg, err := conf.Check(path, fset, append(pf.src[:len(pf.src):len(pf.src)], pf.tests...), info)
		if err != nil {
			return nil, err
		}
		checked[path] = pkg
		for _, f := range pf.src {
			files = append(files, fileInfo{f, path, false})
		}
		for _, f := range append(pf.tests, pf.xtests...) {
			files = append(files, fileInfo{f, path, true})
		}
		if len(pf.xtests) > 0 {
			if _, err := conf.Check(path+"_test", fset, pf.xtests, info); err != nil {
				return nil, err
			}
		}
		return pkg, nil
	}
	for _, path := range order {
		if _, err := check(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}

	// The exported names non-test files under internal/ declare, and where.
	internal := module + "/internal/"
	declared := map[types.Object]string{} // object → pkg.Name or pkg.Type.Method
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.home, internal) {
			continue
		}
		short := strings.TrimPrefix(f.home, internal)
		short = short[strings.LastIndex(short, "/")+1:]
		add := func(id *ast.Ident, name string) {
			if id.IsExported() {
				declared[info.Defs[id]] = name
			}
		}
		for _, decl := range f.ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, short+"."+d.Name.Name)
				} else {
					recv := info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
					if p, ok := recv.(*types.Pointer); ok {
						recv = p.Elem()
					}
					add(d.Name, short+"."+recv.(*types.Named).Obj().Name()+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, short+"."+s.Name.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, short+"."+id.Name)
						}
					}
				}
			}
		}
	}

	// Uses, by whether a non-test file makes one and whether another
	// package does. A method's receiver type is not a use of that type.
	program, outside := map[types.Object]bool{}, map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{}
	addIface := func(typ types.Type) {
		if iface, ok := typ.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
			if n, ok := typ.(*types.Named); !ok || n.TypeParams().Len() == 0 {
				ifaces[iface] = true
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	if fmtPkg, err := imp.Import("fmt"); err == nil {
		addIface(fmtPkg.Scope().Lookup("Stringer").Type()) // fmt calls it through any
	} else {
		t.Fatal(err)
	}
	for _, f := range files {
		receivers := map[*ast.Ident]bool{}
		for _, decl := range f.ast.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Recv != nil {
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						receivers[id] = true
					}
					return true
				})
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				if !f.test {
					addIface(info.Types[n].Type)
				}
			case *ast.Ident:
				obj := info.Uses[n]
				if obj == nil || receivers[n] {
					return true
				}
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
				}
				if !f.test {
					program[obj] = true
					if tn, ok := obj.(*types.TypeName); ok {
						addIface(tn.Type())
					}
					if sig, ok := obj.Type().(*types.Signature); ok {
						for i := 0; i < sig.Params().Len(); i++ {
							typ := sig.Params().At(i).Type()
							if s, ok := typ.(*types.Slice); ok && sig.Variadic() && i == sig.Params().Len()-1 {
								typ = s.Elem()
							}
							addIface(typ)
						}
					}
				}
				if obj.Pkg() != nil && obj.Pkg().Path() != f.home {
					outside[obj] = true
				}
			}
			return true
		})
	}

	// Methods that a used interface declares, on every module type that
	// implements it, promoted methods included.
	viaIface := map[types.Object]bool{}
	for _, path := range order {
		scope := checked[path].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if _, ok := named.Underlying().(*types.Interface); ok {
				continue
			}
			ptr := types.NewPointer(named)
			for iface := range ifaces {
				if !types.Implements(ptr, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m, _, _ := types.LookupFieldOrMethod(ptr, true, nil, iface.Method(i).Name())
					if m != nil {
						viaIface[m] = true
					}
				}
			}
		}
	}

	// Module types that another package sees: named in a signature, an
	// exported field or an exported method of a name another package uses.
	visible := map[types.Object]bool{}
	var queue []types.Object
	see := func(obj types.Object) {
		if obj.Pkg() != nil && inModule(obj.Pkg().Path()) && !visible[obj] {
			visible[obj] = true
			queue = append(queue, obj)
		}
	}
	for obj := range outside {
		see(obj)
	}
	seen := map[types.Type]bool{}
	var walk func(typ types.Type)
	walk = func(typ types.Type) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ := typ.(type) {
		case *types.Named:
			see(typ.Origin().Obj())
			for i := 0; i < typ.TypeArgs().Len(); i++ {
				walk(typ.TypeArgs().At(i))
			}
		case *types.Alias:
			walk(types.Unalias(typ))
		case *types.Pointer:
			walk(typ.Elem())
		case *types.Slice:
			walk(typ.Elem())
		case *types.Array:
			walk(typ.Elem())
		case *types.Chan:
			walk(typ.Elem())
		case *types.Map:
			walk(typ.Key())
			walk(typ.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{typ.Params(), typ.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					walk(tuple.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < typ.NumFields(); i++ {
				if f := typ.Field(i); f.Exported() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < typ.NumMethods(); i++ {
				if m := typ.Method(i); m.Exported() {
					walk(m.Type())
				}
			}
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		switch obj := obj.(type) {
		case *types.TypeName:
			walk(obj.Type().Underlying())
			if named, ok := obj.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); viaIface[m] {
						see(m)
					}
				}
			}
		default:
			walk(obj.Type())
		}
	}

	// The allowlist's entries: each names something declared, and a test
	// outside that thing's package.
	byName := map[string]types.Object{}
	for obj, name := range declared {
		byName[name] = obj
	}
	testHome := map[string][]string{} // test func name → packages declaring it
	for _, f := range files {
		if !f.test {
			continue
		}
		for _, decl := range f.ast.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Recv == nil {
				testHome[d.Name.Name] = append(testHome[d.Name.Name], f.home)
			}
		}
	}
	testName := regexp.MustCompile(`\b(Test|Fuzz|Benchmark)[A-Z]\w*`)
	allowed := map[string]bool{} // entries that cover a flagged name
	for entry, why := range exportAllowlist {
		obj, ok := byName[entry]
		if !ok {
			t.Errorf("%s: on exportAllowlist but not declared; drop the entry", entry)
			continue
		}
		names := testName.FindAllString(why, -1)
		if len(names) == 0 {
			t.Errorf("%s: its exportAllowlist entry names no test", entry)
		}
		for _, name := range names {
			ok := false
			for _, home := range testHome[name] {
				ok = ok || home != obj.Pkg().Path()
			}
			if !ok {
				t.Errorf("%s: its exportAllowlist entry names %s, which is no test outside %s", entry, name, obj.Pkg().Name())
			}
		}
	}
	entryFor := func(name string) string {
		if _, ok := exportAllowlist[name]; ok {
			return name
		}
		if i := strings.LastIndex(name, "."); strings.Count(name, ".") == 2 {
			if _, ok := exportAllowlist[name[:i]]; ok {
				return name[:i]
			}
		}
		return ""
	}

	var noCaller, ownOnly []string
	for obj, name := range declared {
		where := name + " (" + fset.Position(obj.Pos()).String() + ")"
		if !program[obj] && !viaIface[obj] {
			if entry := entryFor(name); entry != "" {
				allowed[entry] = true
			} else {
				noCaller = append(noCaller, where)
			}
		}
		_, isType := obj.(*types.TypeName)
		if !outside[obj] && !viaIface[obj] && !(isType && visible[obj]) {
			ownOnly = append(ownOnly, where)
		}
	}
	sort.Strings(noCaller)
	sort.Strings(ownOnly)
	for _, w := range noCaller {
		t.Errorf("(A) %s: exported, and no non-test file refers to it", w)
	}
	for _, w := range ownOnly {
		t.Errorf("(B) %s: exported, and only its own package refers to it; unexport it", w)
	}
	for entry := range exportAllowlist {
		if _, ok := byName[entry]; ok && !allowed[entry] {
			t.Errorf("%s: on exportAllowlist but has a non-test caller; drop the entry", entry)
		}
	}
	t.Logf("%d exported declarations under internal/", len(declared))
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

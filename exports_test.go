package bcpqp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported internal functions that no program
// calls and that stay anyway, each with the test that needs it: a test
// outside its package, which cannot reach an unexported name, or a test the
// suite pins by name.
var exportAllowlist = map[string]string{
	"faultinject.New":        "tests in mbox, the proxy and the root benchmarks wrap enforcers in injected faults",
	"faultinject.NewNetLink": "cluster's chaos and exchange tests run over faulty links",
	"workload.NewFlashCrowd": "mbox's overload tests replay a flash crowd",
	"phantom.MustNew":        "tests in mbox, ptree and enforcer build phantom queues",
	"fairpolicer.MustNew":    "mbox's model and enforcer's equivalence test build FairPolicers",
	"obs.NewAudit":           "mbox's model and phantom's fuzz target audit against their own envelopes",
	"phantom.NewRecorder":    "TestRecorderRing",
	"metrics.WeightedJain":   "TestWeightedJain",
	"netem.EnforceQueued":    "TestEnforceQueuedSubmitsOnly",
	"obs.DecodeDigest":       "TestDigestCodecRoundTrip, TestDigestGoldenBQAD and FuzzAuditDigestDecode",
}

// TestEveryExportHasACaller: every exported top-level func, type, var and
// const that a non-test file under internal/ declares is referenced from
// some non-test file of the module, as pkg.Name through an import or as a
// bare Name inside its own package; the declaration itself does not count.
// Methods are out of scope: a check that only parses cannot tell two
// methods of one name apart. What is flagged must be on exportAllowlist,
// and an entry that gains a non-test caller, or names nothing, fails too.
func TestEveryExportHasACaller(t *testing.T) {
	const module = "bcpqp"
	type file struct {
		pkg string // import path
		ast *ast.File
	}
	var files []file
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{path.Join(module, filepath.ToSlash(filepath.Dir(p))), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Exported top-level names declared under internal/, keyed by import
	// path and name, and the identifiers that declare them.
	internal := module + "/internal/"
	declared := map[string]token.Position{}
	declIdent := map[*ast.Ident]bool{}
	key := func(pkg, name string) string { return pkg + "." + name }
	for _, f := range files {
		if !strings.HasPrefix(f.pkg, internal) {
			continue
		}
		add := func(id *ast.Ident) {
			if id.IsExported() {
				declared[key(f.pkg, id.Name)] = fset.Position(id.Pos())
				declIdent[id] = true
			}
		}
		for _, decl := range f.ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id)
						}
					}
				}
			}
		}
	}

	// References: a selector through an import of the module, or a bare
	// identifier in the declaring package. The selected name of any other
	// selector is a field or a method, never a top-level name.
	pkgName := map[string]string{}
	for _, f := range files {
		pkgName[f.pkg] = f.ast.Name.Name
	}
	referenced := map[string]bool{}
	for _, f := range files {
		imports := map[string]string{}
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := pkgName[p]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						referenced[key(p, n.Sel.Name)] = true
						return false
					}
				}
				ast.Inspect(n.X, visit) // and not Sel
				return false
			case *ast.Ident:
				if !declIdent[n] {
					referenced[key(f.pkg, n.Name)] = true
				}
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	var flagged []string
	for k, pos := range declared {
		short := strings.TrimPrefix(k, internal)
		_, allowed := exportAllowlist[short]
		switch {
		case referenced[k] && allowed:
			t.Errorf("%s: on exportAllowlist but has a non-test caller; drop the entry", short)
		case !referenced[k] && !allowed:
			flagged = append(flagged, short+" ("+pos.String()+")")
		}
	}
	sort.Strings(flagged)
	for _, f := range flagged {
		t.Errorf("%s: exported, and no non-test file refers to it", f)
	}
	for short := range exportAllowlist {
		if _, ok := declared[internal+short]; !ok {
			t.Errorf("%s: on exportAllowlist but not declared; drop the entry", short)
		}
	}
}

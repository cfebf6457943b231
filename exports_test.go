package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowList names the exported functions and methods that no
// non-test file outside bench/ calls but that stay, each with its reason.
// Keys are "<dir>.<Func>" or "<dir>.<Recv>.<Method>".
var exportAllowList = map[string]string{
	"internal/compiler.VerifyTranslated":     "checker: §4.1.2's every-access-translated check the compiler and workload tests run",
	"internal/fault.InjectedError.Unwrap":    "interface: errors.Is and errors.As call it",
	"internal/fault.ScriptFS.Clear":          "cross-package test probe: the server's readyz tests heal a scripted fault",
	"internal/fault.ScriptFS.Injected":       "cross-package test probe: the server's boot test counts injected faults",
	"internal/handle.Table.Extent":           "cross-package test probe: rt tests check a failed Halloc leaves the table's extent",
	"internal/handle.Table.ForEachLive":      "bench/ caller (ledger.go)",
	"internal/handle.Table.Live":             "cross-package test probe: rt tests count live handles",
	"internal/kv.ShardedStore.GetInto":       "bench/ caller (ledger.go, alaskad.go, trace.go)",
	"internal/kv.ShardedStore.SetExBytes":    "bench/ caller (ledger.go, trace.go)",
	"internal/locality.Optimizer.ResetArena": "cross-package test probe: BenchmarkLocalityOptimize rewinds the arena between runs",
	"internal/logx.Logger.GetLevel":          "cross-package test probe: the server's observability test reads the live log level",
	"internal/mem.Region.ResidentPages":      "test probe: the mem race tests check RSS against the residency bits",
	"internal/rt.Runtime.SizeOf":             "cross-package test probe: the swap tests size the objects they swap",
	"internal/server.Client.Decr":            "wire method: Client speaks every storage command and the conformance tests drive it",
	"internal/server.Client.Gat":             "wire method: Client speaks every storage command and the TTL tests drive it",
	"internal/server.Client.Replace":         "wire method: Client speaks every storage command and the conformance tests drive it",
	"internal/server.Server.OpLatency":       "bench/ caller (layers.go)",
}

// TestNoExportOnlyTestsCall keeps product code that only tests call out of
// the tree: it parses every non-test Go file outside bench/ and fails on an
// exported function or method whose name no non-test file uses, unless
// exportAllowList names it. The scan is by name, so it is a lower bound (a
// common name such as Max is used somewhere and hides). It also fails on an
// allow-list entry the scan no longer finds, so the list cannot go stale.
// Mutation: re-adding stats.Stddev (its only caller a stats test) fails it.
func TestNoExportOnlyTestsCall(t *testing.T) {
	type export struct{ key, name string }
	var exports []export
	used := map[string]bool{} // identifiers, declarations of funcs excluded
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if fd.Name.IsExported() {
				exports = append(exports, export{exportKey(path, fd), fd.Name.Name})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	var unused []string
	for _, e := range exports {
		if used[e.name] {
			continue
		}
		found[e.key] = true
		if _, ok := exportAllowList[e.key]; !ok {
			unused = append(unused, e.key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("%s is exported but no non-test file outside bench/ uses it: delete it, or allow-list it with a reason", key)
	}
	for key := range exportAllowList {
		if !found[key] {
			t.Errorf("allow-list entry %s is stale: it is gone or a non-test file now uses it", key)
		}
	}
}

// exportKey names a function "<dir>.<Func>" and a method
// "<dir>.<Recv>.<Method>".
func exportKey(path string, fd *ast.FuncDecl) string {
	key := filepath.ToSlash(filepath.Dir(path)) + "."
	if fd.Recv != nil {
		typ := fd.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		if ix, ok := typ.(*ast.IndexExpr); ok {
			typ = ix.X
		}
		if id, ok := typ.(*ast.Ident); ok {
			key += id.Name + "."
		}
	}
	return key + fd.Name.Name
}

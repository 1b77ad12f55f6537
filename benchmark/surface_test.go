package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The benchmark is frozen once it lands, so it must keep compiling while later
// PRs delete env.Real, rework the harness packages and restructure the server.
// These lists are the whole surface it may depend on; anything else fails the
// test rather than the next refactor.

// allowedImports are the repository packages the benchmark may import. The
// harness packages (workload, figures, bench, chaos, lincheck, baseline,
// stats, detlint) and the layers only reachable through the cluster (server,
// client, datanode, wire) are deliberately absent.
var allowedImports = map[string]bool{
	"switchfs/internal/cluster": true, "switchfs/internal/env": true,
	"switchfs/internal/fsapi": true, "switchfs/internal/core": true,
	"switchfs/internal/kv": true, "switchfs/internal/wal": true,
	"switchfs/internal/pswitch": true, "switchfs/internal/ring": true,
	"switchfs/internal/trace": true, "switchfs/internal/metrics": true,
}

// allowedNames are the package-level names used from each of them. Notably
// absent: env.Real / env.NewReal, wal.File / wal.OpenFile, cluster.NewPreload.
var allowedNames = map[string]string{
	"cluster": "New Options Cluster",
	"env": "NewSim Sim Proc Future NewFuture Duration Time NodeID NodeConfig " +
		"DefaultCosts Millisecond Microsecond",
	"fsapi": "FS",
	"core": "Attr TypeRegular TypeDir ErrTimeout ErrUnavailable ErrExist ErrInvalid " +
		"DirID NewIDGen Key Fingerprint FingerprintOf RootRef Inode EncodeInode DecodeInode " +
		"DefaultFilePerm LogEntry OpCreate OpDelete Compact SplitPath",
	"kv":      "New Store",
	"wal":     "NewMem Mem Record",
	"pswitch": "NewDirtySet DirtySet",
	"ring":    "New",
	"trace":   "New Config Recorder Span WriteJSON",
	"metrics": "New Delta",
}

// allowedClusterMembers are the selector paths allowed below a
// deployment.cluster value, index and call syntax dropped.
var allowedClusterMembers = map[string]bool{
	"Preload": true, "SpawnClient": true, "ClientFS": true, "Drain": true,
	"FillMetrics": true, "PerServerOps": true, "CrashServer": true, "RecoverServer": true,
	"Servers": true, "Servers.WAL": true, "Servers.WAL.Len": true, "Servers.KV": true,
	"Servers.KV.Len": true, "Servers.PendingClogEntries": true,
	"Switches": true, "Switches.Occupied": true, "Ring": true, "Ring.Version": true,
}

// selectorPath flattens a.b[i].c().d into [a b c d]; ok is false when the
// chain does not start at a plain identifier.
func selectorPath(e ast.Expr) (parts []string, ok bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return []string{e.Name}, true
	case *ast.SelectorExpr:
		parts, ok = selectorPath(e.X)
		return append(parts, e.Sel.Name), ok
	case *ast.CallExpr:
		return selectorPath(e.Fun)
	case *ast.IndexExpr:
		return selectorPath(e.X)
	case *ast.ParenExpr:
		return selectorPath(e.X)
	case *ast.StarExpr:
		return selectorPath(e.X)
	}
	return nil, false
}

func TestImportSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkgs := map[string]string{} // local name → allowed names
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(path, "switchfs/") && !strings.Contains(strings.SplitN(path, "/", 2)[0], ".") {
				continue // standard library
			}
			if !allowedImports[path] {
				t.Errorf("%s imports %s, which is outside the benchmark's frozen surface", name, path)
				continue
			}
			if path == "switchfs/internal/cluster" && name != "sut.go" {
				t.Errorf("%s imports the cluster package; only sut.go may", name)
			}
			local := path[strings.LastIndexByte(path, '/')+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			pkgs[local] = " " + allowedNames[path[strings.LastIndexByte(path, '/')+1:]] + " "
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			parts, ok := selectorPath(sel)
			if !ok {
				return true
			}
			pos := fset.Position(sel.Pos())
			if id, isIdent := sel.X.(*ast.Ident); isIdent && id.Obj == nil {
				if allowed, isPkg := pkgs[id.Name]; isPkg && !strings.Contains(allowed, " "+sel.Sel.Name+" ") {
					t.Errorf("%s: %s.%s is outside the benchmark's frozen surface", pos, id.Name, sel.Sel.Name)
				}
			}
			for i, part := range parts[:len(parts)-1] {
				if part != "cluster" || i == 0 {
					continue
				}
				if member := strings.Join(parts[i+1:], "."); !allowedClusterMembers[member] {
					t.Errorf("%s: Cluster member %s is outside the benchmark's frozen surface", pos, member)
				}
			}
			return true
		})
	}
}

// Command detlint runs the determinism and protocol-invariant analyzer
// suite (internal/detlint). It is a unitchecker binary: the go command
// drives it with per-package configuration, so it runs as
//
//	go vet -vettool=$(pwd)/bin/detlint ./...
//
// and composes with the standard vet analyzers' build cache. TestVetTree
// does exactly that inside `go test ./...` (`make detlint` runs it alone).
//
// `detlint -report [dir]` instead prints the suppression inventory — every
// //detlint: directive in the tree with its location and written reason —
// and exits non-zero if any directive is malformed or reason-less
// (`make detlint-report`; TestReportOverRepo gates the same check). Any
// other direct invocation prints unitchecker usage.
package main

import (
	"fmt"
	"os"

	"golang.org/x/tools/go/analysis/unitchecker"

	"switchfs/internal/detlint"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-report" {
		root := "."
		if len(os.Args) > 2 {
			root = os.Args[2]
		}
		sups, err := detlint.CollectSuppressions(root)
		if err == nil {
			err = detlint.WriteReport(os.Stdout, sups)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	unitchecker.Main(detlint.Analyzers()...)
}

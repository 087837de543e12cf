// Command valora-vet runs valora's static-analysis suite — the
// nondeterminism, goroutines, hotpath and copyhygiene analyzers from
// internal/analysis — over the package patterns given on the command
// line (default ./...). It is a standalone checker rather than a
// `go vet -vettool` plugin because the vettool protocol needs
// golang.org/x/tools' unitchecker, which the offline build cannot
// vendor; the tradeoff costs one extra CI line and nothing else.
// Copies of sim.Timeline and lora.Pool are left to `go vet`'s
// copylocks check; the hotpath analyzer reads the compiler's escape
// analysis from one `go build -gcflags=-m` over the packages that hold
// //valora:hotpath functions.
//
// Exit status is 0 when every package is clean, 1 when any diagnostic
// survives suppression, 2 on loader errors, including compiler output
// the escape-analysis parser does not recognize. Suppressions use
// //valora:allow <analyzer> -- <reason>; bare or stale suppressions
// are diagnostics themselves, so an unjustified exemption also fails
// the build.
package main

import (
	"flag"
	"fmt"
	"os"

	"valora/internal/analysis"
)

func main() {
	dir := flag.String("C", ".", "directory to resolve package patterns from")
	list := flag.Bool("list", false, "print the analyzer suite and exit")
	flag.Parse()

	suite := analysis.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.LoadPackages(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "valora-vet: %v\n", err)
		os.Exit(2)
	}

	found := 0
	for _, pkg := range pkgs {
		diags, err := analysis.RunPackage(pkg, suite)
		if err != nil {
			fmt.Fprintf(os.Stderr, "valora-vet: %v\n", err)
			os.Exit(2)
		}
		for _, d := range diags {
			fmt.Println(d)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "valora-vet: %d finding(s) in %d package(s)\n", found, len(pkgs))
		os.Exit(1)
	}
}

// Command valora-bench regenerates the tables and figures of the
// VaLoRA paper's evaluation. It runs every experiment (or a single one
// via -id), prints markdown to stdout, and optionally writes per-
// experiment CSV files.
//
// Usage:
//
//	valora-bench [-quick] [-id fig14] [-csv DIR] [-out DIR]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"valora/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("valora-bench: ")
	var (
		quick  = flag.Bool("quick", false, "shrink traces and sweeps for a fast run")
		id     = flag.String("id", "", "run a single experiment by id (empty = all)")
		csvDir = flag.String("csv", "", "directory to write per-experiment CSV files")
		outDir = flag.String("out", "", "directory for persistent artifacts like BENCH_serving.json (default: current directory)")
		list   = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	suite := bench.NewSuite(*quick)
	suite.OutDir = *outDir
	if *list {
		traj := suite.TrajectoryPath()
		if abs, err := filepath.Abs(traj); err == nil {
			traj = abs
		}
		fmt.Printf("# trajectory: %s\n", traj)
		for _, e := range suite.All() {
			fmt.Printf("%-18s %s\n", e.ID, e.Desc)
		}
		return
	}

	exps := suite.All()
	if *id != "" {
		var found []bench.Experiment
		for _, e := range exps {
			if e.ID == *id {
				found = append(found, e)
			}
		}
		if len(found) == 0 {
			log.Fatalf("unknown experiment %q (use -list)", *id)
		}
		exps = found
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatalf("creating %s: %v", *csvDir, err)
		}
	}

	start := time.Now()
	for _, e := range exps {
		t0 := time.Now()
		table, err := e.Run()
		if err != nil {
			log.Fatalf("experiment %s: %v", e.ID, err)
		}
		fmt.Println(table.Markdown())
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.ID, time.Since(t0).Round(time.Millisecond))
		if *csvDir != "" {
			path := filepath.Join(*csvDir, table.ID+".csv")
			if err := os.WriteFile(path, []byte(table.CSV()), 0o644); err != nil {
				log.Fatalf("writing %s: %v", path, err)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "[all done in %v]\n", time.Since(start).Round(time.Millisecond))
}

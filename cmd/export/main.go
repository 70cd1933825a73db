// Command export writes the study's public artifacts: one CSV per table
// and figure (the paper releases its tool and data; this is the data
// half), plus optionally the SVG figures. Exports are always anonymized.
//
// Usage:
//
//	export -seed 42 -out artifacts/            # run study, export CSVs
//	export -seed 42 -out artifacts/ -svg       # plus SVG figures
//	export -seed 42 -data ./uploads -out artifacts/   # from saved datasets
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	gamma "github.com/gamma-suite/gamma"
	"github.com/gamma-suite/gamma/internal/core"
	"github.com/gamma-suite/gamma/internal/export"
)

func main() {
	var (
		seed    = flag.Uint64("seed", 42, "world seed")
		out     = flag.String("out", "", "output directory; required")
		dataDir = flag.String("data", "", "analyze saved datasets from this directory instead of running the study")
		withSVG = flag.Bool("svg", false, "also write the SVG figures")
	)
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*seed, *out, *dataDir, *withSVG); err != nil {
		fmt.Fprintln(os.Stderr, "export:", err)
		os.Exit(1)
	}
}

func run(seed uint64, out, dataDir string, withSVG bool) error {
	ctx := context.Background()
	var study *gamma.Study
	if dataDir == "" {
		fmt.Fprintf(os.Stderr, "running the full study (seed %d)...\n", seed)
		var err error
		study, err = gamma.RunStudy(ctx, seed)
		if err != nil {
			return err
		}
	} else {
		w, err := gamma.NewWorld(seed)
		if err != nil {
			return err
		}
		datasets, err := core.LoadDir(dataDir)
		if err != nil {
			return err
		}
		res, err := gamma.Analyze(w, datasets)
		if err != nil {
			return err
		}
		sels, err := gamma.SelectTargets(w)
		if err != nil {
			return err
		}
		study = &gamma.Study{World: w, Selections: sels, Result: res}
	}

	written, err := export.Artifacts(study.Result, study.World.Registry, gamma.PolicyRegistry(study.World), out)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d CSV artifacts to %s\n", len(written), out)
	if withSVG {
		if err := gamma.WriteFigures(study, out); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote SVG figures to %s\n", out)
	}
	return nil
}

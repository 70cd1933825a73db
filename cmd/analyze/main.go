// Command analyze runs the study's Box-2 pipeline over uploaded volunteer
// datasets: multi-constraint geolocation of every responding server,
// tracker identification via filter lists plus manual-inspection fallback,
// organization attribution, and the full set of tables and figures.
//
// Usage:
//
//	analyze -seed 42 -data ./data            # all *.json datasets in a dir
//	analyze -seed 42 data/pk.json data/eg.json
//	analyze -seed 42 -data ./data -json      # machine-readable result
//	analyze -seed 42 -data ./data -workers 4 # bound the analysis pool
//
// Countries are analyzed concurrently; the output is byte-identical for
// every -workers value (see internal/pipeline's golden harness).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	gamma "github.com/gamma-suite/gamma"
	"github.com/gamma-suite/gamma/internal/core"
	"github.com/gamma-suite/gamma/internal/report"
)

func main() {
	var (
		seed    = flag.Uint64("seed", 42, "world seed the datasets were recorded against")
		dataDir = flag.String("data", "", "directory of volunteer dataset JSON files")
		asJSON  = flag.Bool("json", false, "emit the analyzed result as JSON instead of the report")
		country = flag.String("country", "", "render a single-country profile instead of the full report")
		workers = flag.Int("workers", 0, "analysis worker pool size; 0 = GOMAXPROCS, 1 = serial")
	)
	flag.Parse()
	if err := run(*seed, *dataDir, flag.Args(), *asJSON, *country, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
}

func run(seed uint64, dataDir string, files []string, asJSON bool, country string, workers int) error {
	if dataDir == "" && len(files) == 0 {
		return fmt.Errorf("no datasets given (use -data DIR or list files)")
	}
	var datasets []*core.Dataset
	if dataDir != "" {
		var err error
		if datasets, err = core.LoadDir(dataDir); err != nil {
			return err
		}
	}
	for _, f := range files {
		ds, err := core.LoadDataset(f)
		if err != nil {
			return err
		}
		datasets = append(datasets, ds)
	}
	fmt.Fprintf(os.Stderr, "analyzing %d dataset(s) against world seed %d...\n", len(datasets), seed)

	w, err := gamma.NewWorld(seed)
	if err != nil {
		return err
	}
	res, err := gamma.AnalyzeWithWorkers(w, datasets, workers)
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	if country != "" {
		cr, ok := res.Countries[country]
		if !ok {
			return fmt.Errorf("no analyzed data for %q (have %v)", country, res.CountryCodes())
		}
		report.CountryProfile(os.Stdout, cr)
		return nil
	}
	sels, err := gamma.SelectTargets(w)
	if err != nil {
		return err
	}
	study := &gamma.Study{World: w, Selections: sels, Result: res}
	gamma.FullReport(study, os.Stdout)
	return nil
}

// The `serfi experiments` subcommand: the full report or one -run artefact
// of the paper's evaluation, formatted by internal/exp from one matrix of
// campaign rows — run on this host's engine (streamed to -db and resumable
// like `serfi campaign`), run on a `serfi serve -data` queue (-join) or read
// back from a recorded database (-from). Progress goes to stderr, so stdout
// carries only the artefact.
package main

import (
	"context"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/dist"
	"serfi/internal/exp"
	"serfi/internal/npb"
)

// artefacts maps -run names to their formatter and the smallest scenario
// set it needs (nil: the full matrix) — one table for every row source.
// "all" (the full report) and "fig1" (static) are handled apart.
var artefacts = map[string]struct {
	format func(*exp.Matrix) string
	keep   func(npb.Scenario) bool
}{
	"table1": {exp.Table1, nil},
	"table2": {exp.Table2, func(sc npb.Scenario) bool { return sc.App == "IS" && sc.Mode != npb.Serial }},
	"table3": {exp.Table3, func(sc npb.Scenario) bool {
		return sc.ISA == "armv7" && sc.Mode == npb.MPI && (sc.App == "MG" || sc.App == "IS")
	}},
	"table4": {exp.Table4, func(sc npb.Scenario) bool {
		return sc.ISA == "armv8" && ((sc.Mode == npb.OMP && (sc.App == "LU" || sc.App == "SP")) ||
			(sc.Mode == npb.MPI && sc.App == "FT"))
	}},
	"domains":    {exp.DomainTable, onIS},
	"prop":       {exp.PropTable, onIS},
	"sens":       {exp.SensTable, onIS},
	"fig2":       {exp.Figure2, func(sc npb.Scenario) bool { return sc.ISA == "armv7" }},
	"fig3":       {exp.Figure3, func(sc npb.Scenario) bool { return sc.ISA == "armv8" }},
	"macro":      {exp.MacroStats, nil},
	"vulnwindow": {exp.VulnWindow, nil},
	"mine":       {exp.MineReport, nil},
}

// onIS keeps IS, the paper's own case-study workload, on both ISAs.
func onIS(sc npb.Scenario) bool { return sc.App == "IS" }

func cmdExperiments(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	out := fs.String("out", "", "write the full markdown report here (default stdout)")
	db := fs.String("db", "", "stream the raw campaign database here (JSON lines); with -join, save the fetched one")
	from := fs.String("from", "", "format the report offline from this recorded database (no simulation)")
	run := fs.String("run", "all", "artefact: all|table1|table2|table3|table4|domains|prop|sens|fig1|fig2|fig3|macro|vulnwindow|mine")
	join := fs.String("join", "", "run the matrix on the `serfi serve -data` queue at this address and report from the fetched results")
	tenant := fs.String("tenant", "", "tenant namespace for the -join submission (default: the shared namespace)")
	traceProp := fs.Bool("trace-prop", false, "propagation-trace every unmasked injection (feeds the prop artefact)")
	mf := addMatrixFlags(fs, 24, "skip campaigns already recorded in -db and append the rest")
	hf := addHostFlags(fs, engineHelp)
	fs.Parse(args)
	defer hf.start()()

	a, ok := artefacts[*run]
	switch {
	case *run == "fig1":
		fmt.Print(exp.Figure1())
		return nil
	case *run != "all" && !ok:
		return fmt.Errorf("unknown artefact %q", *run)
	}
	if *from != "" {
		recs, err := readDB(*from)
		if err != nil {
			return err
		}
		m := exp.NewMatrix(slices.Collect(maps.Values(recs)))
		if len(m.Order) == 0 {
			return fmt.Errorf("%s holds no campaign records", *from)
		}
		return writeArtefact(m, a.format, *out, 0)
	}

	// The domain comparison runs every fault model, the propagation table
	// needs the tracer.
	switch *run {
	case "domains":
		*mf.model = "all"
	case "prop":
		*traceProp = true
	}
	jobs, err := mf.jobs(a.keep)
	if err != nil {
		return err
	}
	ctx, stop := interruptContext()
	defer stop()
	start := time.Now()
	var results []*campaign.Result
	if *join != "" {
		results, err = fetchSubmission(ctx, *join, *db, dist.SubmitRequest{
			Tenant:    *tenant,
			Jobs:      dist.WireJobs(jobs),
			Faults:    *mf.n,
			TraceProp: *traceProp,
		})
	} else {
		var opts []campaign.Option
		command := "serfi experiments -run " + *run
		if *traceProp {
			opts = append(opts, campaign.TraceProp())
			command += " -trace-prop"
		}
		results, _, err = runLocal(ctx, os.Stderr, command, *db, jobs, mf, hf, opts...)
	}
	if err != nil {
		return err
	}
	return writeArtefact(exp.NewMatrix(results), a.format, *out, time.Since(start))
}

// fetchSubmission runs one matrix through the queue at join, submitted and
// watched like `serfi submit -watch`, and returns its rows (saved to db when
// set): by the shared Engine.JobsFor seeds, the rows a local run records.
func fetchSubmission(ctx context.Context, join, db string, req dist.SubmitRequest) ([]*campaign.Result, error) {
	id, err := submitWatch(ctx, os.Stderr, join, req, true)
	if err != nil {
		return nil, err
	}
	fr, err := dist.NewClient(join).Fetch(ctx, id)
	if err != nil {
		return nil, err
	}
	recs, err := campaign.ReadDB(strings.NewReader(fr.DB))
	if err != nil {
		return nil, err
	}
	if db != "" {
		if err := os.WriteFile(db, []byte(fr.DB), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "saved %d campaign records to %s\n", len(recs), db)
	}
	return slices.Collect(maps.Values(recs)), nil
}

// readDB loads the recorded database at path for a command that only
// reads it: a missing path creates no file, and a last row without its
// newline stays as it is.
func readDB(path string) (map[string]*campaign.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := campaign.ReadDB(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// writeArtefact prints the artefact format renders from m or, with format
// nil, the full report (elapsed is its wall-time line) to stdout or out.
func writeArtefact(m *exp.Matrix, format func(*exp.Matrix) string, out string, elapsed time.Duration) error {
	if format != nil {
		fmt.Print(format(m))
		return nil
	}
	report := exp.Report(m, elapsed)
	if out == "" {
		fmt.Print(report)
		return nil
	}
	if err := os.WriteFile(out, []byte(report), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d scenarios, %d faults each) in %v\n",
		out, len(m.Order), m.Faults, elapsed.Round(time.Second))
	return nil
}

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
	"io"
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

func cmdExperiments(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	out := fs.String("out", "", "write the full markdown report here (default stdout)")
	db := fs.String("db", "", "stream the raw campaign database here (JSON lines); with -join, save the fetched one")
	from := fs.String("from", "", "format the report offline from this recorded database (no simulation)")
	names := []string{"all"}
	for _, a := range exp.Artefacts {
		names = append(names, a.Name)
	}
	run := fs.String("run", "all", "artefact: "+strings.Join(names, "|"))
	join := fs.String("join", "", "run the matrix on the `serfi serve -data` queue at this address and report from the fetched results")
	tenant := fs.String("tenant", "", "tenant namespace for the -join submission (default: the shared namespace)")
	traceProp := fs.Bool("trace-prop", false, "propagation-trace every unmasked injection (feeds the prop artefact)")
	mf := addMatrixFlags(fs, 24, "skip campaigns already recorded in -db and append the rest")
	hf := addHostFlags(fs, engineHelp)
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	defer hf.start(stderr)()

	a := exp.Artefact{Scenarios: npb.Scenarios()} // all: the full report, no Format
	if *run != "all" {
		i := slices.IndexFunc(exp.Artefacts, func(a exp.Artefact) bool { return a.Name == *run })
		if i < 0 {
			return fmt.Errorf("unknown artefact %q", *run)
		}
		a = exp.Artefacts[i]
	}
	if len(a.Scenarios) == 0 {
		fmt.Fprint(stdout, a.Format(nil)) // Figure 1: no simulation, no database
		return nil
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
		return writeArtefact(stdout, stderr, m, a.Format, *out, 0)
	}

	if a.AllDomains {
		*mf.model = "all"
	}
	*traceProp = *traceProp || a.Prop
	jobs, err := mf.jobs(a.Scenarios)
	if err != nil {
		return err
	}
	start := time.Now()
	var results []*campaign.Result
	if *join != "" {
		results, err = fetchSubmission(ctx, stderr, *join, *db, dist.SubmitRequest{
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
		results, _, err = runLocal(ctx, stderr, command, *db, jobs, mf, hf, opts...)
	}
	if err != nil {
		return err
	}
	return writeArtefact(stdout, stderr, exp.NewMatrix(results), a.Format, *out, time.Since(start))
}

// fetchSubmission runs one matrix through the queue at join, submitted and
// watched like `serfi submit -watch` with its status lines on w, and returns
// its rows (saved to db when set): by the shared Engine.JobsFor seeds, the
// rows a local run records.
func fetchSubmission(ctx context.Context, w io.Writer, join, db string, req dist.SubmitRequest) ([]*campaign.Result, error) {
	id, err := submitWatch(ctx, w, join, req, true)
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
		fmt.Fprintf(w, "saved %d campaign records to %s\n", len(recs), db)
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
// nil, the full report to stdout or out. elapsed is the run's wall time, 0
// for a report read from a database, which records none.
func writeArtefact(stdout, stderr io.Writer, m *exp.Matrix, format func(*exp.Matrix) string, out string, elapsed time.Duration) error {
	if format != nil {
		fmt.Fprint(stdout, format(m))
		return nil
	}
	report := exp.Report(m, elapsed)
	if out == "" {
		fmt.Fprint(stdout, report)
		return nil
	}
	if err := os.WriteFile(out, []byte(report), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s (%d scenarios, %d faults each)", out, len(m.Order), m.Faults)
	if elapsed > 0 {
		fmt.Fprintf(stderr, " in %.1fs", elapsed.Seconds())
	}
	fmt.Fprintln(stderr)
	return nil
}

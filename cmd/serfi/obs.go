// The `serfi trace` subcommand: a scenario campaign run with the phase
// trace journal attached, exported as Chrome trace_event JSON (load in
// chrome://tracing or Perfetto).
package main

import (
	"flag"
	"fmt"
	"os"

	"serfi/internal/campaign"
	"serfi/internal/obs"
)

// cmdTrace runs one scenario campaign with the span trace journal attached,
// writes the Chrome trace JSON and prints the per-phase breakdown.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	scid := fs.String("s", "armv8/IS/SER-1", "scenario id")
	n := fs.Int("n", 50, "faults")
	seed := fs.Int64("seed", 1, "fault-list seed")
	model := fs.String("faultmodel", "reg", faultModelHelp)
	out := fs.String("o", "trace.json", "Chrome trace_event JSON output path")
	metricsOut := fs.String("metrics", "", "also dump the Prometheus exposition here")
	ef := addEngineFlags(fs)
	fs.Parse(args)
	defer ef.start()()
	jobs, err := scenarioJobs(*scid, *model, *seed)
	if err != nil {
		return err
	}
	ctx, stop := interruptContext()
	defer stop()

	tr := obs.NewTracer()
	eng := campaign.New(append(ef.options(), campaign.Faults(*n), campaign.WithTracer(tr))...)
	results, err := eng.RunMatrix(ctx, jobs)
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("%s faults=%d %s masking=%.1f%%\n", r.Key(), r.Faults, r.Counts, 100*r.Counts.Masking())
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote %d spans to %s (load in chrome://tracing or Perfetto)\n", len(tr.Spans()), *out)
	fmt.Printf("\n%-12s %8s %12s %12s\n", "phase", "spans", "total", "max")
	for _, st := range tr.Summary() {
		fmt.Printf("%-12s %8d %11.3fs %11.3fs\n", st.Cat, st.Count, st.TotalSec, st.MaxSec)
	}

	if *metricsOut != "" {
		mf, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		defer mf.Close()
		if err := obs.Default.WriteText(mf); err != nil {
			return err
		}
		fmt.Printf("\nwrote metrics exposition to %s\n", *metricsOut)
	}
	return nil
}

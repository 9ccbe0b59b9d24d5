// Command experiments regenerates every table and figure of the paper from
// fresh simulations and writes the complete report (markdown) plus the raw
// campaign database.
//
//	experiments -n 24 -seed 2018 -out EXPERIMENTS.md -db results.jsonl
//	experiments -run table2 -n 50          (single artefact to stdout)
//	experiments -run domains -n 24         (fault-domain comparison, IS subset)
//	experiments -faultmodel all -n 24      (full matrix under every fault domain)
//	experiments -run prop -trace-prop -n 24 (propagation table, IS subset)
//	experiments -run sens -n 24            (per-register sensitivity table, IS subset)
//	experiments -from results.jsonl        (offline report from a recorded database)
//	experiments -join host:8340 -db results.jsonl (submit the matrix to a `serfi serve
//	                                        -data` queue, watch it drain, report from
//	                                        the fetched database)
//
// The SERFI_FAULTS environment variable overrides -n when set. With -db
// the campaign records stream to the JSONL store as they complete, so an
// interrupted (SIGINT) matrix loses nothing; -resume skips the recorded
// campaigns and finishes the rest.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"serfi/internal/campaign"
	"serfi/internal/dist"
	"serfi/internal/exp"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/npb"
)

func main() {
	n := flag.Int("n", 24, "faults per scenario")
	seed := flag.Int64("seed", 2018, "base seed")
	out := flag.String("out", "", "write the full markdown report here (default stdout)")
	db := flag.String("db", "", "stream the raw campaign database here (JSON lines)")
	from := flag.String("from", "", "format the report offline from this recorded database (no simulation)")
	run := flag.String("run", "all", "artefact: all|table1|table2|table3|table4|domains|prop|sens|fig1|fig2|fig3|macro|vulnwindow|mine")
	model := flag.String("faultmodel", "reg", "fault domains per scenario: reg|mem|imem|burst|cachetag|cachedirty|cacherepl, uncore, or all")
	traceProp := flag.Bool("trace-prop", false, "propagation-trace every unmasked injection (feeds the prop artefact)")
	recordRuns := flag.Bool("record-runs", false, "persist per-fault rows as v4 records (feeds the sens artefact and `serfi sens`)")
	join := flag.String("join", "", "drive the matrix through a campaign queue: submit it to the `serfi serve -data` coordinator at this address and report from the fetched results")
	tenant := flag.String("tenant", "", "tenant namespace for the -join submission (default: the shared namespace)")
	workers := flag.Int("workers", 0, "host worker pool size (0 = all cores)")
	snapshots := flag.Int("snapshots", fi.DefaultCheckpoints, "at most n pre-fault checkpoints per scenario (0 = run every fault from reset)")
	resume := flag.Bool("resume", false, "skip campaigns already recorded in -db and append the rest")
	flag.Parse()
	if env := os.Getenv("SERFI_FAULTS"); env != "" {
		if v, err := strconv.Atoi(env); err == nil {
			*n = v
		}
	}
	domains, err := fault.ParseModels(*model)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() { // second SIGINT kills the process the default way
		<-ctx.Done()
		stop()
	}()

	// -snapshots means what it means to `serfi` (0 = from reset);
	// exp.Config keeps the campaign convention (negative = from reset).
	if *snapshots <= 0 {
		*snapshots = -1
	}
	cfg := exp.Config{Faults: *n, Seed: *seed, Progress: os.Stderr,
		Workers: *workers, Snapshots: *snapshots, Domains: domains,
		TraceProp: *traceProp, RecordRuns: *recordRuns}

	if *run == "fig1" {
		fmt.Print(exp.Figure1())
		return
	}
	if *run != "all" && artefacts[*run] == nil {
		fatal(fmt.Errorf("unknown artefact %q", *run))
	}

	// The domain comparison runs every fault model regardless of the
	// -faultmodel flag; everything downstream (resume validation, the
	// campaign run) must agree on the domain set actually used.
	runDomains := domains
	if *run == "domains" {
		runDomains = fault.Models()
	}
	// The propagation artefact is meaningless without the tracer, and the
	// sensitivity artefact without recorded per-fault rows.
	if *run == "prop" {
		cfg.TraceProp = true
	}
	if *run == "sens" {
		cfg.RecordRuns = true
	}

	// Offline mode: rebuild the matrix from a recorded store and format
	// the requested artefact (or the full report) without simulating
	// anything. The header scale (faults/seed) comes from the recorded
	// rows, not from this invocation's flags.
	if *from != "" {
		st, err := campaign.OpenFileStore(*from)
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		m := exp.MatrixFromStore(st, cfg)
		if len(m.Order) == 0 {
			fatal(fmt.Errorf("%s holds no campaign records", *from))
		}
		if *run == "all" {
			writeReport(exp.Report(m, 0), *out)
			return
		}
		fmt.Print(artefacts[*run](m))
		return
	}

	// In queue mode (-join) the durable store lives on the coordinator;
	// -db then means "also save the fetched database here", handled after
	// the submission completes.
	if *db != "" && *join == "" {
		// Any recorded campaign this run could touch must match its fault
		// count and seed (campaign.ValidateResume's mixing guard; the
		// engine re-checks at skip time as the backstop).
		jobs := campaign.New(campaign.Models(runDomains...)).JobsFor(npb.Scenarios(), *seed)
		st, err := campaign.OpenMatrixStore(*db, *resume, jobs, *n)
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		cfg.Store = st
	}

	// Single-artefact runs use the smallest sufficient scenario subset:
	// the domain comparison needs IS (the paper's own case-study workload)
	// across both ISAs under every fault model; the tables and figures
	// need their own scenario slices under the configured models.
	subset := map[string]func(npb.Scenario) bool{
		"domains": func(sc npb.Scenario) bool { return sc.App == "IS" },
		"prop":    func(sc npb.Scenario) bool { return sc.App == "IS" },
		"sens":    func(sc npb.Scenario) bool { return sc.App == "IS" },
		"table2": func(sc npb.Scenario) bool {
			return sc.App == "IS" && sc.Mode != npb.Serial
		},
		"table3": func(sc npb.Scenario) bool {
			return sc.ISA == "armv7" && sc.Mode == npb.MPI && (sc.App == "MG" || sc.App == "IS")
		},
		"table4": func(sc npb.Scenario) bool {
			return sc.ISA == "armv8" && ((sc.Mode == npb.OMP && (sc.App == "LU" || sc.App == "SP")) ||
				(sc.Mode == npb.MPI && sc.App == "FT"))
		},
		"fig2": func(sc npb.Scenario) bool { return sc.ISA == "armv7" },
		"fig3": func(sc npb.Scenario) bool { return sc.ISA == "armv8" },
	}
	// Queue mode: instead of simulating locally (or hosting a one-shot
	// coordinator, as earlier releases did), submit the exact same matrix to
	// a persistent `serfi serve -data` queue, watch it to completion and
	// format the artefacts from the fetched database. The seed convention is
	// shared (Engine.JobsFor), so the queue-produced report is bit-identical
	// to a local run.
	if *join != "" {
		clusterStart := time.Now()
		keep := func(npb.Scenario) bool { return true }
		if k, ok := subset[*run]; ok {
			keep = k
		}
		var scs []npb.Scenario
		for _, sc := range npb.Scenarios() {
			if keep(sc) {
				scs = append(scs, sc)
			}
		}
		jobs := campaign.New(campaign.Models(runDomains...)).JobsFor(scs, *seed)
		cl := dist.NewClient(*join)
		reply, err := cl.Submit(ctx, dist.SubmitRequest{
			Tenant:     *tenant,
			Jobs:       dist.WireJobs(jobs),
			Faults:     *n,
			TraceProp:  cfg.TraceProp,
			RecordRuns: cfg.RecordRuns,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "submitted %s: %d campaigns (%d already recorded) to %s\n",
			reply.ID, reply.Campaigns, reply.Skipped, *join)
		ms, err := cl.Watch(ctx, reply.ID, func(ms dist.MatrixStatus) { fmt.Fprintln(os.Stderr, ms) })
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "interrupted: submission %s stays queued on the coordinator\n", reply.ID)
				fmt.Fprintf(os.Stderr, "watch with: serfi ls -join %s · withdraw with: serfi cancel -join %s -id %s\n",
					*join, *join, reply.ID)
				os.Exit(130)
			}
			fatal(err)
		}
		if ms.State != "done" {
			fatal(fmt.Errorf("submission %s finished %s", reply.ID, ms.State))
		}
		fr, err := cl.Fetch(ctx, reply.ID)
		if err != nil {
			fatal(err)
		}
		recs, err := campaign.ReadDB(strings.NewReader(fr.DB))
		if err != nil {
			fatal(err)
		}
		st := campaign.NewMemStore()
		for _, r := range recs {
			if err := st.Put(r); err != nil {
				fatal(err)
			}
		}
		if *db != "" {
			if err := os.WriteFile(*db, []byte(fr.DB), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "saved %d campaign records to %s\n", len(recs), *db)
		}
		m := exp.MatrixFromStore(st, cfg)
		if f := artefacts[*run]; f != nil {
			fmt.Print(f(m))
			return
		}
		writeReport(exp.Report(m, time.Since(clusterStart)), *out)
		return
	}

	if keep, ok := subset[*run]; ok {
		scfg := cfg
		scfg.Domains = runDomains
		m, err := exp.RunSubsetContext(ctx, scfg, keep)
		if err != nil {
			interrupted(err, *db, *n, *seed, *model)
			fatal(err)
		}
		fmt.Print(artefacts[*run](m))
		return
	}

	start := time.Now()
	m, err := exp.RunMatrixContext(ctx, cfg)
	if err != nil {
		interrupted(err, *db, *n, *seed, *model)
		fatal(err)
	}
	if f := artefacts[*run]; f != nil { // table1|macro|vulnwindow|mine over the full matrix
		fmt.Print(f(m))
		return
	}

	report := exp.Report(m, time.Since(start))
	writeReport(report, *out)
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %s (%d scenarios, %d faults each) in %v\n",
			*out, len(m.Order), *n, time.Since(start).Round(time.Second))
	}
}

// artefacts maps -run names to their formatter — the single dispatch table
// shared by the live and offline (-from) paths. "all" (the full report)
// and "fig1" (static) are handled separately.
var artefacts = map[string]func(*exp.Matrix) string{
	"table1":     exp.Table1,
	"table2":     exp.Table2,
	"table3":     exp.Table3,
	"table4":     exp.Table4,
	"domains":    exp.DomainTable,
	"prop":       exp.PropTable,
	"sens":       exp.SensTable,
	"fig2":       exp.Figure2,
	"fig3":       exp.Figure3,
	"macro":      exp.MacroStats,
	"vulnwindow": exp.VulnWindow,
	"mine":       exp.MineReport,
}

// writeReport prints the report to stdout or the -out path.
func writeReport(report, out string) {
	if out == "" {
		fmt.Print(report)
		return
	}
	if err := os.WriteFile(out, []byte(report), 0o644); err != nil {
		fatal(err)
	}
}

// interrupted handles a SIGINT-cancelled campaign on any run path: print
// what survived and the resume command, exit 130. Non-cancellation errors
// return to the caller.
func interrupted(err error, db string, n int, seed int64, model string) {
	if !errors.Is(err, context.Canceled) {
		return
	}
	if db != "" {
		fmt.Fprintf(os.Stderr, "interrupted: completed campaigns are recorded in %s\n", db)
		fmt.Fprintf(os.Stderr, "resume with: experiments -resume -db %s -n %d -seed %d -faultmodel %s\n",
			db, n, seed, model)
	} else {
		fmt.Fprintln(os.Stderr, "interrupted: no -db was set, so nothing was recorded")
	}
	os.Exit(130)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
